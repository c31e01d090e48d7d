"""Dantzig-Wolfe column generation over ship-path columns.

The restricted master problem selects one path column per ship subject to
node-disjointness; pricing solves a per-ship profit maximization with the
master duals priced into node entries.

A ship is priced in one place, ``PricingModel.price``: it writes the node
prices and exclusions into the ship's model, solves it to optimality from
its last root basis, and reads the column and its profit.  A
``PricingEngine`` builds a ship's model on its first call, keeps it, and
reports the pricing B&B nodes and model sizes.  An engine supplies only
the model and a reader of its solution: arc-flow pricing the revised
model of one ship (``formulations.build_ship_revised``, the revised MIP
without its node-once rows), and lsfrp.lazy the compact model, with
capacity cuts separated on each integer candidate.

The engine is the method: ``run_column_generation`` takes the engine
class, which names the method in its ``method`` attribute ("colgen" for
``ArcFlowPricing``, "colgen-lazy" for ``lazy.CompactPricing``).  There are
no other switches.

One time limit covers a whole run: it becomes an absolute
``time.monotonic()`` deadline that the search, the master loop and every
pricing solve check.  Its one signal is ``lp.DeadlineExpired``, raised by
the loop or by a pricing solve that ran out of time.  Inside the search
it ends branch-and-price with the settled incumbent, if any, and the
search's bound; in the greedy start ``run_column_generation`` catches it.
Either way the "time_limit" result carries the counters and model sizes
gathered so far.

The master owns its artificials: one per ship in its convexity row and
one per required (visit, ship) row, each far costlier than any routing, so
a ship without a column rides its artificial and a settled master that
still uses one has no disjoint routing.  Columns are real paths only.

Branch-and-price is ``lp.best_bound_search``, the search ``lp.solve_mip``
runs too, and its first node is the root: every node runs its own pricing
loop, and a node whose relaxed master ends fractional branches on (visit,
ship) usage, whether ship s calls at visit v.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from . import lp
from .formulations import _reject_empties, build_ship_revised, evaluate_objective, extract_solution
from .instance import Instance, Ship, build_reach_index, path_count
from .lp import EQ, GE, LE, LinearModel
from .solution import (
    NO_DISJOINT_ROUTING,
    OPTIMAL,
    TIME_LIMIT,
    DemandFlow,
    Diagnostics,
    EmptyFlow,
    Solution,
)


@dataclass
class Column:
    ship: str
    path: tuple[str, ...]  # start .. sink
    nodes: frozenset[str]  # visits used, sink excluded
    flows: list[DemandFlow] = field(default_factory=list)
    empty_flows: list[EmptyFlow] = field(default_factory=list)
    profit: float = 0.0  # raw single-ship profit, duals stripped


@dataclass
class MasterDuals:
    pi: dict[str, float]  # per-ship convexity duals, free sign
    mu: dict[str, float]  # per-visit node-once duals
    branch: dict[tuple[str, str], float] = field(default_factory=dict)  # (visit, ship)

    def node_price(self, visit: str, ship_id: str) -> float:
        return self.mu.get(visit, 0.0) + self.branch.get((visit, ship_id), 0.0)


@dataclass
class _BranchState:
    excluded: frozenset[tuple[str, str]] = frozenset()  # (visit, ship) banned
    required: tuple[tuple[str, str], ...] = ()  # (visit, ship) must be used


def artificial_profit(instance: Instance) -> float:
    """Objective coefficient of a master artificial; strictly dominated by
    any real routing, so an artificial stays in use only when no disjoint
    routing exists."""
    total = 0.0
    for a in instance.arcs:
        for _, c in a.sail_cost:
            total += abs(c)
    for v in instance.visits:
        total += abs(v.port_fee)
    for m in instance.demands:
        total += m.amount * m.revenue
    for p in instance.empty_points:
        total += abs(p.amount) * max(instance.empty_revenue.values(), default=0.0)
    return -(total * 10.0) - 1.0


# -- restricted master problem ----------------------------------------------------


class RestrictedMaster:
    """The relaxed master of one branch-and-price node over a growing
    column list.

    Rows: one convexity row per ship, one node-once row per visit (empty,
    with dual 0, until a column calls there), and one row per required
    (visit, ship) pair.  An artificial in each required and each convexity
    row keeps the master feasible before pricing covers the row, so it
    solves with no column at all.  Columns enter with
    ``add_var(column=...)`` at zero, so the last optimal basis stays primal
    feasible and each solve starts from it.
    """

    def __init__(self, instance: Instance, state: _BranchState):
        self.state = state
        model = LinearModel("rmp")
        self.ship_rows = {s.id: model.add_constr({}, EQ, 1.0, f"conv[{s.id}]") for s in instance.ships}
        self.visit_rows = {v.id: model.add_constr({}, LE, 1.0, f"once[{v.id}]") for v in instance.visits}
        self.req_rows: dict[tuple[str, str], int] = {}
        penalty = artificial_profit(instance)
        for node, sid in state.required:
            art = model.add_var(0.0, 1.0, obj=penalty, name=f"art[{node},{sid}]")
            self.req_rows[(node, sid)] = model.add_constr({art: 1.0}, GE, 1.0, f"req[{node},{sid}]")
        for sid, row in self.ship_rows.items():
            model.add_var(0.0, lp.INF, obj=penalty, name=f"art[{sid}]", column={row: 1.0})
        self.model = model
        self.zvars: list[int] = []  # model variable of each column, in column order
        self.basis: lp.LpBasis | None = None

    def add(self, col: Column) -> None:
        rows = [self.ship_rows[col.ship]] + [self.visit_rows[v] for v in col.nodes]
        rows += [r for (v, sid), r in self.req_rows.items() if sid == col.ship and v in col.nodes]
        # no upper bound: the convexity row implies z <= 1, and a column
        # nonbasic at a bound of 1 could price positive under optimal duals
        banned = any((v, col.ship) in self.state.excluded for v in col.nodes)
        self.zvars.append(self.model.add_var(
            0.0, 0.0 if banned else lp.INF, obj=col.profit,
            name=f"z{len(self.zvars)}", column=dict.fromkeys(rows, 1.0),
        ))


def solve_rmp(master: RestrictedMaster, columns: list[Column]) -> tuple[lp.LpSolution, MasterDuals]:
    """Append the columns the master does not hold yet (a suffix of
    ``columns``) and solve it from its last basis; x comes back in column
    order, with the master duals."""
    for col in columns[len(master.zvars):]:
        master.add(col)
    sol = lp.solve_lp(master.model, warm=master.basis)
    if sol.status != lp.OPTIMAL:
        raise RuntimeError(f"relaxed master is {sol.status}")
    master.basis = sol.basis
    y = sol.duals
    duals = MasterDuals(
        {sid: float(y[r]) for sid, r in master.ship_rows.items()},
        {v: float(y[r]) for v, r in master.visit_rows.items()},
        {key: float(y[r]) for key, r in master.req_rows.items()},
    )
    sol.x = sol.x[master.zvars]
    return sol, duals


# -- pricing engines ----------------------------------------------------------------


class PricingModel:
    """One ship's pricing MIP, built once with no prices and no exclusions:
    the one place where a ship is priced.

    Each round writes the node prices into the arc objectives, turns the
    excluded visits into zero bounds on their arcs, solves the MIP to
    optimality with its root LP started from the previous round's root
    basis (from the slack basis on the first round), and reads the column
    with the engine's ``read(x) -> (path, demand flows, empty flows)``.  It
    keeps its size as built, before any cut row, and counts its B&B nodes.
    """

    def __init__(
        self, model: LinearModel, yvars: dict[tuple[str, str], int], instance: Instance, ship: Ship,
        read: Callable,
    ):
        self.model = model
        self.yvars = yvars
        self.instance = instance
        self.ship = ship
        self.read = read
        self.base = [model.obj[k] for k in yvars.values()]  # y costs before prices
        self.basis: lp.LpBasis | None = None
        self.size = model.size_triple()
        self.nodes = 0  # B&B nodes over every solve

    def price(
        self, node_price: dict[str, float], excluded: frozenset[str], deadline: float | None,
        on_candidate: lp.CandidateCallback | None = None,
    ) -> tuple[Column | None, float]:
        """Best column under the node prices and exclusions, with its model
        value less the start's node price; (None, -inf) when no column
        exists.  A solve that runs out of time raises lp.DeadlineExpired."""
        model, ins, ship = self.model, self.instance, self.ship
        for ((i, j), k), base in zip(self.yvars.items(), self.base):
            price = 0.0 if j == ins.sink else node_price.get(j, 0.0)
            model.set_objective_coeff(k, base - price)
            model.set_bounds(k, 0.0, 0.0 if i in excluded or j in excluded else 1.0)
        mip = lp.solve_mip(model, on_candidate=on_candidate, deadline=deadline, warm=self.basis)
        if mip.root_basis is not None:
            self.basis = mip.root_basis
        self.nodes += mip.nodes
        if mip.status == lp.TIME_LIMIT:
            raise lp.DeadlineExpired("pricing ran out of time")
        if mip.status != lp.OPTIMAL:
            return None, -math.inf
        path, flows, empty_flows = self.read(mip.x)
        sol = Solution("pricing", OPTIMAL, ship_paths={ship.id: path}, demand_flows=flows,
                       empty_flows=empty_flows)
        profit = evaluate_objective(ins, sol)
        col = Column(ship.id, path, frozenset(path[:-1]), flows, empty_flows, profit)
        return col, mip.objective - node_price.get(ship.start_visit, 0.0)


class PricingEngine:
    """The ships' pricing models, each built by the engine's ``build`` on
    its ship's first call whose exclusions leave the start open (every
    validated start has an arc, so every build yields a model).
    ``method`` names the column generation method the engine prices for."""

    method: str

    def __init__(self, instance: Instance):
        self.instance = instance
        self.models: dict[str, PricingModel] = {}

    def build(self, ship: Ship) -> PricingModel:
        raise NotImplementedError

    def model(self, ship_id: str, excluded: frozenset[str]) -> PricingModel | None:
        """The ship's pricing model, or None when its start is excluded."""
        ship = self.instance.ship_by_id[ship_id]
        if ship.start_visit in excluded:
            return None
        if ship_id not in self.models:
            self.models[ship_id] = self.build(ship)
        return self.models[ship_id]

    def fill_diagnostics(self, diag: Diagnostics) -> None:
        """Pricing B&B nodes, and the rows, columns and nonzeros of the
        models built so far, each averaged over them and rounded."""
        built = list(self.models.values())
        diag.pricing_bnb_nodes = sum(m.nodes for m in built)
        if built:
            diag.model_rows, diag.model_cols, diag.model_nonzeros = (
                round(sum(column) / len(built)) for column in zip(*(m.size for m in built))
            )


class ArcFlowPricing(PricingEngine):
    """Single-ship pricing on the revised model of that one ship
    (formulations.build_ship_revised), with the node prices in its arc
    objectives."""

    method = "colgen"

    def __init__(self, instance: Instance):
        _reject_empties(instance)
        super().__init__(instance)

    def build(self, ship: Ship) -> PricingModel:
        model, vars_ = build_ship_revised(self.instance, ship)
        # a reader closing over self would make a reference cycle (engine,
        # model, reader) that only the cyclic garbage collector frees
        ins = self.instance

        def read(x):
            sol = extract_solution(ins, vars_, x, "pricing")
            return sol.ship_paths[ship.id], sol.demand_flows, sol.empty_flows

        return PricingModel(model, vars_.y[ship.id], ins, ship, read)

    def price(
        self, ship_id: str, node_price: dict[str, float], excluded: frozenset[str],
        deadline: float | None = None,
    ) -> tuple[Column | None, float]:
        """Best column for the ship, as PricingModel.price finds it."""
        priced = self.model(ship_id, excluded)
        if priced is None:
            return None, -math.inf
        return priced.price(node_price, excluded, deadline)


# -- heuristic initial columns -------------------------------------------------------


def initial_columns(engine, order: list, deadline: float | None = None) -> list[Column]:
    """Greedy start: the ships in the given order (ascending path count in
    a run), each priced with zero duals on the graph minus nodes already
    claimed; a ship left without a column gets none here."""
    used: set[str] = set()
    out: list[Column] = []
    for ship in order:
        col, _ = engine.price(
            ship.id, {}, frozenset(used - {ship.start_visit}), deadline=deadline
        )
        if col is not None:
            out.append(col)
            used |= col.nodes
    return out


def price_ship(
    instance: Instance,
    ship_id: str,
    duals: MasterDuals,
    engine,
    state: _BranchState | None = None,
    rc_tol: float = 1e-6,
    deadline: float | None = None,
) -> Column | None:
    """One pricing round, solved to optimality; a column comes back only
    when its reduced cost clears the tolerance, so a pass that returns none
    certifies the relaxed master optimal."""
    state = state or _BranchState()
    excluded = frozenset(n for (n, sid) in state.excluded if sid == ship_id)
    prices = {v.id: duals.node_price(v.id, ship_id) for v in instance.visits}
    pi = duals.pi.get(ship_id, 0.0)
    col, value = engine.price(ship_id, prices, excluded, deadline=deadline)
    return col if col is not None and value - pi > rc_tol else None


# -- main driver ----------------------------------------------------------------------


def _log_progress(log, diag, sol, columns):
    if log is not None:
        log(f"cg iter={diag.rmp_iterations} columns={len(columns)} bound={sol.objective:.9g}")


def _cg_loop(instance, columns, engine, state, log, deadline, diag, order):
    """Price-and-resolve, over the ships in the given order, until a full
    pass adds no column; returns the final relaxed master solution.

    A ship is not priced again under the node prices, convexity dual and
    tolerance of its last call that found no column: the pricing problem
    is the same, so that call's answer still certifies it.
    """
    master = RestrictedMaster(instance, state)
    sol, duals = solve_rmp(master, columns)
    diag.rmp_iterations += 1
    _log_progress(log, diag, sol, columns)
    priced_out: dict[str, tuple] = {}  # ship -> inputs of its last call without a column
    while True:
        improved = False
        for ship in order:
            if lp.expired(deadline):
                raise lp.DeadlineExpired()
            rc_tol = lp.TOL_GAP * (1.0 + abs(sol.objective))
            inputs = (
                duals.pi.get(ship.id, 0.0), rc_tol,
                tuple(duals.node_price(v.id, ship.id) for v in instance.visits),
            )
            if priced_out.get(ship.id) == inputs:
                continue
            col = price_ship(instance, ship.id, duals, engine, state, rc_tol, deadline=deadline)
            if col is None:
                priced_out[ship.id] = inputs
            else:
                columns.append(col)
                diag.columns_generated += 1
                improved = True
                sol, duals = solve_rmp(master, columns)
                diag.rmp_iterations += 1
                _log_progress(log, diag, sol, columns)
        if not improved:
            return sol


def _fractional_pair(columns, z) -> tuple[str, str] | None:
    """The (visit, ship) pair to branch on: the fractional usage nearest
    one half, ties to the least pair; None when every usage is integral."""
    usage: dict[tuple[str, str], float] = {}
    for k, col in enumerate(columns):
        if z[k] > lp.TOL_INT:
            for node in col.nodes:
                usage[(node, col.ship)] = usage.get((node, col.ship), 0.0) + z[k]
    fractional = [
        (abs(frac - 0.5), key) for key, val in usage.items()
        if lp.TOL_INT < (frac := val - math.floor(val)) < 1 - lp.TOL_INT
    ]
    return min(fractional, default=(None, None))[1]


def _settle(instance, columns, z, bound) -> tuple[float, list[Column]] | None:
    """One column per ship once every (visit, ship) usage is integral, with
    their total profit; None when a ship rides only its artificial.

    A ship's columns in use then all call at the same visits, so they have
    the same master rows, and an optimal master gives them the same profit:
    the most profitable one alone is worth the mix, and the total is the
    master's value, bound.
    """
    pick: dict[str, int] = {}
    for k, col in enumerate(columns):
        if z[k] > lp.TOL_INT and (col.ship not in pick or col.profit > columns[pick[col.ship]].profit):
            pick[col.ship] = k
    if len(pick) < len(instance.ships):
        return None
    chosen = [columns[k] for k in sorted(pick.values())]
    total = sum((c.profit for c in chosen), 0.0)
    if total < bound - lp.TOL_GAP * (1 + abs(total)):
        raise RuntimeError("branching incomplete: settled node below its bound")
    return total, chosen


def _branch_and_price(instance, engine, method, log, deadline, diag) -> Solution:
    """Greedy start, then ``lp.best_bound_search`` from the root: each node
    runs its own pricing loop and, when its master is fractional, branches
    on (visit, ship) usage.  Past the deadline the greedy start raises
    lp.DeadlineExpired, and the search returns its incumbent and bound."""
    # ascending path count for the greedy start, descending for pricing;
    # ties keep the instance's ship order, reversed when pricing
    order = sorted(instance.ships, key=lambda s: path_count(instance, s.id))
    columns = initial_columns(engine, order, deadline)
    diag.columns_generated = len(columns)
    order.reverse()
    meta: dict = {}

    def solve(state, best):
        node_sol = _cg_loop(instance, columns, engine, state, log, deadline, diag, order)
        if not meta:  # node 1, the root
            meta["root_master_integral"] = all(abs(v - round(v)) <= lp.TOL_INT for v in node_sol.x)
        return node_sol.objective, node_sol

    def branch(state, node_sol, open_nodes):
        z = node_sol.x.tolist()
        pair = _fractional_pair(columns, z)
        if pair is None:
            return [], _settle(instance, columns, z, node_sol.objective)
        node, sid = pair
        # requiring (node, sid) shuts the node for every other ship
        others = frozenset((node, s.id) for s in instance.ships if s.id != sid)
        return [
            _BranchState(excluded=state.excluded | {pair}, required=state.required),
            _BranchState(excluded=state.excluded | others, required=state.required + (pair,)),
        ], None

    found = lp.best_bound_search(_BranchState(), solve, branch, deadline)
    diag.bnb_nodes = found.nodes
    chosen = found.x or []
    status = {lp.OPTIMAL: OPTIMAL, lp.TIME_LIMIT: TIME_LIMIT}.get(found.status, NO_DISJOINT_ROUTING)
    return Solution(
        method=method, status=status, objective=None if found.x is None else found.objective,
        bound=None if status == NO_DISJOINT_ROUTING else found.bound,
        ship_paths={c.ship: c.path for c in chosen},
        demand_flows=[f for c in chosen for f in c.flows],
        empty_flows=[f for c in chosen for f in c.empty_flows],
        diagnostics=diag, meta=meta,
    )


def run_column_generation(
    instance: Instance, time_limit: float | None = None, log: Callable[[str], None] | None = None,
    engine: type[PricingEngine] = ArcFlowPricing,
) -> Solution:
    """Full column generation with the given pricing engine class, whose
    ``method`` names the result: heuristic start, then branch-and-price,
    whose first node is the root master's pricing loop.  log, if given,
    receives one machine-parsable progress line per master solve.

    Every status leaves through one exit, which fills in the engine's
    counters and model sizes: a time limit reports what was built and
    counted before it, and within the search also its incumbent and bound.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    build_reach_index(instance)  # validates the instance
    pricing = engine(instance)
    diag = Diagnostics()
    try:
        sol = _branch_and_price(instance, pricing, engine.method, log, deadline, diag)
    except lp.DeadlineExpired:  # in the greedy start
        sol = Solution(method=engine.method, status=TIME_LIMIT, diagnostics=diag)
    pricing.fill_diagnostics(diag)
    return sol
