"""Compact per-ship pricing with lazy capacity constraints.

Instead of one flow variable per (demand, arc), each demand gets a single
total-flow variable per ship; base rows only cap what is loaded at each
node.  Joint capacity along the path is enforced lazily: the model keeps,
unappended, one capacity cut row per (node, scope) over everything that
can be aboard when the ship leaves the node, and appends each row an
integer candidate violates.  A row sums all that can be aboard, so it flags
every overload a replay of the candidate's path would.  Cuts persist across
pricing rounds as rows of the ship's pricing model, which is built once and
re-priced each round; the model lists their keys in ``CompactModel.cuts``,
in row order.

Splitting is always on and has one rule, ``split_demand_triples``: a
multi-destination demand gets one variable per destination, the family
sharing one availability cap, when its destinations charge unequal unload
costs or another demand can load between two of them, so that no cut
ties the demand to cargo it never shares the ship with.

A ship's arc variables and path rows come from the shared per-ship
builders of lsfrp.formulations, the same ones the arc-flow models use;
the cargo rows below are the compact model's own.

``CompactPricing`` supplies the pricing round of ``colgen.PricingModel``
with the compact model, ``replay_column`` as its reader and
``add_violated_cuts`` as its separation callback; the round itself
(prices, solve, column, profit) is colgen's, shared with arc-flow pricing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from . import lp
from .colgen import Column, PricingEngine, PricingModel, run_column_generation
from .formulations import (
    FLOW_EPS, _trace_path, add_path_rows, add_ship_arcs, delivery_coef, empty_coef, leaves_start,
)
from .instance import Demand, Instance, ReachIndex, Ship, build_reach_index
from .lp import LE, LinearModel
from .solution import DemandFlow, Diagnostics, EmptyFlow, Solution


@dataclass(frozen=True)
class Member:
    """One compact flow variable: its demand restricted to some of the
    demand's destinations (all of them, or one of a split demand's)."""

    key: str
    demand: Demand
    destinations: frozenset[str]


# -- demand-triple splitting -----------------------------------------------------


def _interleaved(reach: ReachIndex, m, pool) -> bool:
    """Whether another demand's origin o2 can interleave two of m's
    destinations d1, d2: (1) d2 lies beyond d1, (2) o2 lies between d1 and
    d2, and (4) m's origin reaches o2 around d1.

    The paper's criterion 3, that the other demand can still deliver past
    d2, is left out on purpose: whenever another demand can load while m
    may already have unloaded at an earlier destination, a static cut over
    total flows could tie the two together even though they never share
    the ship.  Splitting is optimum-preserving, so the wider trigger only
    costs a few extra variables.
    """
    for d1 in sorted(m.destinations):
        avoiding = reach.reach_avoiding(m.origin, {d1})
        for d2 in sorted(m.destinations):
            if d2 == d1 or not reach.can_reach(d1, d2):
                continue  # criterion 1
            for other in pool:
                o2 = other.origin
                if other.id == m.id or not (reach.can_reach(d1, o2) and reach.can_reach(o2, d2)):
                    continue  # criterion 2
                if o2 in avoiding:
                    return True  # criterion 4
    return False


def split_demand_triples(instance: Instance, ship_id: str) -> dict[str, list[frozenset[str]]]:
    """Split map for one ship's pricing model: demand id -> destination sets,
    one per variable, over the demands the ship can move.

    A multi-destination demand gets one variable per destination when its
    destinations charge unequal unload costs, or when another demand can
    load between two of them (_interleaved); otherwise one variable
    covers all its destinations.  The pricing model's members are built
    from this map, so it is the one splitting rule.
    """
    reach = build_reach_index(instance)
    movable = reach.movable[ship_id]
    pool = [instance.demand_by_id[mid] for mid in sorted(movable)]
    out: dict[str, list[frozenset[str]]] = {}
    for m in pool:
        unload = {instance.visit_by_id[d].move_cost for d in m.destinations}
        if len(m.destinations) > 1 and (len(unload) > 1 or _interleaved(reach, m, pool)):
            out[m.id] = [frozenset({d}) for d in sorted(m.destinations)]
        else:
            out[m.id] = [m.destinations]
    return out


def _members_for_ship(instance: Instance, ship_id: str) -> list[Member]:
    """The ship's compact flow variables, one per destination set of its
    split map; a split demand's members are keyed "demand@destination"."""
    members: list[Member] = []
    for mid, parts in split_demand_triples(instance, ship_id).items():
        m = instance.demand_by_id[mid]
        for dests in parts:
            key = mid if len(parts) == 1 else f"{mid}@{min(dests)}"
            members.append(Member(key, m, dests))
    return members


# -- compact model ----------------------------------------------------------------


@dataclass
class CompactModel:
    model: LinearModel
    ship: Ship
    instance: Instance
    yvars: dict[tuple[str, str], int]
    xvars: dict[str, int]
    evars: dict[tuple[str, str, str], int]
    members: dict[str, Member]
    # (node, scope) -> capacity cut row, built once, appended when violated
    cut_rows: dict[tuple[str, str], lp.Constraint]
    split_parents: int = 0
    # (node, scope) of each capacity cut, in the order its row was appended
    cuts: list[tuple[str, str]] = field(default_factory=list)


def _add_gates(model: LinearModel, yvars, var: int, arcs, origin: str, destinations) -> None:
    """The two gate rows of cargo variable var, origin gate then
    destination gate: it moves only if the ship leaves origin, and enters
    one of the destinations, along its arcs; the bound is the variable's
    own."""
    bound = model.ub[var]
    out_gate = {yvars[(i, j)]: -bound for (i, j) in arcs if i == origin}
    out_gate[var] = 1.0
    model.add_constr(out_gate, LE, 0.0)
    in_gate = {yvars[(i, j)]: -bound for (i, j) in arcs if j in destinations}
    in_gate[var] = 1.0
    model.add_constr(in_gate, LE, 0.0)


def build_compact_pricing(
    instance: Instance,
    ship_id: str,
    node_price: dict[str, float] | None = None,
    excluded: frozenset[str] = frozenset(),
) -> CompactModel | None:
    """Per-ship compact pricing model: path rows, load-node capacities,
    origin/destination gates, split caps and empty pairs.  Returns None when
    the start visit is excluded or left without an outgoing arc.

    The engine builds each model once without prices or exclusions and
    re-prices it in place; node_price and excluded build a model already
    priced, the reference that tests compare a re-priced model against.

    Its variables and rows carry no names: the returned ``CompactModel``
    maps each arc, member and empty pair to its variable (``yvars``,
    ``xvars``, ``evars``) and each (node, scope) to its cut row
    (``cut_rows``)."""
    ins = instance
    ship = ins.ship_by_id[ship_id]
    if ship.start_visit in excluded:
        return None
    reach = build_reach_index(ins)
    model = LinearModel(f"compact[{ship_id}]")
    yvars = add_ship_arcs(model, ins, ship, node_price, excluded)
    if not leaves_start(ins, ship, yvars):
        return None
    add_path_rows(model, ins, {ship_id: yvars})

    members = _members_for_ship(ins, ship_id)
    reachable_members = []
    xvars: dict[str, int] = {}
    gate_arcs: dict[str, frozenset[tuple[str, str]]] = {}
    for mem in members:
        m = mem.demand
        arcs = frozenset(
            (i, j) for (i, j) in reach.arc_set(m.origin, mem.destinations) if (i, j) in yvars
        )
        if not arcs:
            continue
        gate_arcs[mem.key] = arcs
        cap = ship.capacity_rf if m.cargo_type == "rf" else ship.capacity_dc
        xvars[mem.key] = model.add_var(
            0.0, min(m.amount, cap), obj=delivery_coef(ins, m.id, min(mem.destinations)),
        )
        reachable_members.append(mem)
    member_by_key = {m.key: m for m in members}

    # empty-equipment pair variables, one per reachable (surplus, deficit)
    evars: dict[tuple[str, str, str], int] = {}
    # arcs of every pair the ship can reach, excluded ones too, for the cut rows
    pair_arcs_full: dict[tuple[str, str, str], frozenset[tuple[str, str]]] = {}
    empty_gate_arcs: dict[tuple[str, str, str], frozenset[tuple[str, str]]] = {}
    surpluses = [p for p in ins.empty_points if p.amount > 0]
    deficits = [p for p in ins.empty_points if p.amount < 0]
    for sp in surpluses:
        if not reach.can_reach(ship.start_visit, sp.visit):
            continue
        for dp in deficits:
            if dp.cargo_type != sp.cargo_type or sp.visit == dp.visit:
                continue
            if not reach.can_reach(sp.visit, dp.visit):
                continue
            q = sp.cargo_type
            key = (q, sp.visit, dp.visit)
            full_arcs = pair_arcs_full[key] = reach.arc_set(sp.visit, {dp.visit})
            if sp.visit in excluded or dp.visit in excluded:
                continue
            pair_arcs = frozenset((i, j) for (i, j) in full_arcs if (i, j) in yvars)
            if not pair_arcs:
                continue
            evars[key] = model.add_var(
                0.0, min(sp.amount, -dp.amount, ship.capacity_dc),
                obj=empty_coef(ins, q, sp.visit, dp.visit),
            )
            empty_gate_arcs[key] = pair_arcs

    # an empty pair moves only if the ship leaves its surplus and enters its
    # deficit along arcs the pair can travel
    for key, var in sorted(evars.items()):
        _, src, dst = key
        _add_gates(model, yvars, var, empty_gate_arcs[key], src, {dst})

    # load-node capacity rows: everything picked up at k departs aboard
    load_nodes: dict[str, tuple[list[str], list[tuple[str, str, str]]]] = {}
    for mem in reachable_members:
        load_nodes.setdefault(mem.demand.origin, ([], []))[0].append(mem.key)
    for key in evars:
        load_nodes.setdefault(key[1], ([], []))[1].append(key)
    for k in sorted(load_nodes):
        dkeys, ekeys = load_nodes[k]
        outflow = {
            yvars[(a.src, a.dst)]: 1.0
            for a in ins.out_arcs[k]
            if a.dst != ins.sink and (a.src, a.dst) in yvars
        }
        total = {xvars[d]: 1.0 for d in dkeys}
        total.update({evars[e]: 1.0 for e in ekeys})
        for y, c in outflow.items():
            total[y] = -ship.capacity_dc
        model.add_constr(total, LE, 0.0)
        rf = {xvars[d]: 1.0 for d in dkeys if member_by_key[d].demand.cargo_type == "rf"}
        if rf:
            for y in outflow:
                rf[y] = -ship.capacity_rf
            model.add_constr(rf, LE, 0.0)

    # origin / destination gates per member
    for mem in reachable_members:
        _add_gates(model, yvars, xvars[mem.key], gate_arcs[mem.key], mem.demand.origin, mem.destinations)

    # shared availability for split families
    by_parent: dict[str, list[str]] = {}
    for mem in reachable_members:
        by_parent.setdefault(mem.demand.id, []).append(mem.key)
    split_parents = 0
    for parent, keys in sorted(by_parent.items()):
        if len(keys) > 1:
            split_parents += 1
            model.add_constr({xvars[k]: 1.0 for k in keys}, LE, ins.demand_by_id[parent].amount)

    # empty supply / deficit conservation
    by_src: dict[tuple[str, str], list] = {}
    by_dst: dict[tuple[str, str], list] = {}
    for (q, src, dst), var in evars.items():
        by_src.setdefault((q, src), []).append(var)
        by_dst.setdefault((q, dst), []).append(var)
    for p in surpluses:
        group = by_src.get((p.cargo_type, p.visit), [])
        if len(group) > 1:
            model.add_constr({v: 1.0 for v in group}, LE, p.amount)
    for p in deficits:
        group = by_dst.get((p.cargo_type, p.visit), [])
        if len(group) > 1:
            model.add_constr({v: 1.0 for v in group}, LE, -p.amount)

    return CompactModel(
        model=model,
        ship=ship,
        instance=instance,
        yvars=yvars,
        xvars=xvars,
        evars=evars,
        members=member_by_key,
        cut_rows=_capacity_cut_rows(reach, ship, member_by_key, pair_arcs_full, xvars, evars),
        split_parents=split_parents,
    )


def _capacity_cut_rows(
    reach: ReachIndex, ship: Ship, members: dict[str, Member], pair_arcs, xvars, evars
) -> dict[tuple[str, str], lp.Constraint]:
    """The capacity cut rows at each node some member or empty pair can
    depart loaded, by node, then scope ("dc": total, empties included; "rf":
    laden reefer only); a scope nothing can fill there gets no row.
    Membership ignores exclusions, so a carried cut stays valid when a
    pricing round sees the full graph again."""
    aboard: dict[str, list[tuple[int | None, str]]] = {}  # node -> (variable, cargo type)
    for key, mem in sorted(members.items()):
        for i in {i for i, _ in reach.carry_arc_set(mem.demand.origin, mem.destinations)}:
            aboard.setdefault(i, []).append((xvars.get(key), mem.demand.cargo_type))
    for key, arcs in sorted(pair_arcs.items()):
        for i in {i for i, _ in arcs}:
            aboard.setdefault(i, []).append((evars.get(key), "dc"))  # empties use no plugs
    rows = {}
    for node in sorted(n for n in aboard if reach.can_reach(ship.start_visit, n)):
        for scope, cap in (("dc", ship.capacity_dc), ("rf", ship.capacity_rf)):
            held = [var for var, q in aboard[node] if scope == "dc" or q == "rf"]
            if held:
                coeffs = {var: 1.0 for var in held if var is not None}
                rows[(node, scope)] = lp.Constraint(coeffs, LE, cap)
    return rows


def separate_cuts(ctx: CompactModel, x) -> list[tuple[str, str]]:
    """Keys of the capacity cuts the candidate violates by more than
    TOL_FEAS and the model does not carry yet, in ctx.cut_rows order."""
    return [
        key for key, row in ctx.cut_rows.items()
        if lp._violation(row, x) > lp.TOL_FEAS and key not in ctx.cuts
    ]


def add_violated_cuts(ctx: CompactModel, x) -> list[lp.Constraint]:
    """Separation callback of solve_mip: the rows of the cuts the candidate
    violates, whose keys join ctx.cuts as solve_mip appends the rows."""
    keys = separate_cuts(ctx, x)
    ctx.cuts.extend(keys)
    return [ctx.cut_rows[key] for key in keys]


def replay_column(ctx: CompactModel, x) -> tuple[tuple[str, ...], list[DemandFlow], list[EmptyFlow]]:
    """Path plus realized flows: members unload at the first visited member
    destination after their origin."""
    path = _trace_path(ctx.yvars, x, ctx.ship.start_visit, ctx.instance.sink)
    pos = {node: k for k, node in enumerate(path)}
    flows: dict[tuple[str, str], float] = {}
    for key, var in ctx.xvars.items():
        val = float(x[var])
        if val <= FLOW_EPS:
            continue
        mem = ctx.members[key]
        o = pos.get(mem.demand.origin)
        if o is None:
            raise RuntimeError(f"member {key} loaded off-path")
        stops = sorted(p for d in mem.destinations if (p := pos.get(d)) is not None and p > o)
        if not stops:
            raise RuntimeError(f"member {key} has no destination on path")
        dest = path[stops[0]]
        flows[(mem.demand.id, dest)] = flows.get((mem.demand.id, dest), 0.0) + val
    empty_flows = [
        EmptyFlow(q, ctx.ship.id, src, dst, float(x[var]))
        for (q, src, dst), var in sorted(ctx.evars.items())
        if x[var] > FLOW_EPS
    ]
    demand_flows = [
        DemandFlow(mid, ctx.ship.id, dest, amt) for (mid, dest), amt in sorted(flows.items())
    ]
    return path, demand_flows, empty_flows


# -- pricing engine -----------------------------------------------------------------


class CompactPricing(PricingEngine):
    """Pricing engine whose ship models keep their cuts across rounds."""

    method = "colgen-lazy"

    def __init__(self, instance: Instance):
        super().__init__(instance)
        self.contexts: dict[str, CompactModel] = {}  # ship -> its compact model, once built

    def build(self, ship: Ship) -> PricingModel:
        ctx = build_compact_pricing(self.instance, ship.id)
        self.contexts[ship.id] = ctx
        return PricingModel(ctx.model, ctx.yvars, self.instance, ship, partial(replay_column, ctx))

    def price(
        self, ship_id: str, node_price: dict[str, float], excluded: frozenset[str],
        deadline: float | None = None,
    ) -> tuple[Column | None, float]:
        """Best column for the ship (see PricingModel.price), with every
        integer candidate cut off while it violates a stored cut row."""
        priced = self.model(ship_id, excluded)
        if priced is None:
            return None, -math.inf
        on_candidate = partial(add_violated_cuts, self.contexts[ship_id])
        return priced.price(node_price, excluded, deadline, on_candidate)

    def fill_diagnostics(self, diag: Diagnostics) -> None:
        super().fill_diagnostics(diag)
        for sid, ctx in self.contexts.items():
            for scope, counts in (("dc", diag.cuts_dc), ("rf", diag.cuts_rf)):
                if n := sum(1 for _, s in ctx.cuts if s == scope):
                    counts[sid] = n
        diag.splits = sum(ctx.split_parents for ctx in self.contexts.values())


def run_colgen_lazy(instance: Instance, time_limit: float | None = None, log=None) -> Solution:
    """Column generation with the compact lazy-constraint pricing engine."""
    return run_column_generation(instance, time_limit, log, engine=CompactPricing)
