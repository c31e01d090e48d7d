"""Arc-flow MIP formulations over the LP kernel.

Two models: the reduced MIP (cargo variables pooled over the ships,
optional link rows) and the revised MIP (cargo variables carry a ship
index, giving a tighter relaxation).  Cargo may ride through one of its
destinations toward a later one; explicit absorption rows at destination
nodes (outflow <= inflow, revenue on the net amount absorbed) keep the
delivered total consistent with availability on every graph, so both
models agree with the path-replay semantics of the compact solver and the
oracle.

Every part of a model is built here, once: ``add_ship_arcs`` makes a
ship's arc variables (with optional node prices and excluded visits),
``add_path_rows`` its start, sink and conservation rows, and ``add_cargo``
the one cargo block.  The cargo block works over carriers, sets of ships
that share cargo variables: the revised MIP gives each ship its own
carrier, the reduced MIP pools every ship in one, and the two differ in
nothing else.  The link rows x <= ub(x) * (sum of the carrier's arc
variables) are always part of the revised block and are the rows that
reduced-tight adds to reduced.  Arc-flow pricing in column generation
solves ``build_ship_revised``, the revised model of one ship without the
node-once rows, and the compact pricing model of lsfrp.lazy shares its arc
variables and path rows.

Neither arc-flow model covers empty-equipment flows; instances with empty
points are rejected here and handled by the compact lazy solver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import lp
from .instance import Instance, build_reach_index
from .lp import EQ, GE, LE, LinearModel
from .solution import NO_DISJOINT_ROUTING, OPTIMAL, DemandFlow, Diagnostics, Solution


# flows below this are treated as solver noise, far under any real TEU amount
FLOW_EPS = 1e-5


class UnsupportedInstanceError(ValueError):
    pass


@dataclass
class ArcFlowVars:
    """Variable handles: y[ship][(i, j)] for the ships the model routes; x
    keyed (demand, i, j) for the reduced model or (ship, demand, i, j) for
    the revised one."""

    y: dict[str, dict[tuple[str, str], int]]
    x: dict[tuple, int]


def delivery_coef(instance: Instance, demand_id: str, dest: str) -> float:
    """Profit per TEU delivered to dest: revenue minus on/off move costs."""
    m = instance.demand_by_id[demand_id]
    return m.revenue - instance.visit_by_id[m.origin].move_cost - instance.visit_by_id[dest].move_cost


def empty_coef(instance: Instance, q: str, src: str, dst: str) -> float:
    """Profit per TEU of empty equipment of type q moved from src to dst:
    the empty revenue minus on/off move costs."""
    return (
        instance.empty_revenue[q]
        - instance.visit_by_id[src].move_cost
        - instance.visit_by_id[dst].move_cost
    )


def _reject_empties(instance: Instance) -> None:
    if instance.empty_points:
        raise UnsupportedInstanceError(
            "arc-flow formulations do not model empty equipment; "
            "use the colgen-lazy method for instances with empty points"
        )


def _cargo_objective(instance: Instance, demand_id: str, i: str, j: str) -> float:
    """Net-absorption objective coefficient for cargo flow on arc (i, j)."""
    m = instance.demand_by_id[demand_id]
    coef = 0.0
    if j in m.destinations:
        coef += delivery_coef(instance, demand_id, j)
    if i in m.destinations:
        coef -= delivery_coef(instance, demand_id, i)
    return coef


# -- per-ship builders ------------------------------------------------------------


def add_ship_arcs(
    model: LinearModel,
    instance: Instance,
    ship,
    node_price: dict[str, float] | None = None,
    excluded: frozenset[str] = frozenset(),
) -> dict[tuple[str, str], int]:
    """A ship's binary arc variables y[(i, j)]: every arc whose tail the ship
    can reach from its start, less those touching an excluded visit.  Each
    costs its sail cost, the port fee of its head and the head's node price."""
    reach = build_reach_index(instance)
    node_price = node_price or {}
    sink = instance.sink
    yvars = {}
    for a in instance.arcs:
        if not reach.can_reach(ship.start_visit, a.src):
            continue
        if a.src in excluded or a.dst in excluded:
            continue
        cost = a.cost_for(ship.ship_type)
        fee = 0.0 if a.dst == sink else instance.visit_by_id[a.dst].port_fee
        price = 0.0 if a.dst == sink else node_price.get(a.dst, 0.0)
        yvars[(a.src, a.dst)] = model.add_var(0.0, 1.0, obj=-(cost + fee + price), integer=True)
    return yvars


def leaves_start(instance: Instance, ship, yvars: dict[tuple[str, str], int]) -> bool:
    """Whether some arc variable of the ship leaves its start visit."""
    return any((a.src, a.dst) in yvars for a in instance.out_arcs[ship.start_visit])


def add_path_rows(model: LinearModel, instance: Instance, yvars: dict[str, dict]) -> None:
    """Path rows of the ships in yvars: each leaves its start exactly once,
    all of them reach the sink, and each conserves flow at every visit
    other than their starts."""
    ships = [instance.ship_by_id[sid] for sid in yvars]
    for s in ships:
        ys = yvars[s.id]
        coeffs = {
            ys[(a.src, a.dst)]: 1.0 for a in instance.out_arcs[s.start_visit] if (a.src, a.dst) in ys
        }
        model.add_constr(coeffs, EQ, 1.0)
    coeffs = {}
    for ys in yvars.values():
        for a in instance.in_arcs[instance.sink]:
            j = ys.get((a.src, a.dst))
            if j is not None:
                coeffs[j] = 1.0
    model.add_constr(coeffs, EQ, float(len(ships)))
    starts = {s.start_visit for s in ships}
    for s in ships:
        ys = yvars[s.id]
        for v in instance.visits:
            if v.id in starts:
                continue
            coeffs = {}
            for a in instance.in_arcs[v.id]:
                j = ys.get((a.src, a.dst))
                if j is not None:
                    coeffs[j] = coeffs.get(j, 0.0) + 1.0
            for a in instance.out_arcs[v.id]:
                j = ys.get((a.src, a.dst))
                if j is not None:
                    coeffs[j] = coeffs.get(j, 0.0) - 1.0
            if coeffs:
                model.add_constr(coeffs, EQ, 0.0)


def add_cargo(
    model: LinearModel,
    instance: Instance,
    yvars: dict[str, dict],
    pooled: bool = False,
    link: bool = True,
) -> dict[tuple, int]:
    """Cargo block of the ships in yvars, over carriers: sets of ships that
    share cargo variables.  Each ship is its own carrier, with flows
    x[(ship, demand, i, j)] of its movable demands bounded by min(amount,
    capacity); pooled=True puts every ship in one carrier, with flows
    x[(demand, i, j)] of every demand bounded by the amount.  A flow lies on
    each arc of the demand that some ship of its carrier can sail.  Each
    carrier gets per-arc reefer and total capacity rows against its ships'
    capacities and an availability gate at each origin; then come the
    flow/absorption rows and, with link=True, the link rows
    x <= ub(x) * (sum over the carrier's ships of their arc variable)."""
    reach = build_reach_index(instance)
    if pooled:
        carriers = [((), list(yvars), sorted(instance.demand_by_id))]
    else:
        carriers = [((sid,), [sid], sorted(reach.movable[sid])) for sid in yvars]

    def sailing(sids, i, j):
        """(ship, arc variable) for each of the ships that can sail (i, j)."""
        return [(instance.ship_by_id[sid], yvars[sid][(i, j)]) for sid in sids if (i, j) in yvars[sid]]

    xvars: dict[tuple, int] = {}
    carried: list[list[tuple]] = []  # per carrier, its flows' keys in variable order
    for prefix, sids, demands in carriers:
        keys = []
        for mid in demands:
            m = instance.demand_by_id[mid]
            ub = m.amount
            if not pooled:
                s = instance.ship_by_id[sids[0]]
                ub = min(ub, s.capacity_rf if m.cargo_type == "rf" else s.capacity_dc)
            for (i, j) in sorted(reach.demand_arcs[mid]):
                if any((i, j) in yvars[sid] for sid in sids):
                    key = prefix + (mid, i, j)
                    keys.append(key)
                    xvars[key] = model.add_var(0.0, ub, obj=_cargo_objective(instance, mid, i, j))
        carried.append(keys)

    # per-arc capacities, reefer and total
    for (_, sids, _), keys in zip(carriers, carried):
        loads: dict[tuple[str, str], list[tuple]] = {}
        for key in keys:
            loads.setdefault(key[-2:], []).append(key)
        for (i, j), on_arc in sorted(loads.items()):
            ships = sailing(sids, i, j)
            rf = {xvars[k]: 1.0 for k in on_arc if instance.demand_by_id[k[-3]].cargo_type == "rf"}
            if rf:
                rf.update({y: -s.capacity_rf for s, y in ships})
                model.add_constr(rf, LE, 0.0)
            total = {xvars[k]: 1.0 for k in on_arc}
            total.update({y: -s.capacity_dc for s, y in ships})
            model.add_constr(total, LE, 0.0)

    # availability gate at each origin
    for prefix, sids, demands in carriers:
        for mid in demands:
            m = instance.demand_by_id[mid]
            coeffs = {}
            for a in instance.out_arcs[m.origin]:
                v = xvars.get(prefix + (mid, a.src, a.dst))
                if v is not None:
                    coeffs[v] = 1.0
                coeffs.update({y: -m.amount for _, y in sailing(sids, a.src, a.dst)})
            if coeffs:
                model.add_constr(coeffs, LE, 0.0)

    _add_cargo_conservation(model, instance, xvars)

    # link: no flow on an arc its carrier does not sail, and at most ub(x)
    if link:
        for (_, sids, _), keys in zip(carriers, carried):
            for key in keys:
                v = xvars[key]
                coeffs = {v: 1.0}
                coeffs.update({y: -model.ub[v] for _, y in sailing(sids, *key[-2:])})
                model.add_constr(coeffs, LE, 0.0)
    return xvars


def _add_cargo_conservation(model, instance, xvars) -> None:
    """Flow conservation at intermediate nodes; absorption at destinations.
    A commodity is a key less its arc: (demand,) or (ship, demand)."""
    by_commodity: dict[tuple, dict[str, tuple[list, list]]] = {}
    for key, var in xvars.items():
        *ck, i, j = key
        nodes = by_commodity.setdefault(tuple(ck), {})
        nodes.setdefault(i, ([], []))[1].append(var)  # outflow at i
        nodes.setdefault(j, ([], []))[0].append(var)  # inflow at j
    for ck, nodes in sorted(by_commodity.items()):
        m = instance.demand_by_id[ck[-1]]
        for node, (inflow, outflow) in sorted(nodes.items()):
            if node == m.origin:
                continue
            coeffs: dict[int, float] = {}
            for v in inflow:
                coeffs[v] = coeffs.get(v, 0.0) + 1.0
            for v in outflow:
                coeffs[v] = coeffs.get(v, 0.0) - 1.0
            if not coeffs:
                continue
            if node in m.destinations:
                # cargo may ride through, but a destination never creates flow
                model.add_constr(coeffs, GE, 0.0)
            else:
                model.add_constr(coeffs, EQ, 0.0)


def _add_node_once_rows(model: LinearModel, instance: Instance, yvars: dict[str, dict]) -> None:
    """Each visit entered at most once, across all ships."""
    for v in instance.visits:
        coeffs = {}
        for ys in yvars.values():
            for a in instance.in_arcs[v.id]:
                j = ys.get((a.src, a.dst))
                if j is not None:
                    coeffs[j] = 1.0
        if coeffs:
            model.add_constr(coeffs, LE, 1.0)


# -- the models -------------------------------------------------------------------


def build_reduced(instance: Instance, tighten: bool = False) -> tuple[LinearModel, ArcFlowVars]:
    """Reduced MIP: node-once rows, then every ship's path rows and one
    cargo block with every ship pooled; tighten=True adds its link rows."""
    build_reach_index(instance)  # validates the instance
    _reject_empties(instance)
    model = LinearModel("reduced" + ("-tight" if tighten else ""))
    yvars = {s.id: add_ship_arcs(model, instance, s) for s in instance.ships}
    _add_node_once_rows(model, instance, yvars)
    add_path_rows(model, instance, yvars)
    xvars = add_cargo(model, instance, yvars, pooled=True, link=tighten)
    return model, ArcFlowVars(yvars, xvars)


def build_revised(instance: Instance) -> tuple[LinearModel, ArcFlowVars]:
    """Revised MIP: node-once rows, then every ship's path rows and cargo
    block, with cargo variables disaggregated per ship."""
    build_reach_index(instance)  # validates the instance
    _reject_empties(instance)
    model = LinearModel("revised")
    yvars = {s.id: add_ship_arcs(model, instance, s) for s in instance.ships}
    _add_node_once_rows(model, instance, yvars)
    add_path_rows(model, instance, yvars)
    xvars = add_cargo(model, instance, yvars)
    return model, ArcFlowVars(yvars, xvars)


def build_ship_revised(
    instance: Instance,
    ship,
    node_price: dict[str, float] | None = None,
    excluded: frozenset[str] = frozenset(),
) -> tuple[LinearModel, ArcFlowVars] | None:
    """The revised model of one ship without the node-once rows: the
    arc-flow pricing model.  None when no arc leaves the ship's start."""
    model = LinearModel(f"price[{ship.id}]")
    yvars = {ship.id: add_ship_arcs(model, instance, ship, node_price, excluded)}
    if not leaves_start(instance, ship, yvars[ship.id]):
        return None
    add_path_rows(model, instance, yvars)
    xvars = add_cargo(model, instance, yvars)
    return model, ArcFlowVars(yvars, xvars)


def build_arcflow(instance: Instance, method: str) -> tuple[LinearModel, ArcFlowVars]:
    """The arc-flow MIP a method names: reduced, reduced-tight or revised."""
    if method in ("reduced", "reduced-tight"):
        return build_reduced(instance, tighten=method == "reduced-tight")
    if method == "revised":
        return build_revised(instance)
    raise ValueError(f"unknown arc-flow method {method!r}")


# -- extraction and evaluation ----------------------------------------------------


def _trace_path(
    yvars: dict[tuple[str, str], int], x, start: str, sink: str
) -> tuple[str, ...]:
    """One ship's path: follow its used arcs (y above 1/2) from start to sink."""
    heads = {i: j for (i, j), k in yvars.items() if x[k] > 0.5}
    path = [start]
    while path[-1] != sink:
        nxt = heads.get(path[-1])
        if nxt is None:
            raise RuntimeError(f"ship path breaks at {path[-1]!r}")
        path.append(nxt)
        if len(path) > len(heads) + 1:
            raise RuntimeError("ship path does not terminate")
    return tuple(path)


def extract_solution(
    instance: Instance,
    vars_: ArcFlowVars,
    x: "list[float]",
    method: str,
) -> Solution:
    """Turn an integer solution vector into paths and per-destination flows,
    for the ships whose arc variables vars_ holds."""
    sol = Solution(method=method, status=OPTIMAL)
    for sid, yvars in vars_.y.items():
        start = instance.ship_by_id[sid].start_visit
        sol.ship_paths[sid] = _trace_path(yvars, x, start, instance.sink)

    visit_owner = {}
    for sid, path in sol.ship_paths.items():
        for node in path[:-1]:
            visit_owner[node] = sid

    # net absorption per (commodity, destination)
    delivered: dict[tuple, float] = {}
    for key, var in vars_.x.items():
        val = float(x[var])
        if abs(val) < FLOW_EPS:
            continue
        *ship, mid, i, j = key
        sid = ship[0] if ship else None
        m = instance.demand_by_id[mid]
        if j in m.destinations:
            owner = sid or visit_owner.get(j)
            delivered[(mid, owner, j)] = delivered.get((mid, owner, j), 0.0) + val
        if i in m.destinations:
            owner = sid or visit_owner.get(i)
            delivered[(mid, owner, i)] = delivered.get((mid, owner, i), 0.0) - val
    for (mid, sid, dest), amount in sorted(delivered.items()):
        if amount > FLOW_EPS:
            sol.demand_flows.append(DemandFlow(mid, sid, dest, amount))
    return sol


def evaluate_objective(instance: Instance, solution: Solution) -> float:
    """Check a plan against the instance and recompute its objective from
    raw instance data, independent of any model: delivery and empty
    profits minus sail costs and port fees.  One pass replays each path
    with the flows aboard it; a ValueError names the first fault of:

    - a path of an unknown ship, one not from its ship's start to the
      sink, or a hop that is no arc;
    - a visit on two ships' paths (the shared sink is no visit);
    - a flow of an unknown demand or cargo type, or a negative one;
    - a demand flow delivered to no destination of its demand, or an
      empty flow not from a surplus to a deficit of its own type;
    - a flow whose ship does not call at its two ends in order;
    - a leg whose total load, empties included, or laden reefer load
      exceeds the ship's capacity by more than lp.TOL_FEAS;
    - flows moving more than a demand's amount, a surplus or a deficit,
      beyond lp.TOL_FEAS relative to it."""
    total = 0.0
    # ship -> its path's positions and each leg's [total, laden reefer] load
    legs: dict[str, tuple[dict[str, int], list[list[float]]]] = {}
    owner: dict[str, str] = {}  # visit -> the ship whose path calls there
    for sid, path in solution.ship_paths.items():
        ship = instance.ship_by_id.get(sid)
        if ship is None:
            raise ValueError(f"path for unknown ship {sid}")
        if not path or path[0] != ship.start_visit or path[-1] != instance.sink:
            raise ValueError(f"ship {sid}: path {'-'.join(path)} does not run from its start to the sink")
        try:
            total -= instance.path_cost(ship, path)
        except KeyError as hop:
            raise ValueError(f"ship {sid}: arc {'->'.join(hop.args[0])} not in graph") from None
        for node in path[:-1]:
            if owner.setdefault(node, sid) != sid:
                raise ValueError(f"visit {node} lies on the paths of ships {owner[node]} and {sid}")
        legs[sid] = ({node: k for k, node in enumerate(path)}, [[0.0, 0.0] for _ in path[1:]])

    def ride(what: str, sid: str, src: str, dst: str, amount: float, reefer: bool) -> None:
        pos, loads = legs.get(sid, ({}, []))
        if amount < -1e-9:
            raise ValueError(f"{what} is negative")
        if src not in pos or dst not in pos or pos[src] >= pos[dst]:
            raise ValueError(f"{what} does not ride ship {sid} from {src} to {dst}")
        for load in loads[pos[src]:pos[dst]]:
            load[0] += amount
            if reefer:
                load[1] += amount

    moved: dict[str, list[float]] = {}  # demand or empty point -> [amount moved, amount held]
    for f in solution.demand_flows:
        m = instance.demand_by_id.get(f.demand)
        if m is None:
            raise ValueError(f"flow for unknown demand {f.demand}")
        if f.destination not in m.destinations:
            raise ValueError(f"flow for demand {m.id} is delivered to {f.destination}, not a destination")
        ride(f"flow for demand {m.id}", f.ship, m.origin, f.destination, f.amount, m.cargo_type == "rf")
        moved.setdefault(f"demand {m.id}", [0.0, m.amount])[0] += f.amount
        total += f.amount * delivery_coef(instance, m.id, f.destination)
    points = {(p.visit, p.cargo_type): p.amount for p in instance.empty_points}
    for f in solution.empty_flows:
        q = f.cargo_type
        if q not in instance.empty_revenue:
            raise ValueError(f"empty flow of unknown cargo type {q}")
        if points.get((f.src, q), 0.0) <= 0 or points.get((f.dst, q), 0.0) >= 0:
            raise ValueError(f"empty flow {f.src}->{f.dst} does not run from a {q} surplus to a deficit")
        ride(f"empty flow {f.src}->{f.dst}", f.ship, f.src, f.dst, f.amount, False)  # empties use no plugs
        for visit in (f.src, f.dst):
            moved.setdefault(f"{q} empty point {visit}", [0.0, abs(points[(visit, q)])])[0] += f.amount
        total += f.amount * empty_coef(instance, q, f.src, f.dst)

    for sid, (_, loads) in legs.items():
        ship, path = instance.ship_by_id[sid], solution.ship_paths[sid]
        for leg, pair in enumerate(loads):
            for kind, load, cap in zip(("total", "reefer"), pair, (ship.capacity_dc, ship.capacity_rf)):
                if load > cap + lp.TOL_FEAS:
                    hop = f"{path[leg]}->{path[leg + 1]}"
                    raise ValueError(f"ship {sid}: {kind} load {load:.3f} > {cap} on {hop}")
    for what, (amount, held) in moved.items():
        if amount > held + lp.TOL_FEAS * (1 + held):
            raise ValueError(f"flows move {amount:g} TEU of {what}, more than its {held:g}")
    return total


# -- solve drivers ----------------------------------------------------------------


def search_outcome(found: lp.MipSolution) -> tuple[str, float | None, float | None]:
    """A best-bound search's status, objective and bound as a Solution
    states them: a search that ends with no point at all found no disjoint
    routing, a search without an incumbent has no objective, and a bound
    that is not finite is none."""
    status = NO_DISJOINT_ROUTING if found.status == lp.INFEASIBLE else found.status
    objective = None if found.x is None else found.objective
    return status, objective, found.bound if math.isfinite(found.bound) else None


def solve_arcflow(instance: Instance, method: str, time_limit: float | None = None) -> Solution:
    """Solve via one of the arc-flow MIPs: reduced, reduced-tight, revised."""
    deadline = None if time_limit is None else time.monotonic() + time_limit
    model, vars_ = build_arcflow(instance, method)
    mip = lp.solve_mip(model, deadline=deadline)
    sol = Solution(method, OPTIMAL) if mip.x is None else extract_solution(instance, vars_, mip.x, method)
    sol.status, sol.objective, sol.bound = search_outcome(mip)
    rows, cols, nnz = model.size_triple()
    sol.diagnostics = Diagnostics(bnb_nodes=mip.nodes, model_rows=rows, model_cols=cols, model_nonzeros=nnz)
    return sol
