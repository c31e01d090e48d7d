"""Arc-flow MIP formulations over the LP kernel.

Two models: the reduced MIP (ship-aggregated cargo variables, optional
per-arc tightening rows) and the revised MIP (cargo variables carry a ship
index, giving a tighter relaxation).  Cargo may ride through one of its
destinations toward a later one; explicit absorption rows at destination
nodes (outflow <= inflow, revenue on the net amount absorbed) keep the
delivered total consistent with availability on every graph, so both
models agree with the path-replay semantics of the compact solver and the
oracle.

Neither arc-flow model covers empty-equipment flows; instances with empty
points are rejected here and handled by the compact lazy solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import lp
from .instance import Instance, ReachIndex, build_reach_index, ensure_valid
from .lp import EQ, GE, LE, LinearModel
from .solution import (
    INFEASIBLE,
    OPTIMAL,
    TIME_LIMIT,
    DemandFlow,
    Diagnostics,
    Solution,
)


class UnsupportedInstanceError(ValueError):
    pass


@dataclass
class ArcFlowVars:
    """Variable handles: y[(ship, i, j)]; x keyed (demand, i, j) for the
    reduced model or (ship, demand, i, j) for the revised one."""

    y: dict[tuple[str, str, str], int]
    x: dict[tuple, int]
    per_ship: bool


def delivery_coef(instance: Instance, demand_id: str, dest: str) -> float:
    """Profit per TEU delivered to dest: revenue minus on/off move costs."""
    m = instance.demand_by_id[demand_id]
    return m.revenue - instance.visit_by_id[m.origin].move_cost - instance.visit_by_id[dest].move_cost


def _reject_empties(instance: Instance) -> None:
    if instance.empty_points:
        raise UnsupportedInstanceError(
            "arc-flow formulations do not model empty equipment; "
            "use the colgen-lazy method for instances with empty points"
        )


def _ship_arcs(instance: Instance, reach: ReachIndex, ship) -> list:
    """Arcs a ship can ever sail: tail forward-reachable from its start."""
    return [a for a in instance.arcs if reach.can_reach(ship.start_visit, a.src)]


def _add_ship_routing(model: LinearModel, instance: Instance, reach: ReachIndex, yvars) -> None:
    """Rows (node-once, start, sink, per-ship conservation) shared by both models."""
    sink = instance.sink
    # each visit entered at most once, across all ships
    for v in instance.visits:
        coeffs = {}
        for s in instance.ships:
            for a in instance.in_arcs[v.id]:
                j = yvars.get((s.id, a.src, a.dst))
                if j is not None:
                    coeffs[j] = 1.0
        if coeffs:
            model.add_constr(coeffs, LE, 1.0, f"once[{v.id}]")
    # every ship leaves its start exactly once
    for s in instance.ships:
        coeffs = {
            yvars[(s.id, a.src, a.dst)]: 1.0
            for a in instance.out_arcs[s.start_visit]
            if (s.id, a.src, a.dst) in yvars
        }
        model.add_constr(coeffs, EQ, 1.0, f"start[{s.id}]")
    # all ships reach the sink
    coeffs = {}
    for s in instance.ships:
        for a in instance.in_arcs[sink]:
            j = yvars.get((s.id, a.src, a.dst))
            if j is not None:
                coeffs[j] = 1.0
    model.add_constr(coeffs, EQ, float(len(instance.ships)), "sink")
    # per-ship flow conservation away from start visits
    starts = {s.start_visit for s in instance.ships}
    for s in instance.ships:
        for v in instance.visits:
            if v.id in starts:
                continue
            coeffs = {}
            for a in instance.in_arcs[v.id]:
                j = yvars.get((s.id, a.src, a.dst))
                if j is not None:
                    coeffs[j] = coeffs.get(j, 0.0) + 1.0
            for a in instance.out_arcs[v.id]:
                j = yvars.get((s.id, a.src, a.dst))
                if j is not None:
                    coeffs[j] = coeffs.get(j, 0.0) - 1.0
            if coeffs:
                model.add_constr(coeffs, EQ, 0.0, f"cons[{s.id},{v.id}]")


def _make_y_vars(model: LinearModel, instance: Instance, reach: ReachIndex) -> dict:
    yvars = {}
    sink = instance.sink
    for s in instance.ships:
        for a in _ship_arcs(instance, reach, s):
            cost = a.cost_for(s.ship_type)
            fee = 0.0 if a.dst == sink else instance.visit_by_id[a.dst].port_fee
            yvars[(s.id, a.src, a.dst)] = model.add_var(
                0.0, 1.0, obj=-(cost + fee), integer=True, name=f"y[{s.id},{a.src},{a.dst}]"
            )
    return yvars


def _cargo_objective(instance: Instance, demand_id: str, i: str, j: str) -> float:
    """Net-absorption objective coefficient for cargo flow on arc (i, j)."""
    m = instance.demand_by_id[demand_id]
    coef = 0.0
    if j in m.destinations:
        coef += delivery_coef(instance, demand_id, j)
    if i in m.destinations:
        coef -= delivery_coef(instance, demand_id, i)
    return coef


def build_reduced(
    instance: Instance, reach: ReachIndex | None = None, tighten: bool = False
) -> tuple[LinearModel, ArcFlowVars]:
    """Reduced MIP: binary ship-arc variables plus ship-aggregated cargo
    flows; tighten=True adds the per-arc availability rows."""
    ensure_valid(instance)
    _reject_empties(instance)
    reach = reach or build_reach_index(instance)
    model = LinearModel("reduced" + ("-tight" if tighten else ""))
    yvars = _make_y_vars(model, instance, reach)

    # cargo variables only on arcs some ship can sail
    sailable = {(i, j) for (_, i, j) in yvars}
    xvars: dict[tuple, int] = {}
    for m in instance.demands:
        for (i, j) in sorted(reach.demand_arcs[m.id]):
            if (i, j) in sailable:
                xvars[(m.id, i, j)] = model.add_var(
                    0.0, m.amount, obj=_cargo_objective(instance, m.id, i, j),
                    name=f"x[{m.id},{i},{j}]",
                )

    _add_ship_routing(model, instance, reach, yvars)

    # joint arc capacities over all ships, reefer and total
    arcs_with_cargo = sorted({(i, j) for (_, i, j) in xvars})
    for (i, j) in arcs_with_cargo:
        rf = {}
        total = {}
        for m in instance.demands:
            v = xvars.get((m.id, i, j))
            if v is None:
                continue
            total[v] = 1.0
            if m.cargo_type == "rf":
                rf[v] = 1.0
        for s in instance.ships:
            yj = yvars.get((s.id, i, j))
            if yj is None:
                continue
            if rf:
                rf[yj] = -s.capacity_rf
            total[yj] = -s.capacity_dc
        if rf:
            model.add_constr(rf, LE, 0.0, f"cap_rf[{i},{j}]")
        model.add_constr(total, LE, 0.0, f"cap_dc[{i},{j}]")

    # availability gate at each origin
    for m in instance.demands:
        coeffs = {}
        for a in instance.out_arcs[m.origin]:
            v = xvars.get((m.id, a.src, a.dst))
            if v is not None:
                coeffs[v] = 1.0
            for s in instance.ships:
                yj = yvars.get((s.id, a.src, a.dst))
                if yj is not None:
                    coeffs[yj] = coeffs.get(yj, 0.0) - m.amount
        if coeffs:
            model.add_constr(coeffs, LE, 0.0, f"avail[{m.id}]")

    _add_cargo_conservation(model, instance, xvars, per_ship=False)

    if tighten:
        for (mid, i, j), v in xvars.items():
            coeffs = {v: 1.0}
            amount = instance.demand_by_id[mid].amount
            for s in instance.ships:
                yj = yvars.get((s.id, i, j))
                if yj is not None:
                    coeffs[yj] = -amount
            model.add_constr(coeffs, LE, 0.0, f"tight[{mid},{i},{j}]")

    return model, ArcFlowVars(yvars, xvars, per_ship=False)


def _add_cargo_conservation(model, instance, xvars, per_ship: bool) -> None:
    """Flow conservation at intermediate nodes; absorption at destinations."""
    by_commodity: dict[tuple, dict[str, tuple[list, list]]] = {}
    for key, var in xvars.items():
        if per_ship:
            sid, mid, i, j = key
            ck = (sid, mid)
        else:
            mid, i, j = key
            ck = (mid,)
        nodes = by_commodity.setdefault(ck, {})
        nodes.setdefault(i, ([], []))[1].append(var)  # outflow at i
        nodes.setdefault(j, ([], []))[0].append(var)  # inflow at j
    for ck, nodes in sorted(by_commodity.items()):
        mid = ck[-1]
        m = instance.demand_by_id[mid]
        tag = ",".join(ck)
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
                model.add_constr(coeffs, GE, 0.0, f"absorb[{tag},{node}]")
            else:
                model.add_constr(coeffs, EQ, 0.0, f"flow[{tag},{node}]")


def build_revised(
    instance: Instance, reach: ReachIndex | None = None
) -> tuple[LinearModel, ArcFlowVars]:
    """Revised MIP: cargo variables disaggregated per ship, with per-ship
    capacities and the min(amount, capacity) linking rows."""
    ensure_valid(instance)
    _reject_empties(instance)
    reach = reach or build_reach_index(instance)
    model = LinearModel("revised")
    yvars = _make_y_vars(model, instance, reach)

    xvars: dict[tuple, int] = {}
    for s in instance.ships:
        for mid in sorted(reach.movable[s.id]):
            m = instance.demand_by_id[mid]
            cap = s.capacity_rf if m.cargo_type == "rf" else s.capacity_dc
            for (i, j) in sorted(reach.demand_arcs[mid]):
                if (s.id, i, j) in yvars:
                    xvars[(s.id, mid, i, j)] = model.add_var(
                        0.0, min(m.amount, cap),
                        obj=_cargo_objective(instance, mid, i, j),
                        name=f"x[{s.id},{mid},{i},{j}]",
                    )

    _add_ship_routing(model, instance, reach, yvars)

    # per-ship arc capacities
    arcs_by_ship: dict[str, set[tuple[str, str]]] = {}
    for (sid, mid, i, j) in xvars:
        arcs_by_ship.setdefault(sid, set()).add((i, j))
    for s in instance.ships:
        for (i, j) in sorted(arcs_by_ship.get(s.id, ())):
            yj = yvars[(s.id, i, j)]
            rf = {}
            total = {}
            for m in instance.demands:
                v = xvars.get((s.id, m.id, i, j))
                if v is None:
                    continue
                total[v] = 1.0
                if m.cargo_type == "rf":
                    rf[v] = 1.0
            if rf:
                rf[yj] = -s.capacity_rf
                model.add_constr(rf, LE, 0.0, f"cap_rf[{s.id},{i},{j}]")
            total[yj] = -s.capacity_dc
            model.add_constr(total, LE, 0.0, f"cap_dc[{s.id},{i},{j}]")

    # per-ship availability gates
    for s in instance.ships:
        for mid in sorted(reach.movable[s.id]):
            m = instance.demand_by_id[mid]
            coeffs = {}
            for a in instance.out_arcs[m.origin]:
                v = xvars.get((s.id, mid, a.src, a.dst))
                if v is not None:
                    coeffs[v] = 1.0
                yj = yvars.get((s.id, a.src, a.dst))
                if yj is not None:
                    coeffs[yj] = coeffs.get(yj, 0.0) - m.amount
            if coeffs:
                model.add_constr(coeffs, LE, 0.0, f"avail[{s.id},{mid}]")

    _add_cargo_conservation(model, instance, xvars, per_ship=True)

    # disaggregated link: no more cargo than available or loadable per ship
    for (sid, mid, i, j), v in xvars.items():
        s = instance.ship_by_id[sid]
        m = instance.demand_by_id[mid]
        cap = s.capacity_rf if m.cargo_type == "rf" else s.capacity_dc
        model.add_constr(
            {v: 1.0, yvars[(sid, i, j)]: -min(m.amount, cap)}, LE, 0.0,
            f"link[{sid},{mid},{i},{j}]",
        )

    return model, ArcFlowVars(yvars, xvars, per_ship=True)


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
    """Turn an integer solution vector into paths and per-destination flows."""
    sol = Solution(method=method, status=OPTIMAL)
    for s in instance.ships:
        yvars = {(i, j): v for (sid, i, j), v in vars_.y.items() if sid == s.id}
        sol.ship_paths[s.id] = _trace_path(yvars, x, s.start_visit, instance.sink)

    visit_owner = {}
    for sid, path in sol.ship_paths.items():
        for node in path[:-1]:
            visit_owner[node] = sid

    # net absorption per (commodity, destination)
    delivered: dict[tuple, float] = {}
    for key, var in vars_.x.items():
        val = float(x[var])
        if abs(val) < 1e-5:
            continue
        if vars_.per_ship:
            sid, mid, i, j = key
        else:
            mid, i, j = key
            sid = None
        m = instance.demand_by_id[mid]
        if j in m.destinations:
            owner = sid or visit_owner.get(j)
            delivered[(mid, owner, j)] = delivered.get((mid, owner, j), 0.0) + val
        if i in m.destinations:
            owner = sid or visit_owner.get(i)
            delivered[(mid, owner, i)] = delivered.get((mid, owner, i), 0.0) - val
    for (mid, sid, dest), amount in sorted(delivered.items()):
        if amount > 1e-5:
            sol.demand_flows.append(DemandFlow(mid, sid, dest, amount))
    return sol


def evaluate_objective(instance: Instance, solution: Solution) -> float:
    """Recompute the objective from raw instance data, independent of any
    model: delivery profits minus sail costs and port fees."""
    total = 0.0
    positions: dict[str, dict[str, int]] = {}
    for sid, path in solution.ship_paths.items():
        ship = instance.ship_by_id[sid]
        for i in range(len(path) - 1):
            if (path[i], path[i + 1]) not in instance.arc_by_pair:
                raise ValueError(f"ship {sid}: arc {path[i]}->{path[i + 1]} not in graph")
        total -= instance.path_cost(ship, path)
        positions[sid] = {node: k for k, node in enumerate(path)}

    for f in solution.demand_flows:
        if f.amount < -1e-9:
            raise ValueError(f"negative flow for demand {f.demand}")
        m = instance.demand_by_id[f.demand]
        pos = positions.get(f.ship)
        if pos is None or m.origin not in pos or f.destination not in pos:
            raise ValueError(
                f"flow for demand {f.demand} rides ship {f.ship} which does not "
                f"visit {m.origin} and {f.destination}"
            )
        if pos[m.origin] >= pos[f.destination]:
            raise ValueError(f"flow for demand {f.demand} travels backwards")
        total += f.amount * delivery_coef(instance, f.demand, f.destination)

    for f in solution.empty_flows:
        if f.amount < -1e-9:
            raise ValueError("negative empty flow")
        pos = positions.get(f.ship)
        if pos is None or f.src not in pos or f.dst not in pos or pos[f.src] >= pos[f.dst]:
            raise ValueError(f"empty flow {f.src}->{f.dst} not supported by ship {f.ship}")
        total += f.amount * (
            instance.empty_revenue[f.cargo_type]
            - instance.visit_by_id[f.src].move_cost
            - instance.visit_by_id[f.dst].move_cost
        )
    return total


# -- solve drivers ----------------------------------------------------------------


def solve_arcflow(instance: Instance, method: str, time_limit: float | None = None) -> Solution:
    """Solve via one of the arc-flow MIPs: reduced, reduced-tight, revised."""
    t0 = time.monotonic()
    reach = build_reach_index(instance)
    if method == "reduced":
        model, vars_ = build_reduced(instance, reach, tighten=False)
    elif method == "reduced-tight":
        model, vars_ = build_reduced(instance, reach, tighten=True)
    elif method == "revised":
        model, vars_ = build_revised(instance, reach)
    else:
        raise ValueError(f"unknown arc-flow method {method!r}")

    mip = lp.solve_mip(model, time_limit=time_limit)
    rows, cols, nnz = model.size_triple()
    diag = Diagnostics(bnb_nodes=mip.nodes, model_rows=rows, model_cols=cols, model_nonzeros=nnz)

    if mip.status == lp.INFEASIBLE:
        sol = Solution(method=method, status=INFEASIBLE, diagnostics=diag)
    elif mip.x is None:  # timed out before any incumbent
        sol = Solution(method=method, status=TIME_LIMIT, bound=mip.bound, diagnostics=diag)
    else:
        sol = extract_solution(instance, vars_, mip.x, method)
        sol.objective = mip.objective
        sol.bound = mip.bound
        sol.status = OPTIMAL if mip.status == lp.OPTIMAL else TIME_LIMIT
        sol.diagnostics = diag
    diag.wall_time_sec = time.monotonic() - t0
    return sol


def relaxation_value(instance: Instance, method: str) -> float:
    """Optimal value of the LP relaxation of the chosen arc-flow model."""
    reach = build_reach_index(instance)
    if method == "reduced":
        model, _ = build_reduced(instance, reach)
    elif method == "reduced-tight":
        model, _ = build_reduced(instance, reach, tighten=True)
    elif method == "revised":
        model, _ = build_revised(instance, reach)
    else:
        raise ValueError(f"unknown arc-flow method {method!r}")
    sol = lp.solve_lp(model)
    if sol.status != lp.OPTIMAL:
        raise RuntimeError(f"relaxation of {method} is {sol.status}")
    return sol.objective
