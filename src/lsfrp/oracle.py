"""Brute-force reference solver.

Enumerates every node-disjoint assignment of start->sink paths to ships and
prices each ship's cargo on its fixed path with a small LP built straight
from raw instance data (no formulation code reused beyond the LP kernel).
Desk-scale only: refuses when the path-count product exceeds the budget.
"""

from __future__ import annotations

from typing import Iterator

from . import lp
from .instance import Instance, build_reach_index, enumerate_paths, path_count
from .lp import LE, LinearModel
from .solution import NO_DISJOINT_ROUTING, OPTIMAL, DemandFlow, Diagnostics, EmptyFlow, Solution

DEFAULT_BUDGET = 10**6


class OracleBudgetError(RuntimeError):
    """Assignment space too large for exhaustive enumeration."""


def _node_mask(path: tuple[str, ...], index: dict[str, int]) -> int:
    mask = 0
    for node in path[:-1]:  # sink shared by all ships
        mask |= 1 << index[node]
    return mask


def enumerate_disjoint_paths(
    instance: Instance, budget: int = DEFAULT_BUDGET
) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Yield every pairwise node-disjoint path assignment, one start->sink
    path per ship in ship order, lexicographic by ship index then path
    enumeration order."""
    build_reach_index(instance)  # validates the instance, once per instance
    product = 1
    for s in instance.ships:
        product *= max(path_count(instance, s.id), 1)
        if product > budget:
            raise OracleBudgetError(
                f"path assignment space exceeds budget ({product} > {budget})"
            )
    index = {v.id: k for k, v in enumerate(instance.visits)}
    per_ship = [enumerate_paths(instance, s.start_visit) for s in instance.ships]
    masks = [[_node_mask(p, index) for p in paths] for paths in per_ship]

    def rec(k: int, used: int, acc: list[tuple[str, ...]]):
        if k == len(per_ship):
            yield tuple(acc)
            return
        for p, m in zip(per_ship[k], masks[k]):
            if used & m:
                continue
            acc.append(p)
            yield from rec(k + 1, used | m, acc)
            acc.pop()

    yield from rec(0, 0, [])


def _cargo_lp(instance: Instance, ship, path: tuple[str, ...]):
    """Optimal cargo plan for one ship on a fixed path.

    One delivery variable per (demand, visited destination) and per
    (surplus, deficit) empty pair on the path; cargo occupies the ship from
    its pickup to its drop position.
    """
    pos = {node: k for k, node in enumerate(path)}
    model = LinearModel("cargo")
    dvars: list[tuple[str, str, int, int, int, str]] = []  # demand, dest, load, drop, var, type
    for m in instance.demands:
        if m.origin not in pos:
            continue
        o = pos[m.origin]
        cap = ship.capacity_rf if m.cargo_type == "rf" else ship.capacity_dc
        stops = sorted((pos[d] for d in m.destinations if d in pos and pos[d] > o))
        for p in stops:
            dest = path[p]
            coef = m.revenue - instance.visit_by_id[m.origin].move_cost - instance.visit_by_id[dest].move_cost
            v = model.add_var(0.0, min(m.amount, cap), obj=coef)
            dvars.append((m.id, dest, o, p, v, m.cargo_type))
        if len(stops) > 1:  # a single variable's upper bound already caps availability
            model.add_constr({v: 1.0 for (_, _, _, _, v, _) in dvars[-len(stops):]}, LE, m.amount)

    evars: list[tuple[str, str, str, int, int, int]] = []  # type, src, dst, load, drop, var
    surpluses = [p for p in instance.empty_points if p.amount > 0 and p.visit in pos]
    deficits = [p for p in instance.empty_points if p.amount < 0 and p.visit in pos]
    for sp in surpluses:
        for dp in deficits:
            if dp.cargo_type != sp.cargo_type or pos[dp.visit] <= pos[sp.visit]:
                continue
            q = sp.cargo_type
            coef = (
                instance.empty_revenue[q]
                - instance.visit_by_id[sp.visit].move_cost
                - instance.visit_by_id[dp.visit].move_cost
            )
            v = model.add_var(0.0, min(sp.amount, -dp.amount, ship.capacity_dc), obj=coef)
            evars.append((q, sp.visit, dp.visit, pos[sp.visit], pos[dp.visit], v))
    for sp in surpluses:
        group = [v for (q, src, _, _, _, v) in evars if src == sp.visit and q == sp.cargo_type]
        if len(group) > 1:
            model.add_constr({v: 1.0 for v in group}, LE, sp.amount)
    for dp in deficits:
        group = [v for (q, _, dst, _, _, v) in evars if dst == dp.visit and q == dp.cargo_type]
        if len(group) > 1:
            model.add_constr({v: 1.0 for v in group}, LE, -dp.amount)

    # leg capacities: everything aboard between consecutive visits
    for leg in range(len(path) - 2):  # final leg enters the sink empty
        total = {}
        rf = {}
        for (_, _, load, drop, v, q) in dvars:
            if load <= leg < drop:
                total[v] = 1.0
                if q == "rf":
                    rf[v] = 1.0
        for (_, _, _, load, drop, v) in evars:
            if load <= leg < drop:
                total[v] = 1.0  # empties use total capacity only, laden reefer uses plugs
        if total:
            model.add_constr(total, LE, ship.capacity_dc)
        if rf:
            model.add_constr(rf, LE, ship.capacity_rf)

    if model.num_vars == 0:
        return 0.0, [], []
    sol = lp.solve_lp(model)
    if sol.status == lp.BREAKDOWN:
        raise lp.NumericalBreakdownError("cargo LP on fixed path broke down")
    if sol.status != lp.OPTIMAL:
        raise RuntimeError(f"cargo LP on fixed path is {sol.status}")
    flows = [
        DemandFlow(mid, ship.id, dest, float(sol.x[v]))
        for (mid, dest, _, _, v, _) in dvars
        if sol.x[v] > 1e-9
    ]
    empties = [
        EmptyFlow(q, ship.id, src, dst, float(sol.x[v]))
        for (q, src, dst, _, _, v) in evars
        if sol.x[v] > 1e-9
    ]
    return sol.objective, flows, empties


def brute_force_solve(instance: Instance, budget: int = DEFAULT_BUDGET) -> Solution:
    """Exact optimum by exhaustive assignment enumeration; ties broken by
    enumeration order."""
    # each (ship, path) value is priced once, however many assignments share it
    cache: dict[tuple[int, tuple[str, ...]], tuple[float, list, list]] = {}

    def value(k: int, path: tuple[str, ...]):
        key = (k, path)
        if key not in cache:
            ship = instance.ships[k]
            base = -instance.path_cost(ship, path)
            cargo, flows, empties = _cargo_lp(instance, ship, path)
            cache[key] = (base + cargo, flows, empties)
        return cache[key]

    best_total = -lp.INF
    best: tuple[tuple[str, ...], ...] | None = None
    for assignment in enumerate_disjoint_paths(instance, budget):
        total = 0.0
        for k, path in enumerate(assignment):
            total += value(k, path)[0]
        if total > best_total + 1e-12:
            best_total, best = total, assignment

    diag = Diagnostics()
    if best is None:
        return Solution(method="oracle", status=NO_DISJOINT_ROUTING, diagnostics=diag)
    sol = Solution(method="oracle", status=OPTIMAL, objective=best_total, bound=best_total, diagnostics=diag)
    for k, (s, path) in enumerate(zip(instance.ships, best)):
        _, flows, empties = value(k, path)
        sol.ship_paths[s.id] = path
        sol.demand_flows.extend(flows)
        sol.empty_flows.extend(empties)
    return sol
