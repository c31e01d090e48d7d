"""Compact per-ship pricing with lazy capacity constraints.

Instead of one flow variable per (demand, arc), each demand gets a single
total-flow variable per ship; base rows only cap what is loaded at each
node.  Joint capacity along the path is enforced lazily: every integer
candidate is replayed from the start visit (cargo loads at its origin and
unloads at the first visited destination), and wherever the onboard total
exceeds a capacity a cut over every demand that can be aboard there is
added.  A cut is its (node, scope) key, and ``capacity_cut`` builds its row
from the key.  Cuts persist across pricing rounds as rows of the ship's
pricing model, which is built once and re-priced each round; the model
lists their keys in ``CompactModel.cuts``, in row order.

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
from .formulations import _trace_path, add_path_rows, add_ship_arcs, empty_coef, leaves_start
from .instance import Instance, ReachIndex, Ship, build_reach_index
from .lp import LE, LinearModel
from .solution import DemandFlow, Diagnostics, EmptyFlow, Solution


@dataclass(frozen=True)
class Member:
    """One compact flow variable: a demand or a per-destination slice of one."""

    key: str
    demand: str
    origin: str
    destinations: frozenset[str]
    cargo_type: str
    amount: float  # parent availability
    revenue: float
    unload_cost: float


# flows below this are treated as solver noise, far under any real TEU amount
FLOW_EPS = 1e-5


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


def split_demand_triples(
    instance: Instance, ship_id: str, reach: ReachIndex | None = None
) -> dict[str, list[frozenset[str]]]:
    """Split map for one ship's pricing model: demand id -> destination sets,
    one per variable, over the demands the ship can move.

    A multi-destination demand gets one variable per destination when its
    destinations charge unequal unload costs, or when another demand can
    load between two of them (_interleaved); otherwise one variable
    covers all its destinations.  The pricing model's members are built
    from this map, so it is the one splitting rule.
    """
    reach = reach or build_reach_index(instance)
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


def _members_for_ship(instance: Instance, reach: ReachIndex, ship_id: str) -> list[Member]:
    """The ship's compact flow variables, one per destination set of its
    split map; a split demand's members are keyed "demand@destination"."""
    members: list[Member] = []
    for mid, parts in split_demand_triples(instance, ship_id, reach).items():
        m = instance.demand_by_id[mid]
        for dests in parts:
            members.append(
                Member(
                    key=mid if len(parts) == 1 else f"{mid}@{min(dests)}",
                    demand=mid,
                    origin=m.origin,
                    destinations=dests,
                    cargo_type=m.cargo_type,
                    amount=m.amount,
                    revenue=m.revenue,
                    unload_cost=instance.visit_by_id[min(dests)].move_cost,
                )
            )
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
    carry_nodes: dict[str, frozenset[str]]  # member key -> nodes it can depart loaded
    empty_nodes: dict[tuple[str, str, str], frozenset[str]]
    split_parents: int = 0
    # (node, scope) of each capacity cut, in the order its row was appended
    cuts: list[tuple[str, str]] = field(default_factory=list)


def _add_gates(
    model: LinearModel, yvars, var: int, arcs, origin: str, destinations, name: str
) -> None:
    """Gate rows of one cargo variable, named after ``name`` ("stem[tag]"):
    it moves only if the ship leaves origin, and enters one of the
    destinations, along its arcs; the bound is the variable's own."""
    stem, tag = name.split("[", 1)
    bound = model.ub[var]
    out_gate = {yvars[(i, j)]: -bound for (i, j) in arcs if i == origin}
    out_gate[var] = 1.0
    model.add_constr(out_gate, LE, 0.0, f"{stem}_o[{tag}")
    in_gate = {yvars[(i, j)]: -bound for (i, j) in arcs if j in destinations}
    in_gate[var] = 1.0
    model.add_constr(in_gate, LE, 0.0, f"{stem}_d[{tag}")


def build_compact_pricing(
    instance: Instance,
    ship_id: str,
    node_price: dict[str, float] | None = None,
    *,
    reach: ReachIndex,
    excluded: frozenset[str] = frozenset(),
) -> CompactModel | None:
    """Per-ship compact pricing model: path rows, load-node capacities,
    origin/destination gates, split caps and empty pairs.  Returns None when
    the start visit is excluded or left without an outgoing arc.

    The engine builds each model once without prices or exclusions and
    re-prices it in place; node_price and excluded build a model already
    priced, the reference that tests compare a re-priced model against."""
    ins = instance
    ship = ins.ship_by_id[ship_id]
    if ship.start_visit in excluded:
        return None
    model = LinearModel(f"compact[{ship_id}]")
    yvars = add_ship_arcs(model, ins, reach, ship, node_price, excluded)
    if not leaves_start(ins, ship, yvars):
        return None
    add_path_rows(model, ins, {ship_id: yvars})

    members = _members_for_ship(ins, reach, ship_id)
    reachable_members = []
    xvars: dict[str, int] = {}
    carry_nodes: dict[str, frozenset[str]] = {}
    gate_arcs: dict[str, frozenset[tuple[str, str]]] = {}
    for mem in members:
        # cut membership is exclusion-independent so carried cuts stay valid
        # when a pricing round sees the full graph again
        carry_nodes[mem.key] = frozenset(
            i
            for (i, j) in reach.carry_arc_set(mem.origin, mem.destinations)
            if reach.can_reach(ship.start_visit, i)
        )
        arcs = frozenset(
            (i, j) for (i, j) in reach.arc_set(mem.origin, mem.destinations)
            if (i, j) in yvars
        )
        if not arcs:
            continue
        gate_arcs[mem.key] = arcs
        cap = ship.capacity_rf if mem.cargo_type == "rf" else ship.capacity_dc
        coef = mem.revenue - ins.visit_by_id[mem.origin].move_cost - mem.unload_cost
        xvars[mem.key] = model.add_var(
            0.0, min(mem.amount, cap), obj=coef, name=f"x[{mem.key}]"
        )
        reachable_members.append(mem)
    member_by_key = {m.key: m for m in members}

    # empty-equipment pair variables, one per reachable (surplus, deficit)
    evars: dict[tuple[str, str, str], int] = {}
    empty_nodes: dict[tuple[str, str, str], frozenset[str]] = {}
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
            full_arcs = reach.arc_set(sp.visit, {dp.visit})
            empty_nodes[key] = frozenset(
                i for (i, j) in full_arcs if reach.can_reach(ship.start_visit, i)
            )
            if sp.visit in excluded or dp.visit in excluded:
                continue
            pair_arcs = frozenset((i, j) for (i, j) in full_arcs if (i, j) in yvars)
            if not pair_arcs:
                continue
            evars[key] = model.add_var(
                0.0, min(sp.amount, -dp.amount, ship.capacity_dc),
                obj=empty_coef(ins, q, sp.visit, dp.visit),
                name=f"e[{q},{sp.visit},{dp.visit}]",
            )
            empty_gate_arcs[key] = pair_arcs

    # an empty pair moves only if the ship leaves its surplus and enters its
    # deficit along arcs the pair can travel
    for key, var in sorted(evars.items()):
        q, src, dst = key
        _add_gates(model, yvars, var, empty_gate_arcs[key], src, {dst}, f"egate[{q},{src},{dst}]")

    # load-node capacity rows: everything picked up at k departs aboard
    load_nodes: dict[str, tuple[list[str], list[tuple[str, str, str]]]] = {}
    for mem in reachable_members:
        load_nodes.setdefault(mem.origin, ([], []))[0].append(mem.key)
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
        model.add_constr(total, LE, 0.0, f"load_dc[{k}]")
        rf = {xvars[d]: 1.0 for d in dkeys if member_by_key[d].cargo_type == "rf"}
        if rf:
            for y in outflow:
                rf[y] = -ship.capacity_rf
            model.add_constr(rf, LE, 0.0, f"load_rf[{k}]")

    # origin / destination gates per member
    for mem in reachable_members:
        _add_gates(
            model, yvars, xvars[mem.key], gate_arcs[mem.key], mem.origin, mem.destinations,
            f"gate[{mem.key}]",
        )

    # shared availability for split families
    by_parent: dict[str, list[str]] = {}
    for mem in reachable_members:
        by_parent.setdefault(mem.demand, []).append(mem.key)
    split_parents = 0
    for parent, keys in sorted(by_parent.items()):
        if len(keys) > 1:
            split_parents += 1
            model.add_constr(
                {xvars[k]: 1.0 for k in keys}, LE, ins.demand_by_id[parent].amount,
                f"avail[{parent}]",
            )

    # empty supply / deficit conservation
    by_src: dict[tuple[str, str], list] = {}
    by_dst: dict[tuple[str, str], list] = {}
    for (q, src, dst), var in evars.items():
        by_src.setdefault((q, src), []).append(var)
        by_dst.setdefault((q, dst), []).append(var)
    for p in surpluses:
        group = by_src.get((p.cargo_type, p.visit), [])
        if len(group) > 1:
            model.add_constr({v: 1.0 for v in group}, LE, p.amount, f"sup[{p.cargo_type},{p.visit}]")
    for p in deficits:
        group = by_dst.get((p.cargo_type, p.visit), [])
        if len(group) > 1:
            model.add_constr({v: 1.0 for v in group}, LE, -p.amount, f"def[{p.cargo_type},{p.visit}]")

    return CompactModel(
        model=model,
        ship=ship,
        instance=instance,
        yvars=yvars,
        xvars=xvars,
        evars=evars,
        members=member_by_key,
        carry_nodes=carry_nodes,
        empty_nodes=empty_nodes,
        split_parents=split_parents,
    )


def capacity_cut(ctx: CompactModel, node: str, scope: str) -> lp.Constraint:
    """The capacity cut at node for one scope ("dc": total, empties
    included; "rf": laden reefer only) over every member and empty pair
    that can be aboard when the ship leaves node."""
    coeffs = {
        var: 1.0 for key, var in sorted(ctx.xvars.items())
        if node in ctx.carry_nodes[key] and (scope == "dc" or ctx.members[key].cargo_type == "rf")
    }
    if scope == "dc":  # empties fill total capacity only; reefer plugs hold laden reefers
        coeffs.update({v: 1.0 for e, v in sorted(ctx.evars.items()) if node in ctx.empty_nodes[e]})
    cap = ctx.ship.capacity_dc if scope == "dc" else ctx.ship.capacity_rf
    return lp.Constraint(coeffs, LE, cap, f"lazy[{scope},{node}]")


def leg_loads(instance: Instance, path, flows, empty_flows) -> list[tuple[float, float]]:
    """(total, laden reefer) load on each leg of path: a flow is aboard from
    its origin's visit up to its destination's.  A flow whose origin or
    destination is off the path, or out of order on it, is a ValueError."""
    pos = {node: k for k, node in enumerate(path)}

    def legs(flow: str, src: str, dst: str) -> range:
        if src not in pos or dst not in pos or pos[src] >= pos[dst]:
            raise ValueError(f"{flow} does not travel {src}->{dst} along {'-'.join(path)}")
        return range(pos[src], pos[dst])

    total = [0.0] * max(len(path) - 1, 0)
    rf = [0.0] * len(total)
    for f in flows:
        m = instance.demand_by_id[f.demand]
        for leg in legs(f"flow for demand {f.demand}", m.origin, f.destination):
            total[leg] += f.amount
            if m.cargo_type == "rf":
                rf[leg] += f.amount
    for f in empty_flows:
        for leg in legs("empty flow", f.src, f.dst):
            total[leg] += f.amount  # empties never use reefer plugs
    return list(zip(total, rf))


def separate_cuts(ctx: CompactModel, x) -> list[tuple[str, str]]:
    """Replay the candidate's cargo along its path; the (node, scope) key of
    every leg where a capacity is exceeded, one per key since a path calls
    at each node once."""
    path, flows, empty_flows = replay_column(ctx, x)
    caps = (ctx.ship.capacity_dc, ctx.ship.capacity_rf)
    keys = []
    for node, loads in zip(path, leg_loads(ctx.instance, path, flows, empty_flows)):
        for scope, load, cap in zip(("dc", "rf"), loads, caps):
            if load > cap + lp.TOL_FEAS:
                if (node, scope) in ctx.cuts:  # a row of the model already, so it must bind
                    raise RuntimeError(f"carried cut at {node!r} failed to bind ({scope} scope)")
                keys.append((node, scope))
    return keys


def add_violated_cuts(ctx: CompactModel, x) -> list[lp.Constraint]:
    """Separation callback of solve_mip: the rows of the cuts the candidate
    violates, whose keys join ctx.cuts as solve_mip appends the rows."""
    keys = separate_cuts(ctx, x)
    ctx.cuts.extend(keys)
    return [capacity_cut(ctx, node, scope) for node, scope in keys]


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
        o = pos.get(mem.origin)
        if o is None:
            raise RuntimeError(f"member {key} loaded off-path")
        stops = sorted(p for d in mem.destinations if (p := pos.get(d)) is not None and p > o)
        if not stops:
            raise RuntimeError(f"member {key} has no destination on path")
        dest = path[stops[0]]
        flows[(mem.demand, dest)] = flows.get((mem.demand, dest), 0.0) + val
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

    def __init__(self, instance: Instance, reach: ReachIndex):
        super().__init__(instance, reach)
        self.contexts: dict[str, CompactModel] = {}  # ship -> its compact model, once built

    def build(self, ship: Ship) -> PricingModel | None:
        ctx = build_compact_pricing(self.instance, ship.id, reach=self.reach)
        if ctx is None:
            return None
        self.contexts[ship.id] = ctx
        return PricingModel(ctx.model, ctx.yvars, self.instance, ship, partial(replay_column, ctx))

    def price(
        self, ship_id: str, node_price: dict[str, float], excluded: frozenset[str],
        deadline: float | None = None,
    ) -> tuple[Column | None, float]:
        """Best column for the ship (see PricingModel.price), with every
        integer candidate replayed and cut off while it overloads the ship."""
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


def capacity_violations(instance: Instance, solution: Solution) -> list[str]:
    """Replay a solution's flows along each ship path and report every leg
    where a capacity scope is exceeded (empty string list means sound)."""
    out: list[str] = []
    for sid, path in solution.ship_paths.items():
        ship = instance.ship_by_id[sid]
        caps = (ship.capacity_dc, ship.capacity_rf)
        flows = [f for f in solution.demand_flows if f.ship == sid]
        empty_flows = [f for f in solution.empty_flows if f.ship == sid]
        for leg, loads in enumerate(leg_loads(instance, path, flows, empty_flows)):
            for kind, load, cap in zip(("total", "reefer"), loads, caps):
                if load > cap + lp.TOL_FEAS:
                    hop = f"{path[leg]}->{path[leg + 1]}"
                    out.append(f"{sid}: {kind} load {load:.3f} > {cap} on {hop}")
    return out
