"""Hand-built instances and shared helpers used across the test suite.

Expected values marked below were computed with the brute-force oracle
(and, where noted, by hand arithmetic) before being frozen here.
"""

import random

from lsfrp import lp
from lsfrp.formulations import build_arcflow
from lsfrp.instance import Demand, EmptyPoint, Instance, Ship, Visit, build_reach_index, make_arc

Z0 = {"T0": 0}


def t1() -> Instance:
    """Canonical single-ship fixture: three start->sink paths, one demand.

    Optimal profit 676 on v0-v1-v2-tau: 50 TEU * (20 - 3 - 3) revenue minus
    sails (10 + 10) minus fees (2 + 2).  Alternatives: v0-v2-tau = -17,
    v0-tau = 0.
    """
    ships = [Ship("s1", "v0", 100, 20, "T0")]
    visits = [Visit("v0", 0, 0, 0), Visit("v1", 2, 3, 1), Visit("v2", 2, 3, 2)]
    arcs = [
        make_arc("v0", "v1", {"T0": 10}),
        make_arc("v1", "v2", {"T0": 10}),
        make_arc("v0", "v2", {"T0": 15}),
        make_arc("v2", "tau", {"T0": 0}),
        make_arc("v0", "tau", {"T0": 0}),
    ]
    demands = [Demand("m1", "v1", frozenset({"v2"}), "dc", 50, 20)]
    return Instance(ships, visits, "tau", arcs, demands)


T1_OPT = 676.0
T1_PATHS = 3


def chain4() -> Instance:
    """v0 -> v1 -> v2 -> v3 chain with demand (v1, {v3})."""
    ships = [Ship("s1", "v0", 100, 0, "T0")]
    visits = [Visit(f"v{k}") for k in range(4)]
    arcs = [
        make_arc("v0", "v1", Z0),
        make_arc("v1", "v2", Z0),
        make_arc("v2", "v3", Z0),
        make_arc("v3", "tau", Z0),
    ]
    demands = [Demand("m1", "v1", frozenset({"v3"}), "dc", 10, 5)]
    return Instance(ships, visits, "tau", arcs, demands)


def overload1() -> Instance:
    """Two dry demands jointly above capacity on a forced corridor.

    u_dc = 50 against 40 + 30 loaded consecutively: the base compact model
    accepts 70 aboard, the replay cuts at oB, optimum 500 (50 TEU * 10).
    """
    ships = [Ship("s1", "s0", 50, 0, "T0")]
    visits = [Visit(v) for v in ("s0", "oA", "oB", "dA", "dB")]
    arcs = [
        make_arc("s0", "oA", Z0),
        make_arc("oA", "oB", Z0),
        make_arc("oB", "dA", Z0),
        make_arc("dA", "dB", Z0),
        make_arc("dB", "tau", Z0),
    ]
    demands = [
        Demand("mA", "oA", frozenset({"dA"}), "dc", 40, 10),
        Demand("mB", "oB", frozenset({"dB"}), "dc", 30, 10),
    ]
    return Instance(ships, visits, "tau", arcs, demands)


OVERLOAD1_OPT = 500.0


def reefer_overload() -> Instance:
    """Two reefer demands of 4 against u_rf = 5 (u_dc ample): one rf cut."""
    ships = [Ship("s1", "s0", 100, 5, "T0")]
    visits = [Visit(v) for v in ("s0", "o1", "o2", "d1", "d2")]
    arcs = [
        make_arc("s0", "o1", Z0),
        make_arc("o1", "o2", Z0),
        make_arc("o2", "d1", Z0),
        make_arc("d1", "d2", Z0),
        make_arc("d2", "tau", Z0),
    ]
    demands = [
        Demand("r1", "o1", frozenset({"d1"}), "rf", 4, 10),
        Demand("r2", "o2", frozenset({"d2"}), "rf", 4, 10),
    ]
    return Instance(ships, visits, "tau", arcs, demands)


REEFER_OPT = 50.0


def fig3_split() -> Instance:
    """Interleaved origins forcing a demand split.

    Demand A (origin oA, destinations dA1 then dA2) can bypass dA1 straight
    to origin B; a capacity cut at oB over A's total flow would wrongly tie
    A and B together when A was already dropped at dA1.  Oracle optimum 550
    (deliver A at dA1 for a 50 sail surcharge, then B in full); without
    splitting the lazy solver is over-constrained down to 400.
    """
    ships = [Ship("s1", "s0", 40, 0, "T0")]
    visits = [Visit(v) for v in ("s0", "oA", "dA1", "oB", "dA2", "dB")]
    arcs = [
        make_arc("s0", "oA", Z0),
        make_arc("oA", "dA1", {"T0": 50}),
        make_arc("dA1", "oB", Z0),
        make_arc("oA", "oB", Z0),
        make_arc("oB", "dA2", Z0),
        make_arc("dA2", "dB", Z0),
        make_arc("dB", "tau", Z0),
    ]
    demands = [
        Demand("mA", "oA", frozenset({"dA1", "dA2"}), "dc", 30, 10),
        Demand("mB", "oB", frozenset({"dB"}), "dc", 30, 10),
    ]
    return Instance(ships, visits, "tau", arcs, demands)


FIG3_OPT = 550.0
FIG3_NOSPLIT_OPT = 400.0


def gap_2ship() -> Instance:
    """Reduced-LP gap fixture: 10 TEU of demand against 1000 TEU ships.

    The aggregated capacity row lets a 1% ship fraction carry the whole
    demand, so LP(reduced) = 399 while the tightened and revised
    relaxations (and the integer optimum) sit at 300.
    """
    ships = [Ship("s1", "g1", 1000, 0, "T0"), Ship("s2", "g2", 1000, 0, "T0")]
    visits = [Visit(v) for v in ("g1", "g2", "w", "d")]
    arcs = [
        make_arc("g1", "w", {"T0": 100}),
        make_arc("g2", "w", {"T0": 100}),
        make_arc("w", "d", {"T0": 100}),
        make_arc("d", "tau", Z0),
        make_arc("g1", "tau", Z0),
        make_arc("g2", "tau", Z0),
        make_arc("w", "tau", Z0),
    ]
    demands = [Demand("m", "w", frozenset({"d"}), "dc", 10, 50)]
    return Instance(ships, visits, "tau", arcs, demands)


GAP2_IP = 300.0
GAP2_LP_REDUCED = 399.0


def mixed_type_fractional() -> Instance:
    """Two ship types with a fractional relaxed master.

    Type TA can collect the -10 fee at n1 or n2 (value 10 each); type TB can
    chain both for 18.  The master LP mixes both half-half for 19; the best
    integer solution is 18, reached only through branching.
    """
    big = 1000
    ships = [Ship("sA", "a0", 100, 0, "TA"), Ship("sB", "b0", 100, 0, "TB")]
    visits = [
        Visit("a0"),
        Visit("b0"),
        Visit("n1", port_fee=-10),
        Visit("n2", port_fee=-10),
        Visit("x"),
    ]
    arcs = [
        make_arc("a0", "n1", {"TA": 0, "TB": big}),
        make_arc("a0", "n2", {"TA": 0, "TB": big}),
        make_arc("b0", "n1", {"TA": big, "TB": 0}),
        make_arc("n1", "x", {"TA": 0, "TB": big}),
        make_arc("n1", "n2", {"TA": big, "TB": 2}),
        make_arc("x", "tau", {"TA": 0, "TB": 0}),
        make_arc("n2", "tau", {"TA": 0, "TB": 0}),
        make_arc("a0", "tau", {"TA": 0, "TB": 0}),
        make_arc("b0", "tau", {"TA": 0, "TB": 0}),
    ]
    return Instance(ships, visits, "tau", arcs, [])


MIXED_OPT = 18.0


def empty_repos19() -> Instance:
    """Empty-equipment fixture shaped like the revenue-override experiment.

    Moving 20 surplus boxes costs 14000 + 15000 per TEU; at the default
    revenue of 0 nothing moves, at an override of 30000 the run gains
    20 * (30000 - 29000) = 20000.
    """
    ships = [Ship("s1", "s0", 60, 10, "T0")]
    visits = [Visit("s0"), Visit("u", move_cost=14000), Visit("w", move_cost=15000)]
    arcs = [
        make_arc("s0", "u", Z0),
        make_arc("u", "w", Z0),
        make_arc("w", "tau", Z0),
        make_arc("s0", "tau", Z0),
        make_arc("u", "tau", Z0),
    ]
    points = [EmptyPoint("u", "dc", 20), EmptyPoint("w", "dc", -20)]
    return Instance(ships, visits, "tau", arcs, [], points, {"dc": 0, "rf": 0})


EMPTY_BASE_OPT = 0.0
EMPTY_OVERRIDE_OPT = 20000.0


def shared_corridor() -> Instance:
    """Two ships that can only reach the sink through one shared visit."""
    ships = [Ship("s1", "a", 10, 0, "T0"), Ship("s2", "b", 10, 0, "T0")]
    visits = [Visit("a"), Visit("b"), Visit("c")]
    arcs = [
        make_arc("a", "c", {"T0": 1}),
        make_arc("b", "c", {"T0": 1}),
        make_arc("c", "tau", Z0),
    ]
    return Instance(ships, visits, "tau", arcs, [])


def isolated_start() -> Instance:
    """Single ship whose only option is the direct start->sink arc."""
    ships = [Ship("s1", "a", 10, 0, "T0")]
    visits = [Visit("a")]
    arcs = [make_arc("a", "tau", Z0)]
    return Instance(ships, visits, "tau", arcs, [])


# -- persistent pricing engines -----------------------------------------------------


def pricing_calls(instance: Instance, seed: int, calls: int):
    """A seeded sequence of (ship, node prices, excluded visits) pricing
    calls, cycling through the ships.  Prices may be negative, as the duals
    of branching rows are; an exclusion set may hold a ship's start."""
    rng = random.Random(seed)
    visits = [v.id for v in instance.visits]
    for k in range(calls):
        ship = instance.ships[k % len(instance.ships)]
        prices = {v: rng.choice([0.0, rng.uniform(-10.0, 40.0)]) for v in visits}
        excluded = frozenset(rng.sample(visits, rng.choice([0, 0, 1, 2, 3])))
        yield ship.id, prices, excluded


def record_seeded_starts(monkeypatch) -> list[tuple[lp.LpBasis, str]]:
    """Record (basis, status) of every ``_Simplex._solve_warm`` call that
    starts from the basis its solve_lp caller passed.  The slack starts of
    cold solves, and of warm starts that broke down, are not recorded."""
    starts = []
    real_solve, real_warm = lp._Simplex.solve, lp._Simplex._solve_warm

    def solve(self, warm=None):
        self.seed = warm
        return real_solve(self, warm)

    def solve_warm(self, warm):
        result = real_warm(self, warm)
        if warm is self.seed:
            starts.append((warm, result.status))
        return result

    monkeypatch.setattr(lp._Simplex, "solve", solve)
    monkeypatch.setattr(lp._Simplex, "_solve_warm", solve_warm)
    return starts


def record_warm_roots(monkeypatch) -> dict[str, int]:
    """Count the root LPs that solve_mip(warm=...) seeds: "warm" for those
    the warm start finished, "cold" for those that broke down and restarted
    from the slack basis."""
    counts = {"warm": 0, "cold": 0}
    seeds: dict[int, lp.LpBasis] = {}  # held, so that no id is reused
    real_mip, real_warm = lp.solve_mip, lp._Simplex._solve_warm

    def solve_mip(*args, warm=None, **kwargs):
        if warm is not None:
            seeds[id(warm)] = warm
        return real_mip(*args, warm=warm, **kwargs)

    def solve_warm(self, warm):
        result = real_warm(self, warm)
        if seeds.get(id(warm)) is warm:
            counts["cold" if result.status == lp.BREAKDOWN else "warm"] += 1
        return result

    monkeypatch.setattr(lp, "solve_mip", solve_mip)
    monkeypatch.setattr(lp._Simplex, "_solve_warm", solve_warm)
    return counts


def split_nothing(monkeypatch) -> None:
    """Replace lazy's one splitting rule with a map that keeps every demand
    whole: the unsplit compact model, whose over-constrained optimum shows
    what splitting is for."""
    from lsfrp import lazy

    def whole(instance: Instance, ship_id: str, reach=None):
        reach = reach or build_reach_index(instance)
        return {mid: [instance.demand_by_id[mid].destinations] for mid in sorted(reach.movable[ship_id])}

    monkeypatch.setattr(lazy, "split_demand_triples", whole)


def relaxation_value(instance: Instance, method: str) -> float:
    """Optimal value of the LP relaxation of the chosen arc-flow model."""
    model, _ = build_arcflow(instance, method)
    sol = lp.solve_lp(model)
    if sol.status != lp.OPTIMAL:
        raise RuntimeError(f"relaxation of {method} is {sol.status}")
    return sol.objective
