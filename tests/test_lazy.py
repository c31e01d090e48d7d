from functools import partial

import numpy as np
import pytest

from lsfrp.formulations import evaluate_objective, solve_arcflow
from lsfrp.instance import (
    Demand,
    EmptyPoint,
    Instance,
    Ship,
    Visit,
    enumerate_paths,
    make_arc,
)
from lsfrp.io import GeneratorParams, generate_random
from lsfrp.lazy import (
    CompactPricing,
    add_violated_cuts,
    build_compact_pricing,
    replay_column,
    run_colgen_lazy,
    separate_cuts,
    split_demand_triples,
)
from lsfrp import lp
from lsfrp.oracle import _cargo_lp, brute_force_solve
from lsfrp.solution import OPTIMAL, Solution

from fixtures import (
    FIG3_NOSPLIT_OPT,
    FIG3_OPT,
    OVERLOAD1_OPT,
    REEFER_OPT,
    T1_OPT,
    chain4,
    empty_repos19,
    fig3_split,
    gap_2ship,
    isolated_start,
    mixed_type_fractional,
    overload1,
    pricing_calls,
    record_warm_roots,
    reefer_overload,
    shared_corridor,
    split_nothing,
    t1,
)

Z0 = {"T0": 0}


# -- splitting ----------------------------------------------------------------------


def test_fig3_demand_is_split():
    ins = fig3_split()
    split = split_demand_triples(ins, "s1")
    assert split["mA"] == [frozenset({"dA1"}), frozenset({"dA2"})]
    assert split["mB"] == [frozenset({"dB"})]


def test_single_destination_never_split():
    ins = overload1()
    split = split_demand_triples(ins, "s1")
    assert all(len(v) == 1 for v in split.values())


def test_no_interleaving_no_split():
    # two multi-destination demands on separate branches: criteria fail
    ins = Instance(
        [Ship("s1", "s0", 100, 0, "T0")],
        [Visit(v) for v in ("s0", "o1", "a1", "a2", "o2", "b1", "b2")],
        "tau",
        [
            make_arc("s0", "o1", Z0),
            make_arc("o1", "a1", Z0),
            make_arc("a1", "a2", Z0),
            make_arc("a2", "tau", Z0),
            make_arc("s0", "o2", Z0),
            make_arc("o2", "b1", Z0),
            make_arc("b1", "b2", Z0),
            make_arc("b2", "tau", Z0),
        ],
        [
            Demand("mA", "o1", frozenset({"a1", "a2"}), "dc", 10, 5),
            Demand("mB", "o2", frozenset({"b1", "b2"}), "dc", 10, 5),
        ],
    )
    split = split_demand_triples(ins, "s1")
    assert split["mA"] == [frozenset({"a1", "a2"})]
    assert split["mB"] == [frozenset({"b1", "b2"})]


def test_builder_splits_without_criterion_three():
    # mB loads between mA's destinations but delivers before a2: the paper's
    # criterion 3 would keep mA whole, the one rule leaves it out and splits
    ins = Instance(
        [Ship("s1", "s0", 100, 0, "T0")],
        [Visit(v) for v in ("s0", "oA", "a1", "oB", "b1", "a2")],
        "tau",
        [
            make_arc("s0", "oA", Z0),
            make_arc("oA", "a1", Z0),
            make_arc("oA", "oB", Z0),
            make_arc("a1", "oB", Z0),
            make_arc("oB", "b1", Z0),
            make_arc("b1", "a2", Z0),
            make_arc("a2", "tau", Z0),
        ],
        [
            Demand("mA", "oA", frozenset({"a1", "a2"}), "dc", 10, 5),
            Demand("mB", "oB", frozenset({"b1"}), "dc", 10, 5),
        ],
    )
    assert split_demand_triples(ins, "s1")["mA"] == [frozenset({"a1"}), frozenset({"a2"})]
    assert set(build_compact_pricing(ins, "s1").xvars) == {"mA@a1", "mA@a2", "mB"}


def test_split_map_is_the_builders_members():
    instances = [
        t1(), chain4(), overload1(), reefer_overload(), fig3_split(), gap_2ship(),
        mixed_type_fractional(), empty_repos19(), shared_corridor(), isolated_start(),
    ]
    instances += [generate_random(GeneratorParams(ships=2, seed=k)) for k in range(60)]
    split = 0
    for k, ins in enumerate(instances):
        for ship in ins.ships:
            ctx = build_compact_pricing(ins, ship.id)
            if ctx is None:
                continue
            built: dict[str, list[frozenset[str]]] = {}
            for mem in ctx.members.values():
                built.setdefault(mem.demand.id, []).append(mem.destinations)
            expected = split_demand_triples(ins, ship.id)
            assert built == expected, (k, ship.id)
            split += sum(len(parts) > 1 for parts in expected.values())
    assert split >= 100


# -- compact model ------------------------------------------------------------------


def test_compact_t1_optimum_no_cuts():
    ins = t1()
    ctx = build_compact_pricing(ins, "s1")
    cuts = []
    mip = lp.solve_mip(ctx.model, on_candidate=lambda x: [])
    assert mip.status == lp.OPTIMAL
    assert mip.objective == pytest.approx(T1_OPT)
    assert separate_cuts(ctx, mip.x) == []


def test_compact_model_smaller_than_arcflow():
    from lsfrp.formulations import build_ship_revised

    ins = generate_random(GeneratorParams(ships=2, visits=12, demands=10, seed=8))
    for s in ins.ships:
        arc_model, _ = build_ship_revised(ins, s)
        compact = build_compact_pricing(ins, s.id).model
        ar, ac, az = arc_model.size_triple()
        cr, cc, cz = compact.size_triple()
        assert cr <= ar and cc <= ac and cz <= az


def test_empty_pair_vars_only_for_reachable_pairs():
    ins = empty_repos19()
    ctx = build_compact_pricing(ins, "s1")
    assert set(ctx.evars) == {("dc", "u", "w")}  # deficit unreachable pairs absent


def test_unequal_unload_costs_split_the_demand():
    # no other demand interleaves m's destinations: only their unload costs split it
    ins = Instance(
        [Ship("s1", "s0", 100, 0, "T0")],
        [Visit("s0"), Visit("o"), Visit("d1", move_cost=7), Visit("d2", move_cost=3)],
        "tau",
        [
            make_arc("s0", "o", Z0),
            make_arc("o", "d1", Z0),
            make_arc("d1", "d2", Z0),
            make_arc("d2", "tau", Z0),
        ],
        [Demand("m", "o", frozenset({"d1", "d2"}), "dc", 10, 50)],
    )
    assert split_demand_triples(ins, "s1")["m"] == [frozenset({"d1"}), frozenset({"d2"})]
    ctx = build_compact_pricing(ins, "s1")
    assert set(ctx.xvars) == {"m@d1", "m@d2"}
    # revenue 50 less unload costs 7 and 3
    assert {ctx.model.obj[var] for var in ctx.xvars.values()} == {43, 47}


# -- cut separation -----------------------------------------------------------------


def _solve_compact(ins, ship_id):
    ctx = build_compact_pricing(ins, ship_id)
    mip = lp.solve_mip(ctx.model, on_candidate=partial(add_violated_cuts, ctx))
    return ctx, mip


def test_overload_emits_dc_cut_at_second_origin():
    ins = overload1()
    ctx, mip = _solve_compact(ins, "s1")
    assert mip.objective == pytest.approx(OVERLOAD1_OPT)
    assert ctx.cuts == [("oB", "dc")]
    cut = ctx.cut_rows[("oB", "dc")]
    assert cut.rhs == 50
    assert cut.coeffs == {ctx.xvars["mA"]: 1.0, ctx.xvars["mB"]: 1.0}
    assert ctx.model.rows[-1] == cut


def test_reefer_overload_emits_rf_cut_only():
    ins = reefer_overload()
    ctx, mip = _solve_compact(ins, "s1")
    assert mip.objective == pytest.approx(REEFER_OPT)
    scopes = {scope for _, scope in ctx.cuts}
    assert scopes == {"rf"}
    assert ctx.cut_rows[ctx.cuts[0]].rhs == 5


def test_candidate_skipping_origins_yields_no_cuts():
    import numpy as np

    ins = overload1()
    ctx = build_compact_pricing(ins, "s1")
    # corridor path with nothing loaded: the replay stays below capacity
    x = np.zeros(ctx.model.num_vars)
    path = ("s0", "oA", "oB", "dA", "dB", "tau")
    for k in range(len(path) - 1):
        x[ctx.yvars[(path[k], path[k + 1])]] = 1.0
    assert separate_cuts(ctx, x) == []


def overloaded(instance, sol) -> bool:
    """Whether evaluate_objective rejects the plan for a leg load over a
    capacity; any other fault it finds fails the test."""
    try:
        evaluate_objective(instance, sol)
    except ValueError as fault:
        if " load " not in str(fault):
            raise
        return True
    return False


def test_cut_rows_flag_exactly_the_replayed_overloads(monkeypatch):
    # the stored rows decide separation; the path replay is the independent check
    from lsfrp import lazy

    seen = {"candidates": 0, "overloaded": 0}

    def checked(ctx, x):
        keys = separate_cuts(ctx, x)
        path, flows, empties = replay_column(ctx, x)
        sol = Solution(
            method="replay", status=OPTIMAL, ship_paths={ctx.ship.id: path},
            demand_flows=flows, empty_flows=empties,
        )
        assert bool(keys) == overloaded(ctx.instance, sol), path
        assert all(lp._violation(ctx.cut_rows[key], x) > lp.TOL_FEAS for key in keys)
        assert not set(keys) & set(ctx.cuts)
        seen["candidates"] += 1
        seen["overloaded"] += bool(keys)
        return add_violated_cuts(ctx, x)

    monkeypatch.setattr(lazy, "add_violated_cuts", checked)
    instances = [
        t1(), chain4(), overload1(), reefer_overload(), fig3_split(), gap_2ship(),
        mixed_type_fractional(), empty_repos19(), shared_corridor(), isolated_start(),
    ]
    instances += [
        generate_random(GeneratorParams(
            ships=1 + k % 3, visits=10 + k % 5, demands=8 + k % 8, empty_points=2 * (k % 3),
            seed=500 + k, **TIGHT,
        ))
        for k in range(40)
    ]
    for ins in instances:
        run_colgen_lazy(ins)
    assert seen["candidates"] > 400 and seen["overloaded"] > 60, seen


# -- full runs ----------------------------------------------------------------------


def test_lazy_t1():
    sol = run_colgen_lazy(t1())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(T1_OPT)
    assert sum(sol.diagnostics.cuts_dc.values()) == 0
    assert sum(sol.diagnostics.cuts_rf.values()) == 0


def test_lazy_overload_matches_oracle_with_cuts():
    sol = run_colgen_lazy(overload1())
    assert sol.objective == pytest.approx(OVERLOAD1_OPT)
    assert sum(sol.diagnostics.cuts_dc.values()) >= 1


def test_fig3_split_on_matches_oracle_split_off_below(monkeypatch):
    ins = fig3_split()
    oracle = brute_force_solve(ins)
    assert oracle.objective == pytest.approx(FIG3_OPT)
    on = run_colgen_lazy(ins)
    split_nothing(monkeypatch)
    off = run_colgen_lazy(ins)
    assert on.objective == pytest.approx(FIG3_OPT)
    assert on.diagnostics.splits == 1
    assert off.objective <= FIG3_OPT + 1e-9
    assert off.objective == pytest.approx(FIG3_NOSPLIT_OPT)


def test_lazy_equals_other_methods_on_random_instances():
    for seed in (201, 202, 203, 204):
        ins = generate_random(
            GeneratorParams(
                ships=1 + seed % 3,
                visits=8 + seed % 5,
                demands=4 + seed % 6,
                capacity_dc_range=(25, 60),
                amount_range=(10, 45),
                seed=seed,
            )
        )
        lz = run_colgen_lazy(ins)
        rv = solve_arcflow(ins, "revised")
        assert lz.objective == pytest.approx(rv.objective, rel=1e-6)
        assert evaluate_objective(ins, lz) == pytest.approx(lz.objective, rel=1e-6)


def test_lazy_solution_reevaluates_consistently():
    ins = overload1()
    sol = run_colgen_lazy(ins)
    assert evaluate_objective(ins, sol) == pytest.approx(sol.objective, abs=1e-6)


def test_empty_monotone_option_value():
    ins = empty_repos19()
    base = run_colgen_lazy(ins)
    hi = run_colgen_lazy(ins.with_empty_revenue({"dc": 30000, "rf": 30000}))
    assert base.objective == pytest.approx(0.0)
    assert hi.objective == pytest.approx(20000.0)
    assert hi.objective >= base.objective


def test_empty_reefer_consumes_total_capacity_only():
    # 15 empty reefer boxes move on a ship with zero reefer plugs
    ins = Instance(
        [Ship("s1", "s0", 20, 0, "T0")],
        [Visit("s0"), Visit("u"), Visit("w")],
        "tau",
        [
            make_arc("s0", "u", Z0),
            make_arc("u", "w", Z0),
            make_arc("w", "tau", Z0),
            make_arc("s0", "tau", Z0),
        ],
        [],
        [EmptyPoint("u", "rf", 15), EmptyPoint("w", "rf", -15)],
        {"dc": 0, "rf": 100},
    )
    sol = run_colgen_lazy(ins)
    assert sol.objective == pytest.approx(1500.0)
    assert sol.empty_flows[0].amount == pytest.approx(15.0)
    oracle = brute_force_solve(ins)
    assert oracle.objective == pytest.approx(1500.0)


def test_gamma_matches_final_pool_rows(monkeypatch):
    from lsfrp import lazy

    ins = overload1()
    engines = []

    class Recorded(CompactPricing):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(lazy, "CompactPricing", Recorded)
    sol = run_colgen_lazy(ins)
    [engine] = engines
    assert sol.objective == pytest.approx(OVERLOAD1_OPT)
    ctx = engine.contexts["s1"]
    assert sum(sol.diagnostics.cuts_dc.values()) == sum(1 for _, scope in ctx.cuts if scope == "dc")
    # the model's cut keys restate its last rows, in row order
    assert ctx.cuts and ctx.model.rows[-len(ctx.cuts):] == [ctx.cut_rows[k] for k in ctx.cuts]


def test_every_stored_cut_row_has_a_coefficient():
    # a scope nothing can fill at a node (no reefer member aboard, say) stores no row
    hand = [
        t1, chain4, overload1, reefer_overload, fig3_split, gap_2ship,
        mixed_type_fractional, empty_repos19, shared_corridor, isolated_start,
    ]
    instances = [make() for make in hand] + [
        generate_random(GeneratorParams(
            ships=1 + k % 3, ship_types=1 + k % 2, visits=8 + k % 6, demands=4 + k % 7,
            reefer_fraction=0.2 * (k % 4), empty_points=2 * (k % 3), seed=500 + k,
        ))
        for k in range(40)
    ]
    rows = 0
    for k, ins in enumerate(instances):
        for ship in ins.ships:
            ctx = build_compact_pricing(ins, ship.id)
            if ctx is None:
                continue
            for key, row in ctx.cut_rows.items():
                assert row.coeffs, (k, ship.id, key)
                rows += 1
    assert rows > 400


# -- persistent pricing models --------------------------------------------------------

TIGHT = dict(capacity_dc_range=(25, 60), amount_range=(10, 45))


def _fresh_compact_value(ins, ship_id, prices, excluded, cuts):
    """Value of a freshly built model carrying the given cut keys, solved
    cold with the same separation callback; None when no column exists."""
    ctx = build_compact_pricing(ins, ship_id, prices, excluded=excluded)
    if ctx is None:
        return None
    for key in cuts:  # the fresh model numbers its variables differently
        cut = ctx.cut_rows[key]
        ctx.model.add_constr(cut.coeffs, cut.sense, cut.rhs)
    ctx.cuts.extend(cuts)
    mip = lp.solve_mip(ctx.model, on_candidate=partial(add_violated_cuts, ctx))
    if mip.status != lp.OPTIMAL:
        return None
    return mip.objective - prices[ins.ship_by_id[ship_id].start_visit]


@pytest.mark.parametrize(
    "params",
    [
        GeneratorParams(ships=3, visits=12, demands=10, seed=63, **TIGHT),
        GeneratorParams(ships=3, visits=13, demands=9, seed=62),
        GeneratorParams(ships=3, visits=14, demands=8, empty_points=4, seed=65, **TIGHT),
    ],
    ids=["tight", "loose", "empties"],
)
def test_persistent_compact_engine_matches_fresh_models(monkeypatch, params):
    ins = generate_random(params)
    engine = CompactPricing(ins)
    warm = record_warm_roots(monkeypatch)
    for ship_id, prices, excluded in pricing_calls(ins, params.seed, 15):
        built = engine.contexts.get(ship_id)
        expected = _fresh_compact_value(
            ins, ship_id, prices, excluded, built.cuts if built else []
        )
        col, value = engine.price(ship_id, prices, excluded)
        assert (col is None) == (expected is None)
        if col is not None:
            assert abs(value - expected) <= 1e-6 * (1 + abs(expected))
    # one model per ship, and a fallback firing every time would leave 0
    assert set(engine.models) == {s.id for s in ins.ships}
    assert warm["warm"] >= 1


# -- cut validity -------------------------------------------------------------------


def _cut_checks(ins):
    """((node, scope), left-hand side, rhs) of every capacity cut row the model
    stores, evaluated at the oracle's cargo plan on each start->sink path
    of each ship."""
    for ship in ins.ships:
        ctx = build_compact_pricing(ins, ship.id)
        if ctx is None:
            continue
        for path in enumerate_paths(ins, ship.start_visit):
            _, flows, empties = _cargo_lp(ins, ship, path)
            x = np.zeros(ctx.model.num_vars)
            for f in flows:  # a split demand's plan lands on its per-destination member
                key = f.demand if f.demand in ctx.xvars else f"{f.demand}@{f.destination}"
                x[ctx.xvars[key]] += f.amount
            for f in empties:
                x[ctx.evars[(f.cargo_type, f.src, f.dst)]] += f.amount
            for key, cut in ctx.cut_rows.items():
                yield key, sum(c * x[j] for j, c in cut.coeffs.items()), cut.rhs


def test_every_capacity_cut_holds_on_every_enumerated_path(monkeypatch):
    instances = [
        t1(), chain4(), overload1(), reefer_overload(), fig3_split(), gap_2ship(),
        mixed_type_fractional(), empty_repos19(), shared_corridor(), isolated_start(),
    ]
    instances += [
        generate_random(GeneratorParams(
            ships=1 + k % 2, visits=7 + k % 5, demands=4 + k % 6, empty_points=2 * (k % 3),
            seed=300 + k, **TIGHT,
        ))
        for k in range(40)
    ]
    checks = 0
    for ins in instances:
        for key, lhs, rhs in _cut_checks(ins):
            assert lhs <= rhs + 1e-7, key
            checks += 1
    assert checks > 1000
    # control: unsplit, A's cargo dropped at dA1 still counts in the cut at oB
    split_nothing(monkeypatch)
    violated = {(key, lhs, rhs) for key, lhs, rhs in _cut_checks(fig3_split())
                if lhs > rhs + 1e-7}
    assert violated == {(("oB", "dc"), 60.0, 40)}
