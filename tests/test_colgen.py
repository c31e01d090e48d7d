import pytest

from lsfrp import lp
from lsfrp.colgen import (
    ArcFlowPricing,
    Column,
    MasterDuals,
    RestrictedMaster,
    _BranchState,
    artificial_profit,
    initial_columns,
    price_ship,
    run_column_generation,
    solve_rmp,
)
from lsfrp.formulations import build_ship_revised, evaluate_objective, solve_arcflow
from lsfrp.instance import Demand, Instance, Visit, make_arc, path_count
from lsfrp.io import GeneratorParams, generate_random
from lsfrp.lazy import CompactPricing
from lsfrp.oracle import brute_force_solve
from lsfrp.solution import NO_DISJOINT_ROUTING, OPTIMAL, TIME_LIMIT

from fixtures import (
    MIXED_OPT,
    T1_OPT,
    isolated_start,
    mixed_type_fractional,
    pricing_calls,
    record_seeded_starts,
    record_warm_roots,
    shared_corridor,
    t1,
)


def _col(ship, path, nodes, profit):
    return Column(ship=ship, path=path, nodes=frozenset(nodes), profit=profit)


def _solve_fresh(ins, cols, state=None):
    """Solve a newly built root (or given node's) master over the columns."""
    return solve_rmp(RestrictedMaster(ins, state or _BranchState()), cols)


def _greedy(ins, engine=None):
    """Greedy start columns in a run's ship order: ascending path count."""
    engine = engine or ArcFlowPricing(ins)
    return initial_columns(engine, sorted(ins.ships, key=lambda s: path_count(ins, s.id)))


def test_rmp_disjoint_columns_all_selected():
    ins = generate_random(GeneratorParams(ships=2, visits=8, demands=0, seed=2))
    cols = [
        _col("s0", ("o0", "tau"), {"o0"}, 5.0),
        _col("s1", ("o1", "tau"), {"o1"}, 7.0),
    ]
    sol, duals = _solve_fresh(ins, cols)
    assert sol.objective == pytest.approx(12.0)
    assert all(abs(v - 1.0) < 1e-9 for v in sol.x[:2])
    assert set(duals.pi) == {"s0", "s1"}


def test_rmp_shared_node_forces_artificial():
    ins = shared_corridor()
    cols = [
        _col("s1", ("a", "c", "tau"), {"a", "c"}, 10.0),
        _col("s2", ("b", "c", "tau"), {"b", "c"}, 8.0),
    ]
    # the relaxed master's optimum here is integral
    sol, _ = _solve_fresh(ins, cols)
    assert sol.status == lp.OPTIMAL
    # exactly one column survives, the other ship rides its artificial
    chosen = [k for k in range(2) if sol.x[k] > 0.5]
    assert chosen == [0]
    assert sol.objective == pytest.approx(10.0 + artificial_profit(ins))


def test_rmp_ship_without_column_rides_its_artificial():
    ins = shared_corridor()
    sol, duals = _solve_fresh(ins, [])
    assert sol.status == lp.OPTIMAL
    assert sol.objective == pytest.approx(2 * artificial_profit(ins))
    assert duals.pi == pytest.approx({"s1": artificial_profit(ins), "s2": artificial_profit(ins)})


def test_rmp_t1_picks_best_path_column():
    ins = t1()
    cols = [
        _col("s1", ("v0", "v1", "v2", "tau"), {"v0", "v1", "v2"}, 676.0),
        _col("s1", ("v0", "v2", "tau"), {"v0", "v2"}, -17.0),
    ]
    sol, _ = _solve_fresh(ins, cols)
    assert sol.objective == pytest.approx(T1_OPT)
    assert sol.x[0] == pytest.approx(1.0)


def test_initial_columns_t1():
    ins = t1()
    cols = _greedy(ins)
    assert len(cols) == 1
    assert cols[0].profit == pytest.approx(T1_OPT)


def test_initial_columns_isolated_start():
    cols = _greedy(isolated_start())
    assert len(cols) == 1
    assert cols[0].path == ("a", "tau")


def test_initial_columns_shared_corridor_second_ship_has_none():
    # the master's artificials cover the ship the greedy start leaves out
    cols = _greedy(shared_corridor())
    assert len(cols) == 1


def test_price_ship_zero_duals_returns_best_column():
    ins = t1()
    engine = ArcFlowPricing(ins)
    duals = MasterDuals(pi={"s1": 0.0}, mu={})
    col = price_ship(ins, "s1", duals, engine)
    assert col is not None
    assert col.profit == pytest.approx(T1_OPT)


def test_price_ship_at_optimal_duals_returns_none():
    ins = t1()
    engine = ArcFlowPricing(ins)
    # optimal master duals for T1: the whole profit priced into the ship
    duals = MasterDuals(pi={"s1": T1_OPT}, mu={})
    assert price_ship(ins, "s1", duals, engine) is None


def test_price_ship_penalized_node_avoided():
    ins = t1()
    engine = ArcFlowPricing(ins)
    # prohibitive price on v1 diverts pricing; reduced cost must still clear
    duals = MasterDuals(pi={"s1": -1.0}, mu={"v1": 1000.0})
    col = price_ship(ins, "s1", duals, engine)
    assert col is not None
    assert "v1" not in col.nodes
    # with a zero convexity dual the best v1-free value (0) is not improving
    duals = MasterDuals(pi={"s1": 0.0}, mu={"v1": 1000.0})
    assert price_ship(ins, "s1", duals, engine) is None


def test_run_t1():
    sol = run_column_generation(t1())
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(T1_OPT)
    assert sol.diagnostics.bnb_nodes == 1
    assert sol.meta["root_master_integral"]


@pytest.mark.parametrize("method", ["colgen", "colgen-lazy"])
def test_integral_root_is_the_only_node(monkeypatch, method):
    from lsfrp import colgen
    from lsfrp.cli import run_method

    loops = []
    real = colgen._cg_loop
    monkeypatch.setattr(colgen, "_cg_loop", lambda *args: loops.append(1) or real(*args))
    sol = run_method(t1(), method)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(T1_OPT)
    assert sol.meta["root_master_integral"]
    assert len(loops) == sol.diagnostics.bnb_nodes == 1


@pytest.mark.parametrize("method", ["reduced", "reduced-tight", "revised", "colgen", "colgen-lazy", "oracle"])
def test_empty_fleet_is_optimal_at_zero(method):
    from lsfrp.cli import run_method

    # two visits and one demand, but no ship to carry it
    ins = Instance(
        [], [Visit("v0"), Visit("v1")], "tau",
        [make_arc("v0", "v1", {"T0": 0}), make_arc("v1", "tau", {"T0": 0})],
        [Demand("m1", "v0", frozenset({"v1"}), "dc", 10, 5)],
    )
    sol = run_method(ins, method)
    assert (sol.status, sol.objective, sol.bound) == (OPTIMAL, 0.0, 0.0)
    # every search counts its root; the oracle enumerates and searches nothing
    assert sol.diagnostics.bnb_nodes == (0 if method == "oracle" else 1)


def test_run_no_disjoint_routing():
    sol = run_column_generation(shared_corridor())
    assert sol.status == NO_DISJOINT_ROUTING


def test_mixed_type_branching_reaches_oracle():
    ins = mixed_type_fractional()
    oracle = brute_force_solve(ins)
    assert oracle.objective == pytest.approx(MIXED_OPT)
    sol = run_column_generation(ins)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(MIXED_OPT)
    assert sol.meta["root_master_integral"] is False
    assert sol.diagnostics.bnb_nodes >= 1


def test_rmp_objective_nondecreasing_and_termination_certificate():
    ins = generate_random(GeneratorParams(ships=3, visits=11, demands=8, seed=77))
    engine = ArcFlowPricing(ins)
    columns = _greedy(ins, engine)
    objs = []
    while True:
        sol, duals = _solve_fresh(ins, columns)
        objs.append(sol.objective)
        rc_tol = lp.TOL_GAP * (1 + abs(sol.objective))
        new = []
        for s in ins.ships:
            col = price_ship(ins, s.id, duals, engine, rc_tol=rc_tol)
            if col is not None:
                new.append(col)
        if not new:
            break
        columns.extend(new)
    assert all(objs[k + 1] >= objs[k] - 1e-9 for k in range(len(objs) - 1))
    # one extra pass proves LP optimality at termination
    sol, duals = _solve_fresh(ins, columns)
    for s in ins.ships:
        assert price_ship(ins, s.id, duals, engine) is None


def test_colgen_matches_revised_on_random_instances():
    for seed in (55, 56, 57, 58):
        ins = generate_random(
            GeneratorParams(ships=2 + seed % 2, visits=9, demands=6, seed=seed)
        )
        a = run_column_generation(ins).objective
        b = solve_arcflow(ins, "revised").objective
        assert a == pytest.approx(b, rel=1e-6)


def test_columns_are_simple_paths():
    ins = generate_random(GeneratorParams(ships=3, visits=12, demands=6, seed=91))
    engine = ArcFlowPricing(ins)
    for col in _greedy(ins, engine):
        inner = col.path[:-1]
        assert len(set(inner)) == len(inner)
        assert col.nodes == frozenset(inner)
        for i in range(len(col.path) - 1):
            assert ins.arc(col.path[i], col.path[i + 1]) is not None


def test_solution_objective_matches_reevaluation():
    ins = generate_random(GeneratorParams(ships=3, visits=11, demands=8, seed=88))
    sol = run_column_generation(ins)
    assert sol.status == OPTIMAL
    assert evaluate_objective(ins, sol) == pytest.approx(sol.objective, abs=1e-6)


@pytest.mark.parametrize("engine", [ArcFlowPricing, CompactPricing], ids=["arcflow", "compact"])
def test_time_limit_before_pricing_reports_model_sizes(engine):
    # the deadline has passed when the greedy start prices its first ship,
    # whose pricing model is built by then
    ins = generate_random(GeneratorParams(ships=3, visits=12, demands=8, seed=5))
    sol = run_column_generation(ins, time_limit=0.0, engine=engine)
    assert sol.status == TIME_LIMIT
    diag = sol.diagnostics
    assert diag.model_rows > 0 and diag.model_cols > 0 and diag.model_nonzeros > 0


def test_progress_log_lines_machine_parsable():
    import re

    lines = []
    ins = generate_random(GeneratorParams(ships=2, visits=9, demands=6, seed=101))
    run_column_generation(ins, log=lines.append)
    assert lines
    pattern = re.compile(r"^cg iter=\d+ columns=\d+ bound=-?[\d.eE+]+$")
    assert all(pattern.match(l) for l in lines), lines[:3]
    # bound is non-decreasing as columns arrive
    bounds = [float(l.split("bound=")[1]) for l in lines]
    assert all(bounds[k + 1] >= bounds[k] - 1e-9 for k in range(len(bounds) - 1))


def test_pricing_bnb_nodes_reported(monkeypatch):
    from lsfrp import instance, lazy
    from lsfrp.io import parse_solution, write_solution

    ins = generate_random(GeneratorParams(ships=3, visits=11, demands=8, seed=88))
    reach_builds = []
    real_init = instance.ReachIndex.__init__
    monkeypatch.setattr(
        instance.ReachIndex, "__init__", lambda self, i: reach_builds.append(i) or real_init(self, i)
    )
    for run in (
        lambda: run_column_generation(ins),
        lambda: lazy.run_colgen_lazy(ins),
    ):
        sol = run()
        assert sol.status == OPTIMAL
        assert sol.diagnostics.pricing_bnb_nodes >= len(ins.ships)
        back = parse_solution(write_solution(sol))
        assert back.diagnostics.pricing_bnb_nodes == sol.diagnostics.pricing_bnb_nodes
    assert reach_builds == [ins]  # both runs read the instance's one index


@pytest.mark.parametrize("engine", [ArcFlowPricing, CompactPricing], ids=["arcflow", "compact"])
def test_pricing_diagnostics_match_the_built_models(monkeypatch, engine):
    from lsfrp import colgen, lazy

    ins = generate_random(GeneratorParams(ships=3, visits=12, demands=10, capacity_dc_range=(25, 60),
                                          amount_range=(10, 45), seed=63))
    nodes, sizes, splits = [], [], []  # per pricing solve; per model as built
    real_mip = lp.solve_mip

    def solve_mip(*args, **kwargs):
        mip = real_mip(*args, **kwargs)
        nodes.append(mip.nodes)
        return mip

    module, name = (colgen, "build_ship_revised")
    if engine is CompactPricing:
        module, name = (lazy, "build_compact_pricing")
    real_build = getattr(module, name)

    def build(*args, **kwargs):
        built = real_build(*args, **kwargs)
        if built is not None:
            model = built[0] if engine is ArcFlowPricing else built.model
            sizes.append(model.size_triple())
            splits.append(getattr(built, "split_parents", 0))
        return built

    monkeypatch.setattr(lp, "solve_mip", solve_mip)
    monkeypatch.setattr(module, name, build)
    sol = run_column_generation(ins, engine=engine)
    assert sol.status == OPTIMAL
    diag = sol.diagnostics
    # the master solves LPs only, so every MIP is a pricing solve
    assert diag.pricing_bnb_nodes == sum(nodes) > len(ins.ships)
    assert len(sizes) == len(ins.ships)
    assert (diag.model_rows, diag.model_cols, diag.model_nonzeros) == tuple(
        round(sum(column) / len(sizes)) for column in zip(*sizes)
    )
    assert diag.splits == sum(splits)
    assert (diag.splits > 0) == (engine is CompactPricing)


# Each instance reaches a branch-and-price node whose master is fractional
# while every (visit, ship type) usage is integral.  Branching on that
# usage could not split such a node: the first instance raised "branching
# incomplete", the second returned 3446.  (visit, ship) branching settles
# both.
@pytest.mark.parametrize("method", ["colgen", "colgen-lazy"])
@pytest.mark.parametrize(
    "params, optimum",
    [
        (
            GeneratorParams(ships=3, ship_types=1, visits=17, demands=12, arc_density=0.35,
                            reefer_fraction=0.25, seed=1489315916),
            9085.0,
        ),
        (
            GeneratorParams(ships=2, ship_types=1, visits=11, demands=6, arc_density=0.67,
                            reefer_fraction=0.25, seed=476222078),
            3909.0,
        ),
    ],
)
def test_branching_settles_fractional_master(monkeypatch, method, params, optimum):
    from lsfrp import colgen
    from lsfrp.cli import run_method

    ins = generate_random(params)
    assert run_method(ins, "revised").objective == pytest.approx(optimum)
    # the root node branches from the master it has: one pricing loop per node
    loops = []
    real = colgen._cg_loop
    monkeypatch.setattr(colgen, "_cg_loop", lambda *args: loops.append(1) or real(*args))
    sol = run_method(ins, method)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(optimum)
    assert sol.meta["root_master_integral"] is False
    assert len(loops) == sol.diagnostics.bnb_nodes


# a fractional root master (5540) whose node 2 settles 5324 and node 3 the
# optimum, 5352, at one and at two BLAS threads
TIMEOUT_TREE = GeneratorParams(ships=2, visits=12, demands=9, arc_density=0.35, seed=97)


@pytest.mark.parametrize("method", ["colgen", "colgen-lazy"])
@pytest.mark.parametrize("expiring_call", [1, 2, 3])
def test_timed_out_branch_and_price_keeps_its_incumbent_and_bound(monkeypatch, method, expiring_call):
    from lsfrp import colgen
    from lsfrp.cli import EXIT_NO_SOLUTION, EXIT_TIME_LIMIT, _exit_code_for, run_method

    ins = generate_random(TIMEOUT_TREE)
    calls = []
    real = colgen._cg_loop

    def cg_loop(*args):
        calls.append(1)
        if len(calls) == expiring_call:
            raise lp.DeadlineExpired()
        return real(*args)

    monkeypatch.setattr(colgen, "_cg_loop", cg_loop)
    sol = run_method(ins, method)
    assert sol.status == TIME_LIMIT
    assert sol.diagnostics.bnb_nodes == expiring_call
    if expiring_call == 1:  # the root abandoned: nothing settled, nothing bounded
        assert sol.objective is None and sol.bound is None
    elif expiring_call == 2:  # branched, nothing settled: the root's bound alone
        assert sol.objective is None and sol.bound == pytest.approx(5540.0)
    else:  # node 2 settled 5324; node 3 was abandoned under its parent's bound
        assert sol.objective == pytest.approx(5324.0)
        assert sol.bound == pytest.approx(5540.0) and sol.bound >= 5352.0
        assert set(sol.ship_paths) == {s.id for s in ins.ships}
        assert evaluate_objective(ins, sol) == pytest.approx(sol.objective)
    assert _exit_code_for(sol) == (EXIT_NO_SOLUTION if sol.objective is None else EXIT_TIME_LIMIT)


# -- persistent pricing models ----------------------------------------------------


@pytest.mark.parametrize(
    "params",
    [
        GeneratorParams(ships=3, visits=12, demands=10, capacity_dc_range=(25, 60),
                        amount_range=(10, 45), seed=63),
        GeneratorParams(ships=3, visits=14, demands=9, seed=62),
    ],
    ids=["tight", "loose"],
)
def test_persistent_arcflow_engine_matches_fresh_models(monkeypatch, params):
    ins = generate_random(params)
    engine = ArcFlowPricing(ins)
    warm = record_warm_roots(monkeypatch)
    for ship_id, prices, excluded in pricing_calls(ins, params.seed, 15):
        ship = ins.ship_by_id[ship_id]
        built = build_ship_revised(ins, ship, prices, excluded)
        expected = None
        if built is not None:
            mip = lp.solve_mip(built[0])
            if mip.status == lp.OPTIMAL:
                expected = mip.objective - prices[ship.start_visit]
        col, value = engine.price(ship_id, prices, excluded)
        assert (col is None) == (expected is None)
        if col is not None:
            assert abs(value - expected) <= 1e-6 * (1 + abs(expected))
    assert set(engine.models) == {s.id for s in ins.ships}
    assert warm["warm"] >= 1



# -- the growing restricted master ------------------------------------------------


def _random_columns(ins, seed, count):
    """Columns on random start-to-sink walks, with random profits."""
    import random

    rng = random.Random(seed)
    out = []
    for k in range(count):
        ship = ins.ships[k % len(ins.ships)]
        path = [ship.start_visit]
        while path[-1] != ins.sink:
            path.append(rng.choice(ins.out_arcs[path[-1]]).dst)
        # later columns tend to pay more, so that most of them enter the master
        out.append(_col(ship.id, tuple(path), path[:-1], float(rng.randint(-50, 100) + 10 * k)))
    return out


@pytest.mark.parametrize("branched", [False, True], ids=["root", "branched"])
def test_growing_master_matches_one_shot_master(monkeypatch, branched):
    ins = generate_random(GeneratorParams(ships=3, visits=12, demands=8, seed=41))
    sequence = _random_columns(ins, 41, 60)
    state = _BranchState()
    if branched:
        col = next(c for c in sequence if len(c.nodes) > 2)
        node = sorted(col.nodes - {ins.ship_by_id[col.ship].start_visit})[0]
        others = [s.id for s in ins.ships if s.id != col.ship]
        other_node = sorted(v.id for v in ins.visits if v.id not in col.nodes)[0]
        state = _BranchState(
            excluded=frozenset({(node, sid) for sid in others} | {(other_node, col.ship)}),
            required=((node, col.ship),),
        )
    starts = record_seeded_starts(monkeypatch)
    columns = []
    master = RestrictedMaster(ins, state)
    banned = 0
    for col in sequence:
        columns.append(col)
        sol, duals = solve_rmp(master, columns)
        cold, _ = _solve_fresh(ins, columns, state)
        tol = 1e-9 * (1 + abs(cold.objective))
        assert abs(sol.objective - cold.objective) <= tol
        assert len(sol.x) == len(columns)
        for c in columns:
            if any((v, c.ship) in state.excluded for v in c.nodes):
                banned += 1
                continue  # fixed at zero
            price = duals.pi[c.ship] + sum(duals.node_price(v, c.ship) for v in c.nodes)
            assert c.profit - price <= tol
    assert banned > 0 if branched else banned == 0
    assert sum(status != lp.BREAKDOWN for _, status in starts) >= len(sequence) // 2


# -- cold starts and repeated pricing calls ----------------------------------------


def _colgen_fixtures():
    """(name, instance, optimum) on which both column-generation methods run
    a pricing root per ship, and some branch."""
    from fixtures import GAP2_IP, gap_2ship

    out = [("t1", t1(), T1_OPT), ("mixed", mixed_type_fractional(), MIXED_OPT), ("gap2", gap_2ship(), GAP2_IP)]
    for name, params, optimum in (
        ("b9085", GeneratorParams(ships=3, ship_types=1, visits=17, demands=12, arc_density=0.35,
                                  reefer_fraction=0.25, seed=1489315916), 9085.0),
        ("b3909", GeneratorParams(ships=2, ship_types=1, visits=11, demands=6, arc_density=0.67,
                                  reefer_fraction=0.25, seed=476222078), 3909.0),
        ("tight", GeneratorParams(ships=3, visits=12, demands=10, capacity_dc_range=(25, 60),
                                  amount_range=(10, 45), seed=63), 7094.0),
    ):
        out.append((name, generate_random(params), optimum))
    return out


def _solve_recording_cold_starts(monkeypatch, method, case):
    """Run the method on the case, recording (model, cold) for every
    solve_lp call, one entry per _cg_loop call, and every seeded start."""
    from lsfrp import colgen
    from lsfrp.cli import run_method

    _, ins, optimum = case
    solves: list[tuple[lp.LinearModel, bool]] = []
    real_solve, real_loop = lp.solve_lp, colgen._cg_loop

    def solve_lp(model, bound_overrides=None, deadline=None, warm=None):
        solves.append((model, warm is None))
        return real_solve(model, bound_overrides, deadline, warm)

    loops = []
    monkeypatch.setattr(lp, "solve_lp", solve_lp)
    starts = record_seeded_starts(monkeypatch)
    monkeypatch.setattr(colgen, "_cg_loop", lambda *args: loops.append(1) or real_loop(*args))
    sol = run_method(ins, method)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(optimum)
    assert any(model.name != "rmp" for model, _ in solves)
    assert not [status for _, status in starts if status == lp.BREAKDOWN]
    return solves, loops


@pytest.mark.parametrize("method", ["colgen", "colgen-lazy"])
@pytest.mark.parametrize("case", _colgen_fixtures(), ids=lambda c: c[0])
def test_only_first_master_solves_start_cold(monkeypatch, method, case):
    solves, loops = _solve_recording_cold_starts(monkeypatch, method, case)
    # one cold master solve per branch-and-price node: the first of its own master
    cold = [model for model, is_cold in solves if is_cold and model.name == "rmp"]
    assert len({id(model) for model in cold}) == len(cold) == len(loops)


@pytest.mark.parametrize("method", ["colgen", "colgen-lazy"])
@pytest.mark.parametrize("case", _colgen_fixtures(), ids=lambda c: c[0])
def test_no_model_is_solved_cold_twice(monkeypatch, method, case):
    solves, _ = _solve_recording_cold_starts(monkeypatch, method, case)
    # a model's first solve, master or pricing, is cold and every later one
    # warm: a pricing root starts from the last round's root basis or nothing
    seen: set[int] = set()
    for model, is_cold in solves:
        assert is_cold == (id(model) not in seen)
        seen.add(id(model))


@pytest.mark.parametrize("method", ["colgen", "colgen-lazy"])
@pytest.mark.parametrize("case", _colgen_fixtures(), ids=lambda c: c[0])
def test_pricing_is_not_repeated_under_the_same_duals(monkeypatch, method, case):
    from lsfrp import colgen
    from lsfrp.cli import run_method

    _, ins, optimum = case
    real_price, real_loop = colgen.price_ship, colgen._cg_loop
    last_none: list[dict] = []  # per pricing loop: ship -> inputs of its last call without a column
    calls = repeats = 0

    def price_ship(instance, ship_id, duals, engine, state=None, rc_tol=1e-6, **kwargs):
        nonlocal calls, repeats
        inputs = (
            duals.pi.get(ship_id, 0.0), rc_tol,
            tuple(duals.node_price(v.id, ship_id) for v in instance.visits),
        )
        calls += 1
        repeats += last_none[-1].get(ship_id) == inputs
        col = real_price(instance, ship_id, duals, engine, state, rc_tol, **kwargs)
        if col is None:
            last_none[-1][ship_id] = inputs
        return col

    monkeypatch.setattr(colgen, "price_ship", price_ship)
    monkeypatch.setattr(colgen, "_cg_loop", lambda *args: last_none.append({}) or real_loop(*args))
    sol = run_method(ins, method)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(optimum)
    assert calls > 0 and repeats == 0
