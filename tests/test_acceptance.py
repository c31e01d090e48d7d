"""Acceptance suite: every release criterion as one test with a printed
PASS line.  Run with `pytest tests/test_acceptance.py -v -s` to see them.

The shared 200-instance randomized suite (seeds 0..199; up to 3 ships,
14 visits, 12 demands, mixed reefer shares, half with tight capacities,
first hundred single ship type) is solved once per session with all five
methods plus the brute-force oracle; criteria 1-6 assert over the cached
results.
"""

import itertools
import json
import random
import statistics
import time

import numpy as np
import pytest

from lsfrp import lp
from lsfrp.cli import EXIT_TIME_LIMIT, _exit_code_for, main, run_method
from lsfrp.colgen import run_column_generation
from lsfrp.formulations import build_ship_revised, evaluate_objective, solve_arcflow
from lsfrp.io import GeneratorParams, generate_random, write_instance
from lsfrp.lazy import build_compact_pricing, run_colgen_lazy
from lsfrp.oracle import brute_force_solve

from fixtures import (
    FIG3_NOSPLIT_OPT,
    FIG3_OPT,
    empty_repos19,
    fig3_split,
    overload1,
    reefer_overload,
    relaxation_value,
    split_nothing,
    t1,
)

REL_TOL = 1e-6
SUITE_SIZE = 200
SINGLE_TYPE_COUNT = 100


def _suite_params(seed: int) -> GeneratorParams:
    tight = seed % 2 == 1
    ships = 1 + seed % 3
    return GeneratorParams(
        ships=ships,
        ship_types=1 if seed < SINGLE_TYPE_COUNT else (2 if ships > 1 else 1),
        visits=6 + (seed * 7) % 9,
        demands=(seed * 5) % 13,
        arc_density=0.35 + (seed % 5) * 0.08,
        reefer_fraction=(seed % 4) * 0.25,
        capacity_dc_range=(25, 60) if tight else (60, 160),
        amount_range=(10, 45) if tight else (5, 60),
        empty_points=0,
        seed=seed,
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * (1 + abs(b))


@pytest.fixture(scope="session")
def suite():
    """Solve the whole randomized suite once; every record carries the six
    solutions and their objectives, the LP relaxation values and the lazy
    diagnostics."""
    t0 = time.monotonic()
    records = []
    for seed in range(SUITE_SIZE):
        ins = generate_random(_suite_params(seed))
        rec = {"seed": seed, "instance": ins, "solutions": {}}
        rec["solutions"]["oracle"] = brute_force_solve(ins)
        for m in ("reduced", "reduced-tight", "revised"):
            rec["solutions"][m] = solve_arcflow(ins, m)
        cg = rec["solutions"]["colgen"] = run_column_generation(ins)
        rec["colgen_root_integral"] = cg.meta.get("root_master_integral", False)
        lz = rec["solutions"]["colgen-lazy"] = run_colgen_lazy(ins)
        rec.update((m, sol.objective) for m, sol in rec["solutions"].items())
        rec["gamma_dc"] = sum(lz.diagnostics.cuts_dc.values())
        rec["gamma_rf"] = sum(lz.diagnostics.cuts_rf.values())
        rec["lp_reduced"] = relaxation_value(ins, "reduced")
        rec["lp_tight"] = relaxation_value(ins, "reduced-tight")
        rec["lp_revised"] = relaxation_value(ins, "revised")
        records.append(rec)
    return {"records": records, "elapsed": time.monotonic() - t0}


def test_criterion_1_cross_method_equality(suite):
    """All five methods match the brute-force oracle on every instance."""
    methods = ("reduced", "reduced-tight", "revised", "colgen", "colgen-lazy")
    failures = []
    for rec in suite["records"]:
        ref = rec["oracle"]
        for m in methods:
            if rec[m] is None or not _close(rec[m], ref):
                failures.append((rec["seed"], m, ref, rec[m]))
    assert not failures, failures[:10]
    assert suite["elapsed"] < 600.0, f"suite took {suite['elapsed']:.0f}s"
    print(
        f"\nACCEPTANCE 1: PASS - {len(suite['records'])} instances x 5 methods "
        f"match the oracle within 1e-6 ({suite['elapsed']:.1f}s)"
    )


@pytest.mark.parametrize("seed, optimum", [(1, 19812), (2, 21946), (3, 12073)])
def test_ladder_l2_methods_agree_with_the_oracle(seed, optimum):
    """Rung L2 of the instance ladder (3 ships, 25 visits, 20 demands), past
    every other tier-1 instance.  `revised` is left out because it stalls
    at L2 (ROADMAP item 1), and `reduced` because it takes seconds here."""
    ins = generate_random(GeneratorParams(ships=3, visits=25, demands=20, arc_density=0.35, seed=seed))
    for method in ("oracle", "colgen", "colgen-lazy", "reduced-tight"):
        sol = run_method(ins, method)
        assert (sol.status, sol.objective) == ("optimal", pytest.approx(optimum, rel=REL_TOL)), method
        assert evaluate_objective(ins, sol) == pytest.approx(sol.objective, rel=REL_TOL), method


def test_criterion_2_bound_dominance(suite):
    """LP(revised) <= LP(reduced+tight) <= LP(reduced); strict gap exists."""
    for rec in suite["records"]:
        scale_t = REL_TOL * (1 + abs(rec["lp_tight"]))
        scale_r = REL_TOL * (1 + abs(rec["lp_reduced"]))
        assert rec["lp_revised"] <= rec["lp_tight"] + scale_t, rec["seed"]
        assert rec["lp_tight"] <= rec["lp_reduced"] + scale_r, rec["seed"]
    from fixtures import GAP2_IP, GAP2_LP_REDUCED, gap_2ship

    gap = gap_2ship()
    lpr = relaxation_value(gap, "reduced")
    lpv = relaxation_value(gap, "revised")
    assert lpr == pytest.approx(GAP2_LP_REDUCED, abs=1e-6)
    assert lpv == pytest.approx(GAP2_IP, abs=1e-6)
    assert lpr - lpv > 1.0
    print(
        f"\nACCEPTANCE 2: PASS - dominance holds on {len(suite['records'])} instances; "
        f"crafted fixture gap {lpr - lpv:.0f}"
    )


def test_criterion_3_single_type_master_integral(suite):
    """Relaxed master integral at termination on the single-type sub-suite."""
    sub = [r for r in suite["records"] if r["seed"] < SINGLE_TYPE_COUNT]
    assert len(sub) == SINGLE_TYPE_COUNT
    bad = [r["seed"] for r in sub if not r["colgen_root_integral"]]
    assert not bad, f"fractional relaxed master on single-type seeds {bad}"
    print(f"\nACCEPTANCE 3: PASS - relaxed master integral in {len(sub)}/{len(sub)} single-type runs")


def test_criterion_4_lazy_soundness(suite):
    """Every answer of every method passes the one check of a plan, which
    recomputes its objective: paths, flows, amounts and leg capacities."""
    checked = 0
    for rec in suite["records"]:
        for method, sol in rec["solutions"].items():
            assert sol.status == "optimal", (rec["seed"], method, sol.status)
            recomputed = evaluate_objective(rec["instance"], sol)
            assert _close(recomputed, sol.objective), (rec["seed"], method, recomputed, sol.objective)
            checked += 1
    assert checked == 6 * SUITE_SIZE
    for ins in (overload1(), reefer_overload()):
        sol = run_colgen_lazy(ins)
        assert evaluate_objective(ins, sol) == pytest.approx(sol.objective, rel=REL_TOL)
        checked += 1
    print(f"\nACCEPTANCE 4: PASS - {checked} answers replay sound and recompute to their objective")


def test_criterion_5_splitting_correctness(monkeypatch):
    """Split run matches the oracle; unsplit run is over-constrained below it."""
    ins = fig3_split()
    oracle = brute_force_solve(ins)
    assert oracle.objective == pytest.approx(FIG3_OPT)
    on = run_colgen_lazy(ins)
    split_nothing(monkeypatch)
    off = run_colgen_lazy(ins)
    assert on.objective == pytest.approx(oracle.objective, abs=1e-6)
    assert off.objective <= oracle.objective + 1e-9
    assert off.objective == pytest.approx(FIG3_NOSPLIT_OPT)
    print(
        "\nACCEPTANCE 5: PASS - splitting fixture: split run matches oracle "
        f"({on.objective:.0f}), unsplit run drops to {off.objective:.0f}"
    )


def test_criterion_6_cut_sparsity(suite):
    """Median instance needs no cuts; no instance needs more than 50 per scope."""
    dc = [r["gamma_dc"] for r in suite["records"]]
    rf = [r["gamma_rf"] for r in suite["records"]]
    total = [a + b for a, b in zip(dc, rf)]
    assert statistics.median(total) == 0
    assert max(dc) <= 50 and max(rf) <= 50
    zero_share = sum(1 for t in total if t == 0) / len(total)
    print(
        f"\nACCEPTANCE 6: PASS - median cuts 0, max dc {max(dc)}, max rf {max(rf)}, "
        f"{zero_share:.0%} of instances need none"
    )


def test_criterion_7_empty_cargo_monotonicity():
    """Raising the empty revenue never lowers the optimum; the crafted
    fixture gains strictly; runtime stays within 5x of the baseline."""
    worst_ratio = 0.0
    for seed in range(20):
        p = GeneratorParams(
            ships=1 + seed % 3,
            visits=8 + seed % 6,
            demands=seed % 6,
            empty_points=2 + seed % 4,
            empty_revenue=0,
            move_cost_range=(50, 150),
            seed=7000 + seed,
        )
        ins = generate_random(p)
        assert ins.empty_points
        t0 = time.monotonic()
        lo = run_colgen_lazy(ins)
        t_lo = time.monotonic() - t0
        t0 = time.monotonic()
        hi = run_colgen_lazy(ins.with_empty_revenue({"dc": 400, "rf": 400}))
        t_hi = time.monotonic() - t0
        assert hi.objective >= lo.objective - REL_TOL * (1 + abs(lo.objective)), seed
        # per-instance runtime bound with a floor below which timing is noise
        floor = 0.05
        assert t_hi <= 5 * max(t_lo, floor), (seed, t_lo, t_hi)
        worst_ratio = max(worst_ratio, t_hi / max(t_lo, floor))

    ins = empty_repos19()
    lo = run_colgen_lazy(ins)
    hi = run_colgen_lazy(ins.with_empty_revenue({"dc": 30000, "rf": 30000}))
    assert lo.objective == pytest.approx(0.0)
    assert hi.objective == pytest.approx(20000.0)
    assert hi.objective > lo.objective + 1
    print(
        "\nACCEPTANCE 7: PASS - 20 instances monotone under the revenue "
        f"override, crafted fixture +{hi.objective - lo.objective:.0f}, "
        f"worst time ratio {worst_ratio:.2f}x"
    )


def test_criterion_8_model_size_ordering():
    """Compact pricing at least halves rows, columns and nonzeros against
    arc-flow pricing on every instance with |A'| >= 100."""
    checked = 0
    worst = (float("inf"),) * 3
    for visits, demands, density, seed in (
        (50, 30, 0.5, 201),
        (50, 30, 0.5, 202),
        (60, 35, 0.5, 203),
        (60, 35, 0.5, 204),
        (70, 40, 0.45, 205),
    ):
        ins = generate_random(
            GeneratorParams(ships=3, visits=visits, demands=demands, arc_density=density, seed=seed)
        )
        n_aprime = sum(1 for a in ins.arcs if a.dst != ins.sink)
        assert n_aprime >= 100, f"seed {seed} too sparse: {n_aprime}"
        for s in ins.ships:
            arc_model, _ = build_ship_revised(ins, s)
            compact = build_compact_pricing(ins, s.id).model
            ar, ac, az = arc_model.size_triple()
            cr, cc, cz = compact.size_triple()
            assert ar >= 2 * cr and ac >= 2 * cc and az >= 2 * cz, (
                seed, s.id, (ar, ac, az), (cr, cc, cz),
            )
            worst = (min(worst[0], ar / cr), min(worst[1], ac / cc), min(worst[2], az / cz))
            checked += 1
    print(
        f"\nACCEPTANCE 8: PASS - {checked} pricing models compared, worst "
        f"ratios rows {worst[0]:.1f}x cols {worst[1]:.1f}x nnz {worst[2]:.1f}x"
    )


def _strip_timing(data: bytes) -> bytes:
    doc = json.loads(data.decode())
    doc["diagnostics"]["wall_time_sec"] = 0.0
    return json.dumps(doc, sort_keys=True).encode()


def test_criterion_9_determinism(tmp_path):
    """Identical flags produce byte-identical files (timing excluded)."""
    gen = tmp_path / "gen.json"
    gen2 = tmp_path / "gen2.json"
    flags = ["generate", "--ships", "3", "--visits", "12", "--demands", "9", "--seed", "42"]
    assert main(flags + ["--out", str(gen)]) == 0
    assert main(flags + ["--out", str(gen2)]) == 0
    assert gen.read_bytes() == gen2.read_bytes()

    t1_path = tmp_path / "t1.json"
    t1_path.write_bytes(write_instance(t1()))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        for method in ("colgen-lazy",):
            assert main([
                "solve", "--instance", str(t1_path), "--method", method, "--out", str(out),
            ]) == 0
        outs.append(_strip_timing(out.read_bytes()))
    assert outs[0] == outs[1]

    sol_a, sol_b = tmp_path / "ga.json", tmp_path / "gb.json"
    for out in (sol_a, sol_b):
        assert main([
            "solve", "--instance", str(gen), "--method", "colgen-lazy", "--out", str(out),
        ]) == 0
    assert _strip_timing(sol_a.read_bytes()) == _strip_timing(sol_b.read_bytes())
    print("\nACCEPTANCE 9: PASS - generate and solve are byte-deterministic")


def _enumerate_vertices(c, rows, senses, rhs, lb, ub):
    n = len(c)
    cons = [(np.array(r, float), s, b) for r, s, b in zip(rows, senses, rhs)]
    allc = list(cons)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        allc.append((e, "b", lb[j]))
        allc.append((e, "b", ub[j]))
    best = None
    for combo in itertools.combinations(range(len(allc)), n):
        A = np.array([allc[k][0] for k in combo])
        b = np.array([allc[k][2] for k in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        ok = all(
            (s == lp.LE and a @ x <= bb + 1e-7)
            or (s == lp.GE and a @ x >= bb - 1e-7)
            or (s == lp.EQ and abs(a @ x - bb) <= 1e-7)
            for (a, s, bb) in cons
        ) and all(lb[j] - 1e-7 <= x[j] <= ub[j] + 1e-7 for j in range(n))
        if ok:
            v = float(np.dot(c, x))
            best = v if best is None or v > best else best
    return best


def test_criterion_10_lp_core_reference_suite():
    """Simplex vs vertex enumeration on 50 LPs; branch and bound vs
    exhaustive enumeration on 50 knapsacks."""
    rng = random.Random(99)
    lps = 0
    while lps < 50:
        n = rng.randint(2, 4)
        c = [rng.randint(-9, 9) for _ in range(n)]
        lb = [rng.choice([0, 0, -4]) for _ in range(n)]
        ub = [l + rng.randint(1, 9) for l in lb]
        rows, senses, rhs = [], [], []
        for _ in range(rng.randint(1, 4)):
            rows.append([rng.randint(-4, 4) for _ in range(n)])
            senses.append(rng.choice([lp.LE, lp.LE, lp.GE, lp.EQ]))
            rhs.append(rng.randint(-8, 12))
        ref = _enumerate_vertices(np.array(c, float), rows, senses, rhs, lb, ub)
        model = lp.LinearModel()
        for j in range(n):
            model.add_var(lb[j], ub[j], obj=c[j])
        for r, s, b in zip(rows, senses, rhs):
            model.add_constr({j: r[j] for j in range(n) if r[j]}, s, b)
        sol = lp.solve_lp(model)
        if ref is None:
            assert sol.status == lp.INFEASIBLE
            continue  # only count solvable LPs toward the 50
        assert sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(ref, abs=1e-6)
        lps += 1

    for trial in range(50):
        rng2 = random.Random(1000 + trial)
        n = rng2.randint(4, 12)
        c = [rng2.randint(1, 30) for _ in range(n)]
        w = [rng2.randint(1, 20) for _ in range(n)]
        cap = rng2.randint(10, sum(w))
        best = max(
            sum(c[j] for j in range(n) if mask >> j & 1)
            for mask in range(1 << n)
            if sum(w[j] for j in range(n) if mask >> j & 1) <= cap
        )
        model = lp.LinearModel()
        for j in range(n):
            model.add_var(0, 1, obj=c[j], integer=True)
        model.add_constr({j: w[j] for j in range(n)}, lp.LE, cap)
        sol = lp.solve_mip(model)
        assert sol.status == lp.OPTIMAL
        assert sol.objective == pytest.approx(best, abs=1e-9)
    print("\nACCEPTANCE 10: PASS - 50 LPs match vertex enumeration, 50 knapsacks match exhaustion")


# oracle-sized, without empty points; t1 joins them
ANYTIME_PARAMS = [
    GeneratorParams(ships=2, visits=10, demands=8, arc_density=0.5, seed=11),
    GeneratorParams(ships=3, visits=16, demands=14, arc_density=0.35, seed=29),
    GeneratorParams(ships=2, ship_types=2, visits=14, demands=12, arc_density=0.45,
                    capacity_dc_range=(25, 60), amount_range=(10, 45), seed=14),
]


def test_criterion_11_anytime_bound_brackets_the_optimum():
    """At every time limit, each method's bound is at least the oracle's
    optimum and its objective at most that, recomputed from the routing;
    exit code 2 means exactly a time limit with an incumbent."""
    methods = ("reduced", "reduced-tight", "revised", "colgen", "colgen-lazy")
    runs = incumbents = 0
    for k, ins in enumerate([t1()] + [generate_random(p) for p in ANYTIME_PARAMS]):
        optimum = brute_force_solve(ins).objective
        slack = REL_TOL * (1 + abs(optimum))
        for method, limit in itertools.product(methods, (0.0, 1e-4, 1e-3, 1e-2, None)):
            sol = run_method(ins, method, limit)
            where = (k, method, limit, sol.status, sol.objective, sol.bound)
            runs += 1
            assert sol.status in ("optimal", "time_limit"), where
            if sol.objective is not None:
                incumbents += 1
                assert sol.objective <= optimum + slack, where
                assert evaluate_objective(ins, sol) == pytest.approx(sol.objective, rel=REL_TOL), where
                assert sol.bound is not None, where  # an incumbent's gap is finite
            if sol.bound is not None:
                assert sol.bound >= optimum - slack, where
            if sol.status == "optimal":
                assert _close(sol.objective, optimum) and _close(sol.bound, optimum), where
            with_incumbent = sol.status == "time_limit" and sol.objective is not None
            assert (_exit_code_for(sol) == EXIT_TIME_LIMIT) == with_incumbent, where
    assert runs == 100
    print(f"\nACCEPTANCE 11: PASS - {runs} runs at five limits bracket the optimum ({incumbents} with an incumbent)")
