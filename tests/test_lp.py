import inspect
import itertools
import math
import random
import time
from dataclasses import fields

import numpy as np
import pytest

import lsfrp.lp as lp_module
from lsfrp.lp import (
    BREAKDOWN,
    EQ,
    GE,
    INF,
    INFEASIBLE,
    LE,
    OPTIMAL,
    TIME_LIMIT,
    UNBOUNDED,
    Constraint,
    CutSoundnessError,
    LinearModel,
    LpBasis,
    _REFACTOR_EVERY,
    solve_lp,
    solve_mip,
)


def knap(c, w, cap):
    m = LinearModel("knap")
    for j, cj in enumerate(c):
        m.add_var(0, 1, obj=cj, integer=True)
    m.add_constr({j: w[j] for j in range(len(w))}, LE, cap)
    return m


def test_simple_bound_dual():
    m = LinearModel()
    x = m.add_var(0, 10, obj=1.0)
    m.add_constr({x: 1.0}, LE, 5.0)
    sol = solve_lp(m)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(5.0)
    assert sol.duals[0] == pytest.approx(1.0)


def test_infeasible_pair():
    m = LinearModel()
    x = m.add_var(0, 10)
    m.add_constr({x: 1.0}, LE, 1.0)
    m.add_constr({x: 1.0}, GE, 2.0)
    assert solve_lp(m).status == INFEASIBLE


def test_unbounded():
    m = LinearModel()
    x = m.add_var(0, INF, obj=1.0)
    m.add_constr({x: 1.0}, GE, 1.0)
    assert solve_lp(m).status == UNBOUNDED


def test_empty_model_is_optimal_with_a_basis():
    for sol in (solve_lp(LinearModel()), solve_mip(LinearModel())):
        assert sol.status == OPTIMAL and sol.objective == 0.0 and sol.x.size == 0
    assert solve_lp(LinearModel()).basis.basic.size == 0


def test_model_validation():
    m = LinearModel()
    with pytest.raises(ValueError):
        m.add_var(3, 2)
    x = m.add_var(0, 1)
    with pytest.raises(ValueError):
        m.add_constr({x: float("nan")}, LE, 1.0)
    with pytest.raises(ValueError):
        m.add_constr({99: 1.0}, LE, 1.0)
    m.add_constr({x: 1.0}, LE, 1.0)
    with pytest.raises(ValueError):
        m.add_var(0, 1, column={1: 1.0})
    with pytest.raises(ValueError):
        m.add_var(0, 1, column={0: float("inf")})
    assert m.num_vars == 1 and m.rows[0].coeffs == {x: 1.0}
    # a variable or a row is its index: the model keeps no name per entry
    from fixtures import t1
    from lsfrp.formulations import build_revised

    assert [f.name for f in fields(Constraint)] == ["coeffs", "sense", "rhs"]
    for method in (LinearModel.add_var, LinearModel.add_constr):
        assert "name" not in inspect.signature(method).parameters, method.__name__
    model, _ = build_revised(t1())
    assert not hasattr(model, "var_names")
    with pytest.raises(ValueError, match="variable 1: lb"):
        m.add_var(2, 1)
    with pytest.raises(ValueError, match="row 1 references unknown variable 7"):
        m.add_constr({7: 1.0}, LE, 1.0)


def lp_text(model: LinearModel) -> str:
    """Debug dump of a model in LP text format, for external verification."""

    def term(j: int, c: float) -> str:
        return f"{'+' if c >= 0 else '-'} {abs(c):.12g} x{j}"

    lines = [f"\\ model {model.name or 'unnamed'}", "Maximize"]
    objterms = " ".join(term(j, c) for j, c in enumerate(model.obj) if c != 0.0) or "0 x0"
    lines.append(f" obj: {objterms}")
    lines.append("Subject To")
    for i, r in enumerate(model.rows):
        body = " ".join(term(j, r.coeffs[j]) for j in sorted(r.coeffs))
        op = {LE: "<=", EQ: "=", GE: ">="}[r.sense]
        lines.append(f" c{i}: {body or '0 x0'} {op} {r.rhs:.12g}")
    lines.append("Bounds")
    for j in range(model.num_vars):
        lo = "-inf" if model.lb[j] == -INF else f"{model.lb[j]:.12g}"
        hi = "+inf" if model.ub[j] == INF else f"{model.ub[j]:.12g}"
        lines.append(f" {lo} <= x{j} <= {hi}")
    ints = [f"x{j}" for j in range(model.num_vars) if model.is_int[j]]
    if ints:
        lines.append("Generals")
        lines.append(" " + " ".join(ints))
    lines.append("End")
    return "\n".join(lines) + "\n"


def test_lp_dump_round_trips_visually():
    m = LinearModel("demo")
    x = m.add_var(0, 2, obj=3.0)
    y = m.add_var(0, 1, obj=-1.0, integer=True)
    m.add_constr({x: 1.0, y: 2.0}, LE, 2.0)
    text = lp_text(m)
    assert "Maximize" in text and "c0:" in text and "Generals" in text


def test_knapsack_example():
    sol = solve_mip(knap([10, 9], [5, 5], 5))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(10.0)
    assert sol.nodes == 1  # LP already integral at the root


def test_lp_integral_model_no_branching():
    m = LinearModel()
    x = m.add_var(0, 4, obj=1.0, integer=True)
    m.add_constr({x: 1.0}, LE, 3.0)
    sol = solve_mip(m)
    assert sol.nodes == 1
    assert sol.objective == pytest.approx(3.0)


def test_bnb_without_integers_reduces_to_lp():
    rng = random.Random(7)
    for _ in range(20):
        m = LinearModel()
        n = rng.randint(2, 5)
        for _ in range(n):
            m.add_var(0, rng.randint(1, 10), obj=rng.randint(-5, 7))
        for _ in range(rng.randint(1, 4)):
            m.add_constr(
                {j: rng.randint(-4, 4) for j in range(n)}, rng.choice([LE, GE]), rng.randint(0, 12)
            )
        lpres = solve_lp(m)
        mipres = solve_mip(m)
        if lpres.status == OPTIMAL:
            assert mipres.status == OPTIMAL
            assert mipres.objective == pytest.approx(lpres.objective, abs=1e-7)
        else:
            assert mipres.status == INFEASIBLE


def test_callback_cut_rejects_candidate():
    m = LinearModel()
    x = m.add_var(0, 1, obj=1.0, integer=True)
    y = m.add_var(0, 1, obj=1.0, integer=True)

    def cb(vals):
        if vals[x] + vals[y] > 1.5:
            return [Constraint({x: 1.0, y: 1.0}, LE, 1.0)]
        return []

    sol = solve_mip(m, on_candidate=cb)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sol.cuts_added == 1
    assert sol.x[x] + sol.x[y] <= 1 + 1e-9


def test_callback_unviolated_cut_is_hard_error():
    m = LinearModel()
    x = m.add_var(0, 1, obj=1.0, integer=True)
    m.add_constr({x: 2.0}, LE, 3.0)

    def cb(vals):
        return [Constraint({x: 1.0}, LE, 0.5), Constraint({x: 1.0}, LE, 5.0)]

    with pytest.raises(CutSoundnessError, match="cut 1 of the batch not violated"):
        solve_mip(m, on_candidate=cb)
    # the batch is checked whole before any of it becomes a row
    assert m.rows == [Constraint({x: 2.0}, LE, 3.0)]


def test_valid_cut_never_increases_optimum():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 4)
        c = [rng.randint(1, 9) for _ in range(n)]
        w = [rng.randint(1, 9) for _ in range(n)]
        cap = rng.randint(5, 15)
        base = solve_mip(knap(c, w, cap)).objective
        m = knap(c, w, cap)
        # a cut valid for every integer point: sum x_j <= n
        m.add_constr({j: 1.0 for j in range(n)}, LE, float(n))
        assert solve_mip(m).objective <= base + 1e-9


def test_deterministic_node_counts():
    m = knap([10, 9, 8, 7, 6], [5, 5, 4, 3, 2], 9)
    runs = {solve_mip(m).nodes for _ in range(3)}
    assert len(runs) == 1


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
            (s == LE and a @ x <= bb + 1e-7)
            or (s == GE and a @ x >= bb - 1e-7)
            or (s == EQ and abs(a @ x - bb) <= 1e-7)
            for (a, s, bb) in cons
        ) and all(lb[j] - 1e-7 <= x[j] <= ub[j] + 1e-7 for j in range(n))
        if ok:
            v = float(np.dot(c, x))
            best = v if best is None or v > best else best
    return best


def test_simplex_against_vertex_enumeration():
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        c = [rng.randint(-9, 9) for _ in range(n)]
        lb = [rng.choice([0, 0, -4]) for _ in range(n)]
        ub = [l + rng.randint(1, 9) for l in lb]
        rows, senses, rhs = [], [], []
        for _ in range(rng.randint(1, 4)):
            rows.append([rng.randint(-4, 4) for _ in range(n)])
            senses.append(rng.choice([LE, LE, GE, EQ]))
            rhs.append(rng.randint(-8, 12))
        m = LinearModel()
        for j in range(n):
            m.add_var(lb[j], ub[j], obj=c[j])
        for r, s, b in zip(rows, senses, rhs):
            m.add_constr({j: r[j] for j in range(n) if r[j]}, s, b)
        sol = solve_lp(m)
        ref = _enumerate_vertices(np.array(c, float), rows, senses, rhs, lb, ub)
        if ref is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.objective == pytest.approx(ref, abs=1e-6)
            checked += 1
    assert checked >= 30


def test_optimality_conditions_on_duals():
    # complementary feasibility: for <= rows the dual is nonnegative and a
    # positive dual implies the row is tight
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = LinearModel()
        for _ in range(n):
            m.add_var(0, rng.randint(2, 9), obj=rng.randint(0, 9))
        rows = []
        for _ in range(rng.randint(1, 3)):
            coeffs = {j: rng.randint(0, 3) for j in range(n)}
            rhs = rng.randint(2, 14)
            rows.append((coeffs, rhs))
            m.add_constr(coeffs, LE, rhs)
        sol = solve_lp(m)
        assert sol.status == OPTIMAL
        for k, (coeffs, rhs) in enumerate(rows):
            dual = sol.duals[k]
            assert dual >= -1e-7
            activity = sum(cc * sol.x[j] for j, cc in coeffs.items())
            if dual > 1e-6:
                assert activity == pytest.approx(rhs, abs=1e-6)


# -- warm re-solves from a parent basis --------------------------------------------


def _random_bounded_lp(rng):
    n = rng.randint(3, 8)
    m = LinearModel("rand")
    for _ in range(n):
        lo = rng.choice([0, 0, -3])
        m.add_var(lo, lo + rng.randint(1, 9), obj=rng.randint(-9, 9), integer=True)
    for _ in range(rng.randint(2, 6)):
        coeffs = {j: rng.randint(-5, 5) for j in range(n) if rng.random() < 0.7}
        m.add_constr(coeffs, rng.choice([LE, LE, GE, EQ]), rng.randint(-6, 14))
    return m


def _pricing_models():
    from lsfrp.formulations import build_ship_revised
    from lsfrp.io import GeneratorParams, generate_random
    from lsfrp.lazy import build_compact_pricing

    for seed in range(6):
        ins = generate_random(
            GeneratorParams(ships=2, visits=10, demands=8, capacity_dc_range=(25, 60), seed=seed)
        )
        rng = random.Random(seed)
        prices = {v.id: rng.uniform(0.0, 40.0) for v in ins.visits}
        for ship in ins.ships:
            yield build_ship_revised(ins, ship, prices)[0]
            yield build_compact_pricing(ins, ship.id, prices).model


def _kkt_ok(model, overrides, sol, tol=1e-6):
    """Complementary slackness of the duals, and sign of every reduced cost."""
    x, y = sol.x, sol.duals
    d = np.array(model.obj, dtype=float)
    for i, r in enumerate(model.rows):
        activity = sum(c * x[j] for j, c in r.coeffs.items())
        if r.sense == LE and y[i] < -tol or r.sense == GE and y[i] > tol:
            return False
        if abs(y[i]) > tol and abs(activity - r.rhs) > tol * (1 + abs(r.rhs)):
            return False
        for j, c in r.coeffs.items():
            d[j] -= y[i] * c
    for j in range(model.num_vars):
        lo, hi = (overrides or {}).get(j, (model.lb[j], model.ub[j]))
        if d[j] > tol and x[j] < hi - tol or d[j] < -tol and x[j] > lo + tol:
            return False
    return True


def _highs_objective(model, overrides):
    """HiGHS optimum of the same LP, or None when it reports infeasible."""
    res = _linprog(model, overrides)
    assert res.status in (0, 2), res.message
    return -res.fun if res.status == 0 else None


def _linprog(model, overrides, **options):
    """scipy's HiGHS result for the same LP (scipy negates the objective)."""
    from scipy.optimize import linprog

    rows = model.rows
    n = model.num_vars

    def dense(rs, sign):
        a = np.zeros((len(rs), n))
        for i, r in enumerate(rs):
            for j, c in r.coeffs.items():
                a[i, j] = sign(r) * c
        return a

    ub_rows = [r for r in rows if r.sense != EQ]
    eq_rows = [r for r in rows if r.sense == EQ]
    flip = lambda r: -1.0 if r.sense == GE else 1.0
    bounds = [
        (overrides or {}).get(j, (model.lb[j], model.ub[j])) for j in range(n)
    ]
    return linprog(
        -np.array(model.obj),
        A_ub=dense(ub_rows, flip) if ub_rows else None,
        b_ub=[flip(r) * r.rhs for r in ub_rows] if ub_rows else None,
        A_eq=dense(eq_rows, lambda r: 1.0) if eq_rows else None,
        b_eq=[r.rhs for r in eq_rows] if eq_rows else None,
        bounds=[(None if lo == -INF else lo, None if hi == INF else hi) for lo, hi in bounds],
        method="highs",
        options=options,
    )


def _warm_cases(model):
    """(model, bound overrides) re-solves of an optimal root: both branches
    on the first fractional integer variable, and a copy of the model with
    one appended row that cuts the root point off."""
    root = solve_lp(model)
    if root.status != OPTIMAL:
        return root, []
    cases = []
    frac = [j for j in range(model.num_vars) if model.is_int[j] and abs(root.x[j] - round(root.x[j])) > 1e-6]
    if frac:
        j = frac[0]
        cases.append((model, {j: (model.lb[j], math.floor(root.x[j]))}))
        cases.append((model, {j: (math.ceil(root.x[j]), model.ub[j])}))
    support = [j for j in range(model.num_vars) if root.x[j] > model.lb[j] + 1e-6]
    if support:
        coeffs = {j: 1.0 for j in support}
        activity = sum(root.x[j] for j in support)
        cases.append((_appended(model, [Constraint(coeffs, LE, activity - 0.5)]), {}))
    return root, cases


def test_warm_resolves_match_cold(monkeypatch):
    from fixtures import record_seeded_starts

    starts = record_seeded_starts(monkeypatch)
    rng = random.Random(31)
    models = [_random_bounded_lp(rng) for _ in range(250)] + list(_pricing_models())
    compared = infeasible = warm_pivots = cold_pivots = 0
    for model in models:
        root, cases = _warm_cases(model)
        for case, overrides in cases:
            warm = solve_lp(case, overrides, warm=root.basis)
            cold = solve_lp(case, overrides)
            assert warm.status == cold.status
            compared += 1
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
            if cold.status == INFEASIBLE:
                infeasible += 1
                continue
            assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
            assert _kkt_ok(case, overrides, warm)
    assert compared >= 300 and infeasible >= 10
    # a warm path that silently fell back to the slack start every time
    # would spend more pivots than the cold solves, not fewer; an
    # infeasible re-solve is proved so on the warm path itself
    assert warm_pivots < cold_pivots / 2
    assert not [status for _, status in starts if status == BREAKDOWN]


def test_warm_resolves_match_highs():
    pytest.importorskip("scipy")
    rng = random.Random(47)
    models = [_random_bounded_lp(rng) for _ in range(60)] + list(itertools.islice(_pricing_models(), 8))
    for model in models:
        root, cases = _warm_cases(model)
        for case, overrides in cases:
            warm = solve_lp(case, overrides, warm=root.basis)
            ref = _highs_objective(case, overrides)
            if ref is None:
                assert warm.status == INFEASIBLE
            else:
                assert warm.status == OPTIMAL
                assert warm.objective == pytest.approx(ref, rel=1e-7, abs=1e-7)


def test_arcflow_root_lps_match_highs():
    pytest.importorskip("scipy")
    from lsfrp.formulations import build_arcflow
    from lsfrp.io import GeneratorParams, generate_random

    rng = random.Random(71)
    for seed in range(40):
        # every generated visit has a sink arc, so each root LP is feasible
        ins = generate_random(GeneratorParams(
            ships=rng.randint(1, 3), ship_types=rng.randint(1, 2), visits=rng.randint(8, 16),
            demands=rng.randint(0, 12), arc_density=rng.uniform(0.3, 0.6),
            capacity_dc_range=rng.choice([(25, 60), (60, 160)]), seed=seed,
        ))
        for method in ("reduced", "reduced-tight", "revised"):
            model, _ = build_arcflow(ins, method)
            status, ref = _highs_verdict(model, None)
            sol = solve_lp(model)
            assert (status, sol.status) == (OPTIMAL, OPTIMAL), (seed, method)
            assert sol.objective == pytest.approx(ref, rel=1e-6), (seed, method)


def test_warm_basis_is_read_only_and_shared():
    m = knap([10, 9, 8, 7], [5, 5, 4, 3], 9)
    root = solve_lp(m)
    assert lp_module._row_block(m)[0].shape == (m.num_rows, m.num_vars)  # slacks implicit
    before = (root.basis.basic.copy(), root.basis.state.copy())
    for j in range(m.num_vars):
        solve_lp(m, {j: (0.0, 0.0)}, warm=root.basis)
        solve_lp(m, {j: (1.0, 1.0)}, warm=root.basis)
    assert np.array_equal(root.basis.basic, before[0])
    assert np.array_equal(root.basis.state, before[1])
    with pytest.raises(ValueError):
        root.basis.state[0] = 0
    with pytest.raises(ValueError):
        root.basis.inverse[0, 0] = 1.0


def test_unusable_warm_basis_falls_back_to_cold():
    m = LinearModel()
    x = m.add_var(0, 1, obj=2.0)
    y = m.add_var(0, 1, obj=1.0)
    m.add_constr({x: 1.0, y: 1.0}, LE, 1.0)
    m.add_constr({x: 1.0, y: 1.0}, LE, 1.5)
    cold = solve_lp(m)
    wider = LinearModel()
    for j in range(2):
        wider.add_var(0, 1, obj=m.obj[j])
    for r in m.rows + [Constraint({x: 1.0}, LE, 0.5)]:
        wider.add_constr(r.coeffs, r.sense, r.rhs)
    too_many_rows = solve_lp(wider).basis
    # x and y have equal columns, so a basis of both is singular
    singular = LpBasis(np.array([x, y]), np.array([0, 0, 1, 1], dtype=np.int8))
    for basis in (too_many_rows, singular):
        sol = solve_lp(m, warm=basis)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(cold.objective, abs=1e-9)


def test_warm_resolve_honours_deadline():
    m = knap([10, 9, 8, 7], [5, 5, 4, 3], 9)
    root = solve_lp(m)
    sol = solve_lp(m, {0: (0.0, 0.0)}, deadline=time.monotonic() - 1.0, warm=root.basis)
    assert sol.status == TIME_LIMIT


def test_deadline_is_checked_on_every_pivot(monkeypatch):
    # every row x_j >= 1 is violated at the slack basis: three dual pivots
    m = LinearModel()
    for j in range(3):
        m.add_var(0, 10, obj=-1.0)
        m.add_constr({j: 1.0}, GE, 1.0)
    assert solve_lp(m).iterations >= 3
    # the clock passes the deadline right after its first reading
    readings = itertools.count()
    monkeypatch.setattr(lp_module.time, "monotonic", lambda: 0.0 if next(readings) == 0 else 2.0)
    sol = solve_lp(m, deadline=1.0)
    assert sol.status == TIME_LIMIT and sol.iterations <= 2


def _rebuilt(model):
    """A fresh model with the same variables and rows, so no cached state."""
    out = LinearModel(model.name)
    for j in range(model.num_vars):
        out.add_var(model.lb[j], model.ub[j], model.obj[j], model.is_int[j])
    for r in model.rows:
        out.add_constr(r.coeffs, r.sense, r.rhs)
    return out


def _appended(model, rows):
    """A rebuilt copy of the model with the rows appended, so that a basis
    of the model covers a prefix of the copy's rows."""
    out = _rebuilt(model)
    for r in rows:
        out.add_constr(r.coeffs, r.sense, r.rhs)
    return out


def test_edits_after_a_solve_reach_the_next_solve():
    rng = random.Random(13)
    for _ in range(40):
        model = _random_bounded_lp(rng)
        solve_lp(model)
        for j in range(model.num_vars):
            model.set_objective_coeff(j, rng.randint(-9, 9))
            lo = model.lb[j] + rng.choice([0, 0, 1])
            model.set_bounds(j, lo, max(lo, model.ub[j] - rng.choice([0, 1])))
        if rng.random() < 0.5:
            model.add_constr({0: 1.0, 1: 1.0}, LE, rng.randint(0, 6))
        edited, fresh = solve_lp(model), solve_lp(_rebuilt(model))
        assert edited.status == fresh.status
        assert edited.objective == pytest.approx(fresh.objective, abs=1e-9)
        assert solve_mip(model).objective == pytest.approx(solve_mip(_rebuilt(model)).objective, abs=1e-9)


def test_warm_mip_after_edits_matches_cold(monkeypatch):
    from fixtures import record_seeded_starts, record_warm_roots

    import lsfrp.lp as lp_module

    warm_roots = record_warm_roots(monkeypatch)
    starts = record_seeded_starts(monkeypatch)
    rng = random.Random(71)
    compared = 0
    for _ in range(200):
        model = _random_bounded_lp(rng)
        first = lp_module.solve_mip(model)
        if first.root_basis is None:
            continue  # infeasible root: nothing to warm-start from
        for j in range(model.num_vars):
            model.set_objective_coeff(j, model.obj[j] + rng.randint(-4, 4))
        j = rng.randrange(model.num_vars)
        lo, hi = model.lb[j], model.ub[j]
        model.set_bounds(j, *rng.choice([(lo, lo + (hi - lo) // 2), (lo + (hi - lo) // 2, hi)]))
        warm = lp_module.solve_mip(model, warm=first.root_basis)
        cold = lp_module.solve_mip(_rebuilt(model))
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        compared += 1
    assert compared >= 100
    assert warm_roots["warm"] >= compared // 2
    # every seeded start, at the root or a node, finishes on the warm path
    assert not [status for _, status in starts if status == BREAKDOWN]


def test_root_basis_covers_the_root_cuts():
    m = knap([10, 9, 8, 7], [5, 5, 4, 3], 9)
    plain = solve_mip(m)
    assert isinstance(plain.root_basis, LpBasis)
    assert plain.root_basis.basic.size == m.num_rows
    assert plain.root_basis.state.size == m.num_vars + m.num_rows

    # neither pair of neighbours may both be taken; the cuts are only found
    # at a candidate, they become the model's rows in the order returned,
    # and every cut the root adds is in its basis
    cuts = [Constraint({0: 1.0, 1: 1.0}, LE, 1.0), Constraint({1: 1.0, 2: 1.0}, LE, 1.0)]
    m = LinearModel()
    for c in (3.0, 2.0, 1.0):
        m.add_var(0, 1, obj=c, integer=True)
    sol = solve_mip(m, on_candidate=lambda x: cuts if x[0] + x[1] > 1.5 else [])
    assert sol.cuts_added == 2 and sol.nodes == 1
    assert m.rows == cuts
    assert sol.root_basis.basic.size == m.num_rows
    again = solve_mip(m, warm=sol.root_basis)
    assert again.objective == pytest.approx(sol.objective)
    assert solve_mip(knap([1], [1], 0)).root_basis is not None


def test_unusable_warm_basis_falls_back_to_cold_in_mip():
    m = LinearModel()
    x = m.add_var(0, 1, obj=2.0, integer=True)
    y = m.add_var(0, 1, obj=1.0, integer=True)
    m.add_constr({x: 1.0, y: 1.0}, LE, 1.0)
    m.add_constr({x: 2.0, y: 2.0}, LE, 3.0)
    cold = solve_mip(m)
    wrong_size = solve_mip(knap([10, 9, 8, 7], [5, 5, 4, 3], 9)).root_basis
    # x and y have parallel columns, so a basis of both is singular
    singular = LpBasis(np.array([x, y]), np.array([0, 0, 1, 1], dtype=np.int8))
    # x is marked basic but the rows' basic columns are the two slacks
    inconsistent = LpBasis(np.array([2, 3]), np.array([0, 1, 0, 0], dtype=np.int8))
    for basis in (wrong_size, singular, inconsistent):
        sol = solve_mip(m, warm=basis)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(cold.objective, abs=1e-9)


# -- appended columns and the carried basis inverse ------------------------------


def _full_matrix(model):
    """``[A | I]`` over the model's rows."""
    n, m = model.num_vars, model.num_rows
    full = np.zeros((m, n + m))
    for i, r in enumerate(model.rows):
        for j, c in r.coeffs.items():
            full[i, j] = c
        full[i, n + i] = 1.0
    return full


def _basis_matrix(model, basis):
    """Columns of ``[A | I]`` that the basis names."""
    return _full_matrix(model)[:, basis.basic]


def _add_random_columns(rng, model, count):
    for _ in range(count):
        rows = rng.sample(range(model.num_rows), rng.randint(1, model.num_rows))
        lo = rng.choice([0, 0, 0, -2])
        model.add_var(lo, lo + rng.randint(1, 6), obj=rng.randint(-6, 9),
                      column={i: rng.randint(-4, 4) for i in rows})


def test_column_appends_resolve_warm_like_cold():
    rng = random.Random(83)
    compared = warm_pivots = cold_pivots = 0
    for trial in range(400):
        model = _random_bounded_lp(rng)
        root = solve_lp(model)
        if root.status != OPTIMAL:
            continue
        _add_random_columns(rng, model, rng.randint(1, 3))
        extra = []
        if trial % 2:
            n = model.num_vars
            coeffs = {j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.6}
            extra.append(Constraint(coeffs, rng.choice([LE, GE]), rng.randint(-2, 8)))
        model = _appended(model, extra)
        warm = solve_lp(model, warm=root.basis)
        cold = solve_lp(model)
        assert warm.status == cold.status
        compared += 1
        warm_pivots += warm.iterations
        cold_pivots += cold.iterations
        if cold.status != OPTIMAL:
            continue
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
        assert _kkt_ok(model, None, warm)
        B = _basis_matrix(model, warm.basis)
        assert np.allclose(warm.basis.inverse @ B, np.eye(B.shape[0]), atol=1e-8)
    assert compared >= 150
    assert warm_pivots < cold_pivots / 2


def test_column_appends_resolve_like_highs():
    pytest.importorskip("scipy")
    rng = random.Random(89)
    for trial in range(80):
        model = _random_bounded_lp(rng)
        root = solve_lp(model)
        if root.status != OPTIMAL:
            continue
        _add_random_columns(rng, model, rng.randint(1, 3))
        extra = []
        if trial % 2:
            coeffs = {j: 1.0 for j in range(root.x.size) if root.x[j] > model.lb[j] + 1e-6}
            extra.append(Constraint(coeffs, LE, rng.randint(0, 6)))
        model = _appended(model, extra)
        warm = solve_lp(model, warm=root.basis)
        ref = _highs_objective(model, None)
        if ref is None:
            assert warm.status == INFEASIBLE
        else:
            assert warm.status == OPTIMAL
            assert warm.objective == pytest.approx(ref, rel=1e-7, abs=1e-7)


def test_warm_chain_carries_the_inverse_across_refactors():
    """Each solve of a growing model starts from the last one's basis; the
    chain's pivots pass the refactor interval, so the carried inverse ages
    across solves and is recomputed on the way."""
    rng = random.Random(97)
    model = LinearModel("chain")
    for _ in range(12):
        model.add_var(0, rng.randint(2, 9), obj=rng.randint(-3, 9))
    for _ in range(25):
        coeffs = {j: rng.randint(1, 5) for j in range(model.num_vars) if rng.random() < 0.5}
        model.add_constr(coeffs, LE, rng.randint(10, 40))
    sol = solve_lp(model)
    pivots, ages, carried = 0, [sol.basis.age], 0
    for step in range(400):
        for j in rng.sample(range(model.num_vars), 4):
            model.set_objective_coeff(j, rng.randint(-3, 12))
        rows = rng.sample(range(model.num_rows), 6)
        model.add_var(0, rng.randint(2, 9), obj=rng.randint(0, 12),
                      column={i: rng.randint(1, 5) for i in rows})
        if step % 10 == 9:
            coeffs = {j: 1.0 for j in range(sol.x.size) if sol.x[j] > 1e-6}
            model.add_constr(coeffs, LE, max(1.0, sum(sol.x) - 1.0))
        warm = solve_lp(model, warm=sol.basis)
        cold = solve_lp(_rebuilt(model))
        assert warm.status == cold.status == OPTIMAL
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
        assert _kkt_ok(model, None, warm)
        carried += warm.basis.age > warm.iterations
        pivots += warm.iterations
        ages.append(warm.basis.age)
        sol = warm
        if pivots > 2 * _REFACTOR_EVERY:
            break
    assert pivots > 2 * _REFACTOR_EVERY
    assert carried >= 1  # ages add up across solves ...
    assert any(b < a for a, b in zip(ages, ages[1:]))  # ... until a refactor
    assert max(ages) <= _REFACTOR_EVERY
    B = _basis_matrix(model, sol.basis)
    assert np.allclose(sol.basis.inverse @ B, np.eye(B.shape[0]), atol=1e-8)


def test_slack_start_with_a_violated_row_seeds_warm_solve():
    # x >= 2 is violated at the slack start x = 0, so the dual loop pivots
    # x into the basis before the primal loop runs; the exported basis and
    # its inverse then seed warm re-solves like any other
    model = LinearModel()
    x = model.add_var(0, 2, obj=1.0)
    y = model.add_var(0, 5, obj=1.0)
    model.add_constr({x: -1.0}, LE, -2.0)
    model.add_constr({x: 1.0, y: 1.0}, LE, 4.0)
    root = solve_lp(model)
    assert root.status == OPTIMAL and root.iterations >= 1
    assert root.x[x] == pytest.approx(2.0) and root.objective == pytest.approx(4.0)
    m = model.num_rows
    assert np.allclose(root.basis.inverse @ _basis_matrix(model, root.basis), np.eye(m))
    cut = _appended(model, [Constraint({y: 1.0}, LE, 1.0)])
    for case, overrides in ((model, {x: (0.0, 1.0)}), (model, {x: (0.0, 3.0)}), (cut, {})):
        warm = solve_lp(case, overrides, warm=root.basis)
        cold = solve_lp(case, overrides)
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert _kkt_ok(case, overrides, warm)


def _record_open_nodes(monkeypatch):
    """Per push onto the B&B heap: (the pushed basis, the bytes of the
    distinct inverses that open nodes hold once it is pushed).  A heap
    entry is (-parent bound, insertion index, node), and a node is
    (bound overrides, parent basis)."""
    pushed = []
    real_push = lp_module.heapq.heappush

    def heappush(heap, item):
        real_push(heap, item)
        inverses = {id(b.inverse): b.inverse.nbytes for *_, (_, b) in heap if b and b.inverse is not None}
        pushed.append((item[2][1], sum(inverses.values())))

    monkeypatch.setattr(lp_module.heapq, "heappush", heappush)
    return pushed


BNB_KNAPSACK = ([31, 29, 27, 23, 21, 19, 17], [16, 15, 14, 12, 11, 10, 9], 40)


def test_open_nodes_share_one_inverse_within_a_byte_budget(monkeypatch):
    pushed = _record_open_nodes(monkeypatch)
    sol = solve_mip(knap(*BNB_KNAPSACK))
    assert sol.status == OPTIMAL and sol.nodes > 20
    # the two children of a node are pushed together and share its inverse
    pairs = list(zip(pushed[::2], pushed[1::2]))
    assert pairs and len(pushed) % 2 == 0
    assert all(down.inverse is not None and down.inverse is up.inverse for (down, _), (up, _) in pairs)

    # a budget of two one-row inverses: children beyond it get none
    pushed.clear()
    monkeypatch.setattr(lp_module, "_OPEN_INVERSE_BYTES", 16)
    assert solve_mip(knap(*BNB_KNAPSACK)).objective == sol.objective
    assert all(held <= 16 for _, held in pushed)
    assert {basis.inverse is None for basis, _ in pushed} == {True, False}

    # a budget of 0: no open node holds an inverse
    pushed.clear()
    monkeypatch.setattr(lp_module, "_OPEN_INVERSE_BYTES", 0)
    assert solve_mip(knap(*BNB_KNAPSACK)).objective == sol.objective
    assert pushed and all(basis is not None and basis.inverse is None for basis, _ in pushed)


def test_bnb_children_invert_nothing(monkeypatch):
    """Every node LP of a knapsack B&B starts from its parent's inverse, so
    none that ends optimal calls np.linalg.inv; an infeasible one may, once,
    to confirm its proof on a fresh inverse."""
    inversions, solves = [], []
    real_inv, real_solve_lp = lp_module.np.linalg.inv, lp_module.solve_lp

    def inv(a):
        inversions[-1] += 1
        return real_inv(a)

    def solve_lp(*args, **kwargs):
        inversions.append(0)
        sol = real_solve_lp(*args, **kwargs)
        solves.append((sol.status, inversions[-1]))
        return sol

    monkeypatch.setattr(lp_module.np.linalg, "inv", inv)
    monkeypatch.setattr(lp_module, "solve_lp", solve_lp)
    sol = solve_mip(knap(*BNB_KNAPSACK))
    assert sol.status == OPTIMAL and sol.nodes > 20
    assert {status for status, _ in solves} == {OPTIMAL, INFEASIBLE}
    assert all(count == 0 for status, count in solves if status == OPTIMAL)
    assert all(count <= 1 for status, count in solves)
    # with the budget at 0 the children get their parent's basis only
    solves.clear()
    monkeypatch.setattr(lp_module, "_OPEN_INVERSE_BYTES", 0)
    solve_mip(knap(*BNB_KNAPSACK))
    assert sum(count for status, count in solves if status == OPTIMAL) > 10


# -- differential check of the simplex loops against HiGHS -------------------------


def _differential_lp(rng, kind):
    """A random LP built around an integer point.  "degenerate": every row
    is tight at a point on its bounds, and a few rows may be shifted off it
    (possibly infeasible).  "free": some columns are free.  "unbounded":
    some columns have no upper bound.  "box": no rows, and some columns are
    free or have one infinite bound.  The last three contain the point, so
    they are feasible and either optimal or unbounded."""
    n = rng.randint(3, 9)
    model = LinearModel(kind)
    point = []
    for _ in range(n):
        if kind == "free" and rng.random() < 0.4:
            lo, hi, value = -INF, INF, rng.randint(-3, 3)
        elif kind == "unbounded" and rng.random() < 0.5:
            lo, hi, value = 0, INF, rng.randint(0, 4)
        elif kind == "box" and rng.random() < 0.3:
            lo, hi, value = rng.choice([(-INF, INF), (0, INF), (-INF, 0)]) + (0,)
        else:
            lo = rng.choice([0, 0, -2])
            hi = lo + rng.randint(0, 6)
            value = rng.choice([lo, hi]) if kind == "degenerate" else rng.randint(lo, hi)
        model.add_var(lo, hi, obj=rng.randint(-6, 6))
        point.append(value)
    for _ in range(0 if kind == "box" else rng.randint(2, 2 * n)):
        coeffs = {j: rng.randint(-4, 4) for j in range(n) if rng.random() < 0.6}
        activity = sum(c * point[j] for j, c in coeffs.items())
        sense = rng.choice([LE, LE, GE, EQ])
        if kind == "degenerate":
            shift = rng.randint(-3, 3) if rng.random() < 0.15 else 0
        else:
            shift = {LE: rng.randint(0, 4), GE: -rng.randint(0, 4), EQ: 0}[sense]
        model.add_constr(coeffs, sense, activity + shift)
    return model


def _highs_verdict(model, overrides):
    """(status, objective) of HiGHS's simplex on the same LP."""
    res = _linprog(model, overrides, presolve=False)
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status)
    assert status is not None, res.message
    return status, (-res.fun if status == OPTIMAL else None)


def _assert_fresh_reduced_costs_optimal(model, overrides, basis, tol=1e-7):
    """Reduced costs recomputed from scratch at the basis have the sign
    each column's state needs for optimality."""
    full = _full_matrix(model)
    c = np.concatenate([np.array(model.obj, dtype=float), np.zeros(full.shape[0])])
    y = np.linalg.solve(full[:, basis.basic].T, c[basis.basic])
    d = c - y @ full
    for j, s in enumerate(basis.state):
        if s == lp_module._AT_LOWER:
            assert d[j] <= tol
        elif s == lp_module._AT_UPPER:
            assert d[j] >= -tol
        else:
            assert abs(d[j]) <= tol  # basic, or nonbasic free
            if s == lp_module._FREE:
                assert (overrides or {}).get(j, (model.lb[j], model.ub[j])) == (-INF, INF)


@pytest.mark.parametrize("refactor_every", [_REFACTOR_EVERY, 2], ids=["default", "every2"])
def test_kernel_matches_highs_on_degenerate_free_and_unbounded_lps(monkeypatch, refactor_every):
    pytest.importorskip("scipy")
    from fixtures import record_seeded_starts

    monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", refactor_every)
    starts = record_seeded_starts(monkeypatch)
    rng = random.Random(59)
    seen: dict[tuple[str, str], int] = {}
    for trial in range(480):
        model = _differential_lp(rng, ("degenerate", "free", "unbounded", "box")[trial % 4])
        cold = solve_lp(model)
        solves = [(None, cold)]
        bounded = [j for j in range(model.num_vars) if 1 <= model.ub[j] - model.lb[j] < INF]
        if cold.status == OPTIMAL and bounded:
            # a warm re-solve through the dual loop: one bounded column
            # fixed at the end of its range away from its optimal value
            j = bounded[trial % len(bounded)]
            end = model.lb[j] if cold.x[j] > model.lb[j] + 0.5 else model.ub[j]
            solves.append(({j: (end, end)}, solve_lp(model, {j: (end, end)}, warm=cold.basis)))
        for overrides, sol in solves:
            status, ref = _highs_verdict(model, overrides)
            assert sol.status == status, (model.name, trial)
            seen[(model.name, status)] = seen.get((model.name, status), 0) + 1
            if status == OPTIMAL:
                assert abs(sol.objective - ref) <= 1e-9 * (1 + abs(ref))
                _assert_fresh_reduced_costs_optimal(model, overrides, sol.basis)
    assert seen.get(("degenerate", OPTIMAL), 0) >= 50
    assert seen.get(("degenerate", INFEASIBLE), 0) >= 10
    assert seen.get(("free", OPTIMAL), 0) >= 20
    assert seen.get(("free", UNBOUNDED), 0) + seen.get(("unbounded", UNBOUNDED), 0) >= 40
    assert seen.get(("box", OPTIMAL), 0) >= 20
    assert seen.get(("box", UNBOUNDED), 0) >= 20
    assert not [status for _, status in starts if status == BREAKDOWN]
