"""Property test of warm re-solves that share one basis.

Open branch-and-bound nodes hand both children their parent's final basis,
inverse included, and the children are popped in any order; so one optimal
basis must seed any number of re-solves under different bound overrides,
each matching a cold solve, and come out of them unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lsfrp.lp import EQ, GE, LE, OPTIMAL, LinearModel, solve_lp


@st.composite
def bounded_lps(draw):
    """The columns (lb, ub, obj) and rows (coeffs, sense, rhs) of a boxed
    LP whose rows all hold at an integer point inside the box, so its root
    solve is optimal."""
    columns, rows, point = [], [], []
    for _ in range(draw(st.integers(2, 7))):
        lo = draw(st.sampled_from([0, 0, -3]))
        hi = lo + draw(st.integers(1, 9))
        columns.append((lo, hi, draw(st.integers(-9, 9))))
        point.append(draw(st.integers(lo, hi)))
    for _ in range(draw(st.integers(1, 5))):
        coeffs = draw(st.dictionaries(st.integers(0, len(columns) - 1), st.integers(-5, 5), min_size=1))
        activity = sum(c * point[j] for j, c in coeffs.items())
        sense = draw(st.sampled_from([LE, LE, GE, EQ]))
        room = 0 if sense == EQ else draw(st.integers(0, 6))
        rows.append((coeffs, sense, activity + room if sense == LE else activity - room))
    return columns, rows


def _model(lp) -> LinearModel:
    columns, rows = lp
    model = LinearModel("prop")
    for lo, hi, obj in columns:
        model.add_var(lo, hi, obj=obj)
    for coeffs, sense, rhs in rows:
        model.add_constr(coeffs, sense, rhs)
    return model


@st.composite
def bound_overrides(draw, model):
    """Tightened bounds on some columns, inside their model bounds."""
    chosen = draw(st.sets(st.integers(0, model.num_vars - 1), min_size=1, max_size=3))
    overrides = {}
    for j in sorted(chosen):
        lo = draw(st.integers(int(model.lb[j]), int(model.ub[j])))
        overrides[j] = (lo, draw(st.integers(lo, int(model.ub[j]))))
    return overrides


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_one_basis_seeds_resolves_under_any_overrides_in_any_order(data):
    lp = data.draw(bounded_lps())
    model = _model(lp)
    root = solve_lp(model)
    assert root.status == OPTIMAL
    seed = root.basis
    before = [arr.copy() for arr in (seed.basic, seed.state, seed.inverse)]
    columns = (list(model.lb), list(model.ub), list(model.obj))
    for overrides in data.draw(st.lists(bound_overrides(model), min_size=2, max_size=6)):
        warm = solve_lp(model, overrides, warm=seed)
        # each cold solve has a model of its own, so that nothing a solve
        # leaves on the model the warm ones share goes unseen
        cold = solve_lp(_model(lp), overrides)
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + abs(cold.objective))
    after = (seed.basic, seed.state, seed.inverse)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    # overrides go into each solve's own arrays, never into the model
    assert (model.lb, model.ub, model.obj) == columns
