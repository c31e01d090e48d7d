"""Independent references for every objective the benchmark times.

* instances without empty points: HiGHS (``scipy.optimize.milp``) on the
  ``build_revised`` model;
* instances with empty points: the brute-force oracle, which shares no
  formulation code with the five methods;
* root LPs: HiGHS (``scipy.optimize.linprog(method="highs")``) on the
  very model the embedded simplex solved.

All of this runs outside the timed window.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csr_matrix, vstack

REL_TOL = 1e-6
ORACLE_BUDGET = 10**7
HIGHS_TIME_LIMIT = 120.0


class NoReference(RuntimeError):
    """No trustworthy reference value could be computed."""


def matches(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * (1.0 + abs(reference))


def _rows(model):
    """Constraint matrix ``a`` and row bounds with ``lo <= a @ x <= hi``."""
    data, rows, cols = [], [], []
    lo = np.full(model.num_rows, -np.inf)
    hi = np.full(model.num_rows, np.inf)
    for i, r in enumerate(model.rows):
        for j, c in r.coeffs.items():
            data.append(c)
            rows.append(i)
            cols.append(j)
        if r.sense in (">=", "=="):
            lo[i] = r.rhs
        if r.sense in ("<=", "=="):
            hi[i] = r.rhs
    return csr_matrix((data, (rows, cols)), shape=(model.num_rows, model.num_vars)), lo, hi


def lp_value(model) -> float:
    """Optimal value of the model's LP relaxation (the model maximizes)."""
    a, lo, hi = _rows(model)
    eq = lo == hi
    le = ~eq & np.isfinite(hi)
    ge = ~eq & np.isfinite(lo)
    res = linprog(
        -np.array(model.obj),
        A_ub=vstack([a[le], -a[ge]]), b_ub=np.concatenate([hi[le], -lo[ge]]),
        A_eq=a[eq] if eq.any() else None, b_eq=lo[eq] if eq.any() else None,
        bounds=[(lb, None if math.isinf(ub) else ub) for lb, ub in zip(model.lb, model.ub)],
        method="highs",
    )
    if res.status != 0:
        raise NoReference(f"HiGHS LP status {res.status}: {res.message}")
    return -float(res.fun)


def mip_value(model) -> float:
    """Optimal value of the model as a MIP, solved to a 1e-9 relative gap."""
    a, lo, hi = _rows(model)
    res = milp(
        -np.array(model.obj),
        integrality=np.array(model.is_int, dtype=int),
        bounds=Bounds(np.array(model.lb), np.array(model.ub)),
        constraints=[LinearConstraint(a, lo, hi)] if model.num_rows else [],
        options={"mip_rel_gap": 1e-9, "time_limit": HIGHS_TIME_LIMIT},
    )
    if res.status != 0:
        raise NoReference(f"HiGHS MIP status {res.status}: {res.message}")
    return -float(res.fun)


def instance_value(lsfrp, instance) -> float:
    """Proven optimum of an instance, from HiGHS or, with empty points, the oracle."""
    if instance.empty_points:
        try:
            sol = lsfrp.oracle.brute_force_solve(instance, budget=ORACLE_BUDGET)
        except lsfrp.oracle.OracleBudgetError as exc:
            raise NoReference(f"oracle refused: {exc}") from exc
        if sol.status != "optimal":
            raise NoReference(f"oracle status {sol.status}")
        return float(sol.objective)
    model, _ = lsfrp.formulations.build_revised(instance)
    return mip_value(model)
