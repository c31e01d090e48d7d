"""Self-contained LP/MIP kernel.

A dense bounded-variable simplex (explicit basis inverse, a bounded dual
loop, then a primal loop with a Bland safeguard) and one deterministic
best-bound search, which runs both ``solve_mip``'s branch and bound with a
lazy-cut callback and column generation's branch-and-price.  Everything
downstream of the instance model solves through this module; an external
solver could be slotted in behind the same two entry points, but the
embedded simplex is the default and the one the test suite exercises.

A model carries numbers only.  A variable or a row is its index, the
one ``add_var`` or ``add_constr`` returns; the model keeps no name per
entry, and the builder that made it keeps the key map that says what each
index means (``ArcFlowVars.y``/``.x``, ``CompactModel.xvars``/``.evars``/
``.cut_rows``, ``RestrictedMaster.ship_rows``/``.visit_rows``/
``.req_rows``).  The one label is the model's own ``name``.

A solve reads its rows from the model and nowhere else.  Lazy cuts are
model rows too: ``solve_mip`` appends each cut its callback returns with
``add_constr``, so the cuts hold at every later node and are still in the
model when the search returns.  The kernel keeps only the dense m x n block
A of the rows' coefficients, cached on the model until its next
``add_var``/``add_constr``, so bound and objective edits cost no rebuild.
The slack columns, the I of ``[A | I]``, are never stored: four
``_Simplex`` methods, the only readers of A, supply them.  That block is
the model's one cache.  Each solve reads the bounds and costs of the
columns from the model's lists (``lb``, ``ub``, ``obj``) into arrays of
its own, beside the slack bounds of the block, and writes its bound
overrides there; a bound or cost edit is a plain write to the lists.

Every solve starts from a basis and runs one path: the bounded dual loop
moves the basic values into their bounds, then the primal loop reaches
optimality.  A solve without a warm basis starts from
``slack_basis(model)``: every row's slack basic, every column at its
lower bound (at its upper bound, or free at zero, when it has no finite
lower one).  That basis need not be dual feasible; the dual ratio test
reads a reduced cost of the wrong sign as zero, and the primal loop
settles the rest.  An optimal solve returns its final basis.  Given that
basis, a re-solve after bound changes or appended rows (a branch-and-bound
child, or a node re-solved with new lazy cuts) starts closer: the
appended rows' slacks enter the basis, which stays dual feasible, so the
dual loop has few pivots to make.  Columns appended with
``add_var(column=...)`` enter nonbasic at a bound, so after an append at
zero the old basis stays primal feasible and the primal loop goes on from
the old vertex; the restricted master of column generation grows this
way.  Should a warm start break down or hit its iteration cap, the same
call starts again from the slack basis.  A model without rows takes the
same path from an empty basis, and its column moves are bound flips.

The basis carries its inverse (``LpBasis.inverse``) and the number of
rank-one updates applied since that inverse was last computed from
scratch (``LpBasis.age``).  Bound and objective edits leave the inverse as
it is, appended rows extend it by a block and appended columns stay out
of the basis, so a warm start inverts nothing; the refactorization every
``_REFACTOR_EVERY`` updates counts across a chain of warm solves.  A
warm start on an unchanged set of rows and columns copies the basis and
its inverse as they are.  Both children of a branched node hold their
parent's final basis, one read-only inverse between them: a bound change
leaves B as it is, so that inverse is exact for either.  The inverses the
open nodes hold stay within ``_OPEN_INVERSE_BYTES``; once that is full,
new children get the basis without its inverse and invert it when popped.

Column generation re-solves each ship's pricing MIP once per round, and
only the objective, some bounds and appended cut rows change in between.
The pricing engines keep one model per ship, edit it in place, and pass
the last round's root basis (``MipSolution.root_basis``; none on the
first round, which starts from the slack basis) back to
``solve_mip(warm=...)``.  After a price change that basis is still primal
feasible, so the dual loop has nothing to do and the primal loop goes on
from the old vertex; bound changes and new rows give the dual loop work.

The models are small (tens of rows), so a pivot costs a few numpy calls
more than it costs arithmetic.  Both simplex loops therefore carry the
reduced costs d across pivots instead of recomputing them from scratch:
a basis change with entering column e in row r updates them by the pivot
row, ``d -= d[e] / alpha_r[e] * alpha_r`` with ``alpha_r`` row r of
``B^-1 [A | I]`` taken before the inverse update (the dual ratio test
computes that row anyway), and a bound flip leaves them as they are.
They are computed afresh on entry to a loop and after every
refactorization, and a verdict reached on
carried values (optimal, or an unbounded ray) is confirmed on fresh ones
before it is returned; that re-check is not counted as an iteration.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

INF = math.inf

# shared tolerances
TOL_FEAS = 1e-7
TOL_INT = 1e-6
TOL_GAP = 1e-6  # relative optimality gap

_RC_TOL = 1e-9  # reduced-cost optimality threshold
_PIVOT_TOL = 1e-10
_DUAL_FEAS_TOL = 1e-9  # bound violation the dual simplex leaves to the primal cleanup
_DUAL_PIVOT_TOL = 1e-9  # smallest row entry the dual ratio test accepts
_REFACTOR_EVERY = 150
_OPEN_INVERSE_BYTES = 4 << 20  # inverses the open B&B nodes may hold at once

LE, EQ, GE = "<=", "==", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
BREAKDOWN = "breakdown"
TIME_LIMIT = "time_limit"


class CutSoundnessError(RuntimeError):
    """A lazy-cut callback returned a cut the candidate does not violate."""


class NumericalBreakdownError(RuntimeError):
    pass


def expired(deadline: float | None) -> bool:
    """Whether an absolute ``time.monotonic()`` deadline has passed."""
    return deadline is not None and time.monotonic() > deadline


def _checked_coeffs(coeffs, size: int, owner: str, target: str) -> dict[int, float]:
    """coeffs with zeros dropped; an index outside range(size) or a
    non-finite value is a ValueError naming owner, the variable or row, and
    target, what its indices refer to."""
    clean = {}
    for k, c in coeffs.items():
        if not 0 <= k < size:
            raise ValueError(f"{owner} references unknown {target} {k}")
        if not math.isfinite(c):
            raise ValueError(f"{owner} has non-finite coefficient")
        if c != 0.0:
            clean[int(k)] = float(c)
    return clean


@dataclass
class Constraint:
    coeffs: dict[int, float]
    sense: str
    rhs: float


class LinearModel:
    """Sparse maximization model with bounded continuous/integer variables.

    Variables and rows are numbered in the order they are added, and that
    index is all a model knows of them; ``name`` labels the model as a
    whole.  A bad entry is a ValueError naming it by index (``variable
    17``, ``row 42``)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.obj: list[float] = []
        self.is_int: list[bool] = []
        self.rows: list[Constraint] = []
        # bumped by add_var/add_constr only: objective and bound edits keep
        # the cached structural block of _row_block valid
        self._structure = 0
        self._block_cache: tuple[int, tuple] | None = None

    # -- construction ---------------------------------------------------------

    def add_var(
        self,
        lb: float = 0.0,
        ub: float = INF,
        obj: float = 0.0,
        integer: bool = False,
        column: dict[int, float] | None = None,
    ) -> int:
        """Append a variable; column gives its coefficients in existing rows."""
        j = len(self.lb)
        if not lb <= ub:
            raise ValueError(f"variable {j}: lb {lb} > ub {ub}")
        if not math.isfinite(obj):
            raise ValueError(f"variable {j}: objective coefficient must be finite")
        clean = _checked_coeffs(column or {}, len(self.rows), f"variable {j}", "row")
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        self.is_int.append(bool(integer))
        for i, c in clean.items():
            self.rows[i].coeffs[j] = c
        self._structure += 1
        return j

    def add_constr(self, coeffs: dict[int, float], sense: str, rhs: float) -> int:
        i = len(self.rows)
        if sense not in (LE, EQ, GE):
            raise ValueError(f"row {i}: unknown sense {sense!r}")
        if not math.isfinite(rhs):
            raise ValueError(f"row {i}: rhs must be finite")
        clean = _checked_coeffs(coeffs, len(self.lb), f"row {i}", "variable")
        self.rows.append(Constraint(clean, sense, float(rhs)))
        self._structure += 1
        return i

    def set_objective_coeff(self, j: int, value: float) -> None:
        self.obj[j] = float(value)

    def set_bounds(self, j: int, lb: float, ub: float) -> None:
        if not lb <= ub:
            raise ValueError(f"variable {j}: lb {lb} > ub {ub}")
        self.lb[j] = float(lb)
        self.ub[j] = float(ub)

    # -- inspection -----------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.lb)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_nonzeros(self) -> int:
        return sum(len(r.coeffs) for r in self.rows)

    def size_triple(self) -> tuple[int, int, int]:
        return (self.num_rows, self.num_vars, self.num_nonzeros)


@dataclass(frozen=True)
class LpBasis:
    """Final basis of an optimal solve, to warm-start a re-solve of the same
    model after bound changes, appended rows or appended columns.

    ``basic[i]`` is the column basic in row i; ``state`` holds the state of
    every structural column followed by one slack column per row.
    ``inverse`` is the basis inverse in basic order, or None when the
    re-solve must compute it; ``age`` counts the rank-one updates applied
    since it was last computed from scratch.  All arrays are read-only, so
    one basis can seed any number of re-solves.
    """

    basic: np.ndarray
    state: np.ndarray
    inverse: np.ndarray | None = None
    age: int = 0


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective: float = -INF
    iterations: int = 0
    basis: LpBasis | None = None  # set on every optimal solve


@dataclass
class MipSolution:
    """The result of a best-bound search; x is its incumbent, a point of
    the model in ``solve_mip``."""

    status: str
    x: np.ndarray | None = None
    objective: float = -INF
    bound: float = INF
    nodes: int = 0
    cuts_added: int = 0
    # last optimal basis of the root LP, after its own lazy-cut re-solves;
    # its rows are a prefix of the model's: those it had when the search
    # began, then the cuts added at the root
    root_basis: LpBasis | None = None


# -- simplex kernel -------------------------------------------------------------

_BASIC = 0
_AT_LOWER = 1
_AT_UPPER = 2
_FREE = 3
# pricing direction by state: +1 at a lower bound, -1 at an upper bound
_DIRECTION = np.array([0.0, 1.0, -1.0, 0.0])
# the state a warm start gives a column, at [4 * state + 2 * (lb finite) +
# (ub finite)]: a nonbasic column sits at the bound its state names, or at
# the other one if that bound is infinite, or free at zero without either
_SETTLE = np.array(
    [_BASIC] * 4
    + [_FREE, _AT_UPPER, _AT_LOWER, _AT_LOWER]
    + [_FREE, _AT_UPPER, _AT_LOWER, _AT_UPPER]
    + [_FREE, _AT_UPPER, _AT_LOWER, _AT_LOWER],
    dtype=np.int8,
)


def _row_block(model: LinearModel):
    """The m x n structural block A, b and slack bounds of the model's rows,
    cached on the model until its next add_var/add_constr; each row's slack
    s makes it ``a.x + s = rhs``, and its column of ``[A | I]`` is never
    stored.  The arrays are read-only: every solve of the model shares
    them."""
    cache = model._block_cache
    if cache is not None and cache[0] == model._structure:
        return cache[1]
    rows = model.rows
    A = np.zeros((model.num_rows, model.num_vars))
    for i, r in enumerate(rows):
        for j, c in r.coeffs.items():
            A[i, j] = c
    b = np.array([r.rhs for r in rows], dtype=float)
    slack_lb = np.array([-INF if r.sense == GE else 0.0 for r in rows], dtype=float)
    slack_ub = np.array([INF if r.sense == LE else 0.0 for r in rows], dtype=float)
    block = (A, b, slack_lb, slack_ub)
    for arr in block:
        arr.flags.writeable = False
    model._block_cache = (model._structure, block)
    return block


class _Simplex:
    def __init__(
        self,
        model: LinearModel,
        overrides: dict[int, tuple[float, float]] | None,
        deadline: float | None = None,
    ):
        self.model = model
        self.deadline = deadline
        self.n_struct, self.m = n, m = model.num_vars, model.num_rows
        self.A, self.b, slack_lb, slack_ub = _row_block(model)
        # bounds and costs of every column of [A | I], this solve's own
        self.lb = np.concatenate([model.lb, slack_lb])
        self.ub = np.concatenate([model.ub, slack_ub])
        self.c_real = np.concatenate([model.obj, np.zeros(m)])
        # the model keeps lb <= ub, so only an override can break it
        self.trivially_infeasible = False
        for j, (lo, hi) in (overrides or {}).items():
            self.lb[j], self.ub[j] = lo, hi
            self.trivially_infeasible |= lo > hi
        self.n_total = n + m
        self.iterations = 0
        self.bland = False
        self._degen_run = 0
        self._since_refactor = 0

    def _sync_directions(self) -> None:
        """Derive the pricing direction of every column from its state; a
        fixed column (lb == ub) has none, so it is never priced."""
        self.dirn = _DIRECTION[self.state]
        self.dirn[self.lb == self.ub] = 0.0
        self.free = (self.state == _FREE).nonzero()[0]

    # -- the columns of [A | I]: the only readers of A; slack columns are implicit

    def _ftran(self, e: int) -> np.ndarray:
        """B^-1 times column e, a new array; a slack's is a column of B^-1."""
        n = self.n_struct
        return self.Binv[:, e - n].copy() if e >= n else self.Binv @ self.A[:, e]

    def _rmul(self, v: np.ndarray) -> np.ndarray:
        """``v @ [A | I]``."""
        return np.concatenate([v @ self.A, v])

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """``[A | I] @ x``."""
        return self.A @ x[: self.n_struct] + x[self.n_struct :]

    def _columns(self, idx: np.ndarray, start: int = 0) -> np.ndarray:
        """Rows ``start:`` of the columns idx, dense."""
        n = self.n_struct
        cols = np.zeros((self.m - start, idx.size))
        structural = idx < n
        cols[:, structural] = self.A[start:, idx[structural]]
        pos = (idx >= n + start).nonzero()[0]
        cols[idx[pos] - n - start, pos] = 1.0
        return cols

    def _refactor(self) -> bool:
        try:
            self.Binv = np.linalg.inv(self._columns(self.basis))
        except np.linalg.LinAlgError:
            return False
        self._since_refactor = 0
        self._basic_values()
        return True

    def _basic_values(self) -> None:
        """Recompute the basic values ``xB`` from the nonbasic ones."""
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.xB = self.Binv @ (self.b - self._matvec(xn))

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        """Fresh reduced costs ``c - y [A | I]`` of every column; the duals
        ``y = c_B B^-1`` stay in ``self.y``."""
        self.y = c[self.basis] @ self.Binv
        return c - self._rmul(self.y)

    def _entering(self, d: np.ndarray) -> int:
        """The improving nonbasic column, or -1: the largest |d| with the
        lowest index on ties, or the lowest eligible index in Bland mode."""
        # d * dirn > 0 is the improving direction of a column at a bound
        # (and |d| itself); a nonbasic free column improves either way
        score = d * self.dirn
        if self.free.size:
            score[self.free] = np.abs(d[self.free])
        if not score.size:  # a model without columns or rows
            return -1
        e = int(np.argmax(score > _RC_TOL) if self.bland else score.argmax())
        return e if score[e] > _RC_TOL else -1

    def _pivot(self, r: int, e: int, w: np.ndarray) -> bool:
        """Make column e basic in row r (w = ``_ftran(e)``, which this
        overwrites); values, bounds and the leaving column's state are the
        caller's.  False on breakdown; ``_since_refactor`` is 0 afterwards
        when the pivot ended in a refactorization."""
        if self.state[e] == _FREE:
            self.free = self.free[self.free != e]
        self.state[e] = _BASIC
        self.dirn[e] = 0.0
        self.basis[r] = e

        piv = w[r]
        if abs(piv) < _PIVOT_TOL:
            return self._refactor()
        # row r becomes Binv[r] / piv, every other row i loses w[i] times it
        row = self.Binv[r] / piv
        w[r] -= 1.0
        self.Binv -= w[:, None] * row

        self._since_refactor += 1
        if self._since_refactor >= _REFACTOR_EVERY:
            return self._refactor()
        return True

    def _optimize(self, max_iters: int) -> str:
        """Bounded primal simplex on the real costs from a primal feasible
        basis.

        The reduced costs d are computed on entry and after every
        refactorization; a basis change updates them with the pivot row.
        OPTIMAL and UNBOUNDED are only returned on fresh reduced costs; on
        OPTIMAL they stay in ``self.d``, beside the duals in ``self.y``.
        """
        lb, ub, x, basis, c = self.lb, self.ub, self.x, self.basis, self.c_real
        lbB, ubB = self.lbB, self.ubB
        d = self._reduced_costs(c)
        fresh = True
        while True:
            if self.iterations >= max_iters:
                return BREAKDOWN
            if expired(self.deadline):
                return TIME_LIMIT
            self.iterations += 1

            e = self._entering(d)
            if e < 0 and not fresh:
                d, fresh = self._reduced_costs(c), True
                e = self._entering(d)
            if e < 0:
                self.d = d
                return OPTIMAL
            up = bool(d[e] > 0.0)

            w = self._ftran(e)

            # two-pass (Harris style) ratio test: basic values move by
            # -t * coef; a small feasibility slack lets us pick the largest
            # pivot among the rows that block within tolerance, which keeps
            # the updated inverse well conditioned.  Rows that do not block
            # get infinite ratios.
            xB = self.xB
            coef = w if up else -w
            ratio = np.maximum((xB - np.where(coef > 0.0, lbB, ubB)) / coef, 0.0)
            acoef = np.abs(coef)
            ratio[acoef <= _PIVOT_TOL] = INF
            # slack small enough that accumulated bound drift stays
            # below the feasibility tolerance over a whole solve
            t_lim = float(np.minimum.reduce(ratio + 1e-11 / acoef, initial=INF))

            span = float(ub[e] - lb[e])
            if span <= t_lim:
                leave_pos = -1
                t_best = span  # entering variable flips to its other bound
            else:
                cand = ratio <= t_lim
                if self.bland:
                    leave_pos = int(np.where(cand, basis, self.n_total).argmin())
                else:
                    leave_pos = int(np.where(cand, acoef, -1.0).argmax())
                t_best = float(ratio[leave_pos])

            if t_best == INF:
                if not fresh:
                    # a re-check of the verdict, not a pivot
                    d, fresh = self._reduced_costs(c), True
                    self.iterations -= 1
                    continue
                return UNBOUNDED

            # a suspiciously small pivot may be drift in the updated inverse:
            # refactorize and re-derive the step before committing anything
            if leave_pos >= 0 and acoef[leave_pos] < 1e-6 and self._since_refactor > 0:
                if not self._refactor():
                    return BREAKDOWN
                d, fresh = self._reduced_costs(c), True
                continue

            if t_best <= 1e-12:
                self._degen_run += 1
                if self._degen_run > 3 * (self.m + self.n_total):
                    self.bland = True
            else:
                self._degen_run = 0

            step = t_best if up else -t_best  # the entering column's move
            xB -= step * w
            if leave_pos < 0:
                # bound flip, no basis change: d stays as it is
                x[e] = ub[e] if up else lb[e]
                self._set_nonbasic(e, up)
                continue

            leaving = int(basis[leave_pos])
            to_upper = bool(coef[leave_pos] < 0.0)
            self._set_nonbasic(leaving, to_upper)
            x[leaving] = ubB[leave_pos] if to_upper else lbB[leave_pos]
            xB[leave_pos] = x[e] + step
            lbB[leave_pos], ubB[leave_pos] = lb[e], ub[e]
            # pivot row of B^-1 A, taken before the update
            alpha_r = self._rmul(self.Binv[leave_pos])
            scale = d[e] / w[leave_pos]
            if not self._pivot(leave_pos, e, w):
                return BREAKDOWN
            if self._since_refactor == 0:
                d, fresh = self._reduced_costs(c), True
            else:
                d -= scale * alpha_r
                d[e] = 0.0
                fresh = False

    def _dual(self, max_iters: int) -> str:
        """Bounded dual simplex on the real costs.

        Each pivot moves the most infeasible basic column to the bound it
        violates, and updates the reduced costs with the pivot row it has
        already computed for the ratio test.  The ratio test reads a
        reduced cost of the wrong sign as zero, so the start need not be
        dual feasible.  OPTIMAL here means the basic values are within
        bounds; the primal loop then settles, on fresh reduced costs, any
        dual infeasibility left.
        """
        lb, ub, x, dirn, c = self.lb, self.ub, self.x, self.dirn, self.c_real
        basis, lbB, ubB = self.basis, self.lbB, self.ubB
        d = None  # computed at the first pivot: a feasible start needs none
        while True:
            if self.iterations >= max_iters:
                return BREAKDOWN
            if expired(self.deadline):
                return TIME_LIMIT

            xB = self.xB
            below = lbB - xB
            infeas = np.maximum(below, xB - ubB)
            r = int(infeas.argmax()) if infeas.size else -1
            if r < 0 or infeas[r] <= _DUAL_FEAS_TOL:
                return OPTIMAL
            self.iterations += 1
            raise_p = bool(below[r] > 0.0)  # the leaving column rises to its lower bound

            # basic value p moves by -alpha[j] per unit step of column j;
            # entering columns are those whose own feasible direction moves
            # p toward the violated bound
            alpha = self._rmul(self.Binv[r])
            toward = alpha * dirn
            eligible = toward < -_DUAL_PIVOT_TOL if raise_p else toward > _DUAL_PIVOT_TOL
            aa = np.abs(alpha)
            if self.free.size:
                eligible[self.free] = aa[self.free] > _DUAL_PIVOT_TOL
            if not eligible.any():
                if self._since_refactor > 0:
                    if not self._refactor():
                        return BREAKDOWN
                    d = None
                    continue
                # p already takes the best value the nonbasic bounds allow,
                # short of columns whose entries are below the pivot tolerance;
                # on a column with an infinite range such an entry is round-off
                span = ub - lb
                moves = (toward < 0.0 if raise_p else toward > 0.0) & (span < INF)
                reach = float((aa * span)[moves].sum())
                scale = 1.0 + float(np.abs(self.b).max(initial=0.0))
                return INFEASIBLE if infeas[r] - reach > TOL_FEAS * scale else BREAKDOWN

            # two-pass (Harris style) dual ratio test: reduced cost d[j]
            # reaches zero after a dual step of room / |alpha[j]|
            if d is None:
                d = self._reduced_costs(c)
            ratio = np.maximum(-(d * dirn), 0.0) / aa
            t_lim = float(np.minimum.reduce(np.where(eligible, ratio + _RC_TOL / aa, INF)))
            e = int(np.where(eligible & (ratio <= t_lim), aa, -1.0).argmax())

            w = self._ftran(e)
            if abs(w[r]) < 1e-6 and self._since_refactor > 0:
                if not self._refactor():
                    return BREAKDOWN
                d = None
                continue
            leaving = int(basis[r])
            target = lbB[r] if raise_p else ubB[r]
            step = (xB[r] - target) / w[r]
            xB -= step * w
            xB[r] = x[e] + step
            x[leaving] = target
            lbB[r], ubB[r] = lb[e], ub[e]
            self._set_nonbasic(leaving, not raise_p)
            scale = d[e] / alpha[e]
            if not self._pivot(r, e, w):
                return BREAKDOWN
            if self._since_refactor == 0:
                d = None
            else:
                d -= scale * alpha
                d[e] = 0.0

    def _set_nonbasic(self, j: int, at_upper: bool) -> None:
        self.state[j] = _AT_UPPER if at_upper else _AT_LOWER
        if self.lb[j] == self.ub[j]:
            self.dirn[j] = 0.0
        else:
            self.dirn[j] = -1.0 if at_upper else 1.0

    def solve(self, warm: LpBasis | None = None) -> LpSolution:
        if self.trivially_infeasible:
            return LpSolution(INFEASIBLE)
        with np.errstate(divide="ignore", invalid="ignore"):
            if warm is not None:
                result = self._solve_warm(warm)
                if result.status != BREAKDOWN:
                    return result
            # a cold solve, or a warm start that broke down; the pivots of
            # the failed start stay in self.iterations
            return self._solve_warm(slack_basis(self.model))

    def _solve_warm(self, warm: LpBasis) -> LpSolution:
        """Solve from the basis of an earlier solve of the same model, or
        from ``slack_basis``.

        Rows appended since then enter with their slacks basic, which keeps
        the basis dual feasible; bound changes do not affect dual
        feasibility at all.  Columns appended since then enter nonbasic at
        a bound, which keeps it primal feasible when that bound is zero.
        The dual loop restores primal feasibility, and the primal loop
        optimality; both share one iteration budget per start.  BREAKDOWN
        sends the caller to the slack start.
        """
        n, m, N = self.n_struct, self.m, self.n_total
        m0 = warm.basic.size
        n0 = warm.state.size - m0
        if m0 > m or not 0 <= n0 <= n:
            return LpSolution(BREAKDOWN)
        # the columns the rows name as basic must be exactly those the
        # state marks basic, or a column would be neither basic nor priced
        marked = (warm.state == _BASIC).nonzero()[0]
        if marked.size != m0 or (np.sort(warm.basic) != marked).any():
            return LpSolution(BREAKDOWN)
        lb, ub = self.lb, self.ub
        basic0 = warm.basic
        if m0 == m and n0 == n:
            self.basis = basic0.copy()
            state = warm.state
        else:
            # appended columns come before the slacks, which shift right
            if n0 < n:
                basic0 = np.where(basic0 >= n0, basic0 + (n - n0), basic0)
            self.basis = np.concatenate([basic0, np.arange(n + m0, N)])
            state = np.full(N, _BASIC, dtype=np.int8)
            state[:n0] = warm.state[:n0]
            state[n0:n] = _AT_LOWER
            state[n : n + m0] = warm.state[n0:]
        self.state = state = _SETTLE[4 * state + 2 * (lb > -INF) + (ub < INF)]
        # the basic entries of x are 0 until the solve exports xB into them
        self.x = np.where(state == _AT_LOWER, lb, np.where(state == _AT_UPPER, ub, 0.0))
        self.lbB, self.ubB = lb[self.basis], ub[self.basis]
        self._sync_directions()
        self.bland = False
        self._degen_run = 0
        if warm.inverse is None:
            if not self._refactor():
                return LpSolution(BREAKDOWN)
        else:
            if m0 == m:
                self.Binv = warm.inverse.copy()
            else:
                # B = [[B0, 0], [E, I]] with E the appended rows on the old
                # basic columns, so B^-1 = [[B0^-1, 0], [-E B0^-1, I]]
                self.Binv = np.eye(m)
                self.Binv[:m0, :m0] = warm.inverse
                self.Binv[m0:, :m0] = -self._columns(basic0, m0) @ warm.inverse
            self._since_refactor = warm.age
            self.xB = self.Binv @ (self.b - self._matvec(self.x))
        if not np.isfinite(self.xB).all():
            return LpSolution(BREAKDOWN)

        max_iters = self.iterations + 20000 + 40 * (m + N)
        status = self._dual(max_iters)
        if status == OPTIMAL:
            status = self._optimize(max_iters)
        if status != OPTIMAL:
            return LpSolution(status, iterations=self.iterations)
        return self._optimal_solution()

    def _optimal_solution(self) -> LpSolution:
        n = self.n_struct
        self.x[self.basis] = self.xB
        x = np.minimum(np.maximum(self.x[:n], self.lb[:n]), self.ub[:n])
        obj = float(self.c_real[:n] @ x)
        # nothing pivots after this, so the arrays themselves are exported
        basic, state, inverse = self.basis, self.state, self.Binv
        # fixed columns are never priced, so their labels may not match
        # their reduced costs: put each at the bound its reduced cost favours
        fixed = ((state != _BASIC) & (self.lb == self.ub)).nonzero()[0]
        if fixed.size:
            d = self.d[fixed]
            state[fixed[d > _RC_TOL]] = _AT_UPPER
            state[fixed[d < -_RC_TOL]] = _AT_LOWER
        for arr in (basic, state, inverse):
            arr.setflags(write=False)
        basis = LpBasis(basic, state, inverse, self._since_refactor)
        return LpSolution(OPTIMAL, x, self.y, obj, self.iterations, basis)


def solve_lp(
    model: LinearModel,
    bound_overrides: dict[int, tuple[float, float]] | None = None,
    deadline: float | None = None,
    warm: LpBasis | None = None,
) -> LpSolution:
    """Solve the LP relaxation of the model; duals come back aligned with
    its rows.

    warm is the basis of an earlier optimal solve of the same model, taken
    when the model's rows were a prefix of its rows now; bounds, objective
    and appended columns may differ.  deadline, an absolute
    ``time.monotonic()`` instant, is checked before every pivot; once it
    has passed, the solve ends "time_limit".
    """
    return _Simplex(model, bound_overrides, deadline).solve(warm)


def slack_basis(model: LinearModel) -> LpBasis:
    """The basis of every row's slack, with every column nonbasic at its
    lower bound.

    Its inverse is I.  Every solve without a warm basis starts here; when
    the point satisfies every row, the dual loop has nothing to do.
    """
    n, m = model.num_vars, model.num_rows
    state = np.full(n + m, _AT_LOWER, dtype=np.int8)
    state[n:] = _BASIC
    basic = np.arange(n, n + m, dtype=np.int64)
    inverse = np.eye(m)
    for arr in (basic, state, inverse):
        arr.setflags(write=False)
    return LpBasis(basic, state, inverse)


# -- best-bound search ----------------------------------------------------------


class DeadlineExpired(RuntimeError):
    """A deadline passed: a node solve raises it to end a best-bound search."""


def _dominated(bound: float, best: float) -> bool:
    """Whether bound cannot beat the incumbent value best (never at -inf)."""
    return bound <= best + TOL_GAP * (1 + abs(best))


def best_bound_search(root, solve, branch, deadline: float | None) -> MipSolution:
    """Deterministic best-bound search from the root node.

    Open nodes wait on a heap of (-parent bound, insertion index, node), the
    root's parent bound +inf; a popped node that cannot beat the incumbent
    is dropped.  ``solve(node, best)`` returns the node's bound and
    relaxation, or None when the node is infeasible or cannot beat the
    incumbent value best.  A relaxation that can goes to ``branch(node,
    relaxation, open_nodes)``, which returns the children, pushed with the
    node's bound, and a solution found at the node as (value, solution), or
    None.  The result's x is the incumbent, the best solution found.

    deadline is an absolute ``time.monotonic()`` instant, checked before
    every node.  Once it passes, or a node solve raises DeadlineExpired,
    the search ends "time_limit" with its incumbent, if any, and the
    largest of the open nodes' bounds, the incumbent's value and the
    abandoned node's parent bound.
    """
    heap = [(-INF, 0, root)]
    counter = nodes = 0
    incumbent, best = None, -INF
    while heap:
        neg_bound, _, node = heapq.heappop(heap)
        if _dominated(-neg_bound, best):
            continue
        try:
            if expired(deadline):
                raise DeadlineExpired()
            nodes += 1
            solved = solve(node, best)
        except DeadlineExpired:
            bound = max([-nb for nb, _, _ in heap] + [best, -neg_bound])
            return MipSolution(TIME_LIMIT, incumbent, best, bound, nodes)
        if solved is None or _dominated(solved[0], best):
            continue
        children, found = branch(node, solved[1], (entry[2] for entry in heap))
        for child in children:
            counter += 1
            heapq.heappush(heap, (-solved[0], counter, child))
        if found is not None and found[0] > best:
            best, incumbent = found
    return MipSolution(INFEASIBLE if incumbent is None else OPTIMAL, incumbent, best, best, nodes)


# -- branch and bound -----------------------------------------------------------

CandidateCallback = Callable[[np.ndarray], list[Constraint]]


def _violation(cut: Constraint, x: np.ndarray) -> float:
    lhs = sum(c * x[j] for j, c in cut.coeffs.items())
    if cut.sense == LE:
        return lhs - cut.rhs
    if cut.sense == GE:
        return cut.rhs - lhs
    return abs(lhs - cut.rhs)


def solve_mip(
    model: LinearModel,
    on_candidate: CandidateCallback | None = None,
    deadline: float | None = None,
    warm: LpBasis | None = None,
) -> MipSolution:
    """Deterministic best-bound branch and bound: ``best_bound_search`` over
    nodes of column bound overrides, each solved as an LP with its lazy-cut
    re-solves, branching on the most fractional integer column.

    on_candidate is invoked on every integer-feasible node solution; if it
    returns cuts they are appended to the caller's model as rows, in the
    order returned, so they hold at every node from then on and stay in the
    model after the search; the node is re-solved, and the incumbent is only
    accepted once the callback returns none.  Every returned cut must be
    violated by the candidate that produced it; otherwise CutSoundnessError
    is raised before any of the batch is appended.

    Each node's LP starts from its parent's optimal basis, and a re-solve
    after new cuts from the basis of the solve the cuts were made from.
    warm seeds the root LP: the root basis of an earlier solve of this
    model, taken before objective or bound edits or appended rows.

    Both children of a node hold its final basis and share its read-only
    inverse, so a child's LP inverts nothing.  The inverses open nodes hold
    stay within ``_OPEN_INVERSE_BYTES``, counting a shared one once; when a
    pair would exceed it, the pair gets the basis without the inverse.

    deadline is an absolute ``time.monotonic()`` instant.  Once it passes,
    no further node starts and the LP in progress stops at its next pivot;
    the result is then "time_limit" with the search's incumbent, if any,
    and its bound.
    """
    int_idx = np.flatnonzero(np.array(model.is_int, dtype=bool))
    cuts_added = 0
    root_basis: LpBasis | None = None

    # a node is (bound overrides, parent basis); both children of a node
    # share its basis, which solve_lp never writes to
    def solve(node, best):
        nonlocal cuts_added, root_basis
        overrides, warm = node
        while True:
            sol = solve_lp(model, overrides, deadline, warm)
            if sol.status == TIME_LIMIT:
                raise DeadlineExpired()
            if sol.status in (BREAKDOWN, UNBOUNDED):
                raise NumericalBreakdownError(f"{sol.status} LP inside branch and bound")
            if sol.status == INFEASIBLE or _dominated(sol.objective, best):
                return None
            warm = sol.basis
            if not overrides:  # the root: every other node overrides a bound
                root_basis = warm

            xi = sol.x[int_idx]
            fractional = np.abs(xi - np.floor(xi + 0.5)) > TOL_INT
            if fractional.any():
                # branch on most fractional, ties by lowest index
                dist = np.where(fractional, np.abs(xi - np.floor(xi) - 0.5), INF)
                return sol.objective, (sol, int(int_idx[dist.argmin()]))

            if on_candidate is not None:
                new_cuts = on_candidate(sol.x)
                if new_cuts:
                    for k, cut in enumerate(new_cuts):
                        v = _violation(cut, sol.x)
                        if v <= TOL_FEAS:
                            raise CutSoundnessError(
                                f"cut {k} of the batch not violated by candidate (violation {v:.3g})"
                            )
                    for cut in new_cuts:
                        model.add_constr(cut.coeffs, cut.sense, cut.rhs)
                    cuts_added += len(new_cuts)
                    continue  # re-solve this node with the new cuts
            return sol.objective, (sol, None)

    def branch(node, relaxation, open_nodes):
        sol, j = relaxation
        if j is None:
            return [], (sol.objective, sol.x.copy())
        overrides = node[0]
        xj = float(sol.x[j])
        lo, hi = overrides.get(j, (model.lb[j], model.ub[j]))
        down, up = {**overrides, j: (lo, math.floor(xj))}, {**overrides, j: (math.ceil(xj), hi)}
        parent = sol.basis
        held = {id(b.inverse): b.inverse.nbytes for _, b in open_nodes if b.inverse is not None}
        if sum(held.values()) + parent.inverse.nbytes > _OPEN_INVERSE_BYTES:
            parent = LpBasis(parent.basic, parent.state)
        return [(down, parent), (up, parent)], None

    result = best_bound_search(({}, warm), solve, branch, deadline)
    result.cuts_added, result.root_basis = cuts_added, root_basis
    return result
