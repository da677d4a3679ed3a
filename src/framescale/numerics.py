"""Dense real linear-algebra kernel and nonnegative linear feasibility solver.

Singular values, the SVD and rank come from LAPACK through numpy.  Linear
feasibility is a deterministic two-phase tableau simplex with Dantzig pricing
and a Bland's-rule fallback after a run of degenerate pivots; it produces
either a nonnegative witness or a Farkas-style infeasibility certificate.
The strict variant maximizes the minimum entry through the substitution
x = delta 1 + s: it is phase 2 of the same tableau, which carries the delta
column, a cap slack and the cap row through phase 1, so both questions share
one phase 1, its pivots, its verdict and its Farkas row.  That one bounded
LP is the only one the kernel solves.

Small LPs cost in numpy calls, not in arithmetic, so each pivot is one
broadcast rank-1 update of the tableau in place.

Every threshold of the package is written once, in the table below, and
named by its role.  No threshold is absolute: each multiplies a scale named
beside it, and most of those scales are of unit size by construction (the
LPs and the scalability routes read the reduced diagram matrix on unit-norm
columns, and weights sum to 1), so a verdict does not move when a frame
vector is rescaled.  The one tolerance a user can set is the tightness
tolerance of ``frame_core.is_tight`` (``--tol``); it steers no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalNumericError,
    IterationLimitError,
    NonFiniteError,
)

# The tolerance table.  Each threshold is named by its role, and its value
# multiplies the scale that its comment names.
ZERO_TOL = 1e-12       # zero and sign: an entry of unit-size data counts as 0
#                        (unit-norm theta columns, simplex ratios and rhs
#                        drift, witness entries, y.A_j of the Farkas row
#                        of an LP with b != 0 against max|y|, max |kernel
#                        basis| times s_1/s_r, a codim-2 normal angle, in
#                        radians, times max |kernel basis| times s_1/s_r
#                        over its row length, the angle of a codim-2
#                        certificate's target to a kernel row, in radians,
#                        times s_1/s_r, min B^T y of a certificate of the
#                        split of 1 against max|y|, max weight, sum of
#                        unit-column weights: zeroed ones); the
#                        regularization of the split's Gram solve, whose
#                        square root times max|y| its kernel part must exceed
RANK_TOL = 1e-10       # rank: the largest singular value (rank, kernel), the
#                        largest entry or 1 if larger (independent rows), the
#                        largest entry times s_1/s_r (cofactor sign classes)
PIVOT_TOL = 1e-9       # pivot: simplex reduced costs and pivot elements on
#                        unit-norm columns; rhs drift against the pivot
#                        step; the phase-1 objective against 1 + max|b|;
#                        unit norm against 1
RESIDUAL_TOL = 1e-8    # residual: witness residual against 1 + max|b|; the
#                        kernel identity against max_j sum_i |theta_ji| c_i;
#                        W rows and X Y^T against 1; V cross terms against the
#                        largest diagonal entry of sum_i a_i x_i x_i^T; the
#                        default tightness tolerance
IDENTITY_TOL = 1e-7    # identity: operator identities (S^2, the Parseval
#                        identity of the scaled canonical dual, the transform
#                        target) against their largest entry; a codim-2
#                        weight against max |kernel basis|
STRICT_MARGIN = 1e-9   # strictness: the minimum unit-column weight (weights
#                        sum 1) of a strictly scalable answer exceeds this,
#                        and so does the minimum of a kernel part w of the
#                        split of 1 against the sum of w

_STALL = 50         # consecutive degenerate pivots before Bland's rule takes over


@dataclass(frozen=True)
class FeasibilityProblem:
    """Find x >= 0 with A x = b.  For b = 0 the normalization sum(x) = 1 is
    added automatically so the trivial solution is excluded."""

    A: np.ndarray
    b: np.ndarray
    require_strict: bool = False


@dataclass(frozen=True)
class FeasibilityOutcome:
    feasible: bool
    witness: np.ndarray | None = None
    certificate: np.ndarray | None = None


def _check_finite(a):
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")


def singular_values(M):
    """Singular values of M, descending, by LAPACK (``numpy.linalg.svd``)."""
    A = np.asarray(M, dtype=float)
    _check_finite(A)
    return np.linalg.svd(A, compute_uv=False)


def rank_of(s):
    """Number of the descending singular values ``s`` above ``RANK_TOL``
    times the largest one: the rank rule of ``rank``, for callers that
    already hold the singular values."""
    return int(np.sum(s > RANK_TOL * s[0])) if s.size else 0


def rank(M):
    """Number of singular values above ``RANK_TOL`` times the largest one."""
    return rank_of(singular_values(M))


def svd(M):
    """The full SVD (U, s, V^T) of M, s descending, by LAPACK
    (``numpy.linalg.svd``): the trailing rows of V^T past ``rank_of(s)``
    span the kernel of M, and the leading factors give its pseudoinverse."""
    A = np.asarray(M, dtype=float)
    _check_finite(A)
    return tuple(np.linalg.svd(A))


# ---------------------------------------------------------------------------
# two-phase simplex


@dataclass
class LPResult:
    status: str                      # "optimal" | "infeasible"
    x: np.ndarray | None = None      # the witness, when optimal
    dual: np.ndarray | None = None   # the Farkas row, when infeasible


def _pivot(T, basis, row, col):
    # one in-place rank-1 update of every row; the pivot row's own update is
    # discarded when it is set to piv
    piv = T[row] / T[row, col]
    T -= T[:, col, None] * piv
    T[row] = piv
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _simplex_loop(T, basis, n_enterable, cap):
    """Pivot until no reduced cost of the first ``n_enterable`` columns is
    below -PIVOT_TOL.

    The entering column is the most negative reduced cost (Dantzig); the
    leaving row has the smallest ratio, ties within ZERO_TOL going to the
    largest pivot element.  Ratios are taken on max(rhs, 0), so rounding
    noise below 0 gives no negative step, and after a pivot that moves the
    entering variable by a step > 0, an rhs entry in
    [-(PIVOT_TOL step + ZERO_TOL), 0) is set to 0: it is the drift of a row
    whose entry, at most PIVOT_TOL, the ratio test skipped, or of a row tied
    within ZERO_TOL (Harris, Math. Prog. 1973).  After _STALL consecutive
    degenerate pivots the rest of the solve uses Bland's rule (lowest
    entering index, lowest leaving basis index), which cannot cycle.  Both
    phases of ``_linear_program`` are bounded (phase 1 below by 0, the
    strict phase 2 by its cap row), so an entering column without a leaving
    row is a numeric failure.
    """
    k = T.shape[0] - 1
    rc = T[-1, :n_enterable]    # views: _pivot updates T in place
    rhs = T[:k, -1]
    stalled = 0
    for _ in range(cap):
        bland = stalled >= _STALL
        col = (rc < -PIVOT_TOL).argmax() if bland else rc.argmin()
        if rc[col] >= -PIVOT_TOL:
            return
        a = T[:k, col]
        ratios = np.divide(np.maximum(rhs, 0.0), a, out=np.full(k, np.inf),
                           where=a > PIVOT_TOL)
        row = int(ratios.argmin())
        step = float(ratios[row])
        if step == np.inf:
            raise InternalNumericError("simplex column has no leaving row")
        ties = np.flatnonzero(ratios <= step + ZERO_TOL)
        if ties.size > 1:
            row = ties[basis[ties].argmin()] if bland else ties[a[ties].argmax()]
        stalled = stalled + 1 if step <= ZERO_TOL else 0
        _pivot(T, basis, row, col)
        taken = rhs[row]
        if taken > 0.0 and (rhs < 0.0).any():
            rhs[(rhs < 0.0) & (rhs >= -(PIVOT_TOL * taken + ZERO_TOL))] = 0.0
    raise IterationLimitError("simplex iteration cap exceeded")


def _linear_program(A, b, strict=False):
    """Decide A x = b, x >= 0 for a float matrix A and a float vector b
    (phase 1), and with ``strict`` maximize the minimum entry of x
    (phase 2).  On infeasibility the returned ``dual`` y satisfies
    y.A <= 0 and y.b > 0 (Farkas).

    One tableau serves both questions: the columns are A, delta = A 1, the
    cap slack, the artificials and the rhs; the rows are A's, the cap row
    delta + s_cap = 1 + max|b| and the cost row.  Phase 1 prices A's columns
    only, and the cap row has no entry there, so both questions take the
    same phase-1 pivots and give the same verdict and Farkas row.  Phase 2
    minimizes -delta over A, delta and the slack, which substitutes
    x = delta 1 + s."""
    k, nv = A.shape
    art = nv + 2            # the first artificial column
    cap = 50 * (k + nv + k)  # artificials count toward the column budget
    top = 1.0 + float(np.abs(b).max(initial=0.0))

    row_sign = np.where(b < 0, -1.0, 1.0)
    A1 = A * row_sign[:, None]
    b1 = b * row_sign

    T = np.zeros((k + 2, art + k + 1))
    T[:k, :nv] = A1
    T[:k, nv] = A1.sum(axis=1)
    T[:k, art:-1] = np.eye(k)
    T[:k, -1] = b1
    T[k, nv:art] = 1.0
    T[k, -1] = top
    T[-1, :nv] = -A1.sum(axis=0)
    T[-1, -1] = -b1.sum()
    basis = np.append(np.arange(art, art + k), nv + 1)

    _simplex_loop(T, basis, nv, cap)
    if -T[-1, -1] > PIVOT_TOL * top:
        pi = 1.0 - T[-1, art:-1]
        return LPResult(status="infeasible", dual=row_sign * pi)

    # drive leftover artificials out of the basis (redundant rows stay put);
    # each is 0 up to the phase-1 tolerance, so the pivot is degenerate: its
    # rounding noise, divided by a pivot element of either sign, would
    # otherwise become a negative entry of the witness
    for i in np.flatnonzero(basis >= art):
        cols = np.flatnonzero(np.abs(T[i, :nv]) > PIVOT_TOL)
        if cols.size:
            T[i, -1] = 0.0
            _pivot(T, basis, i, cols[0])

    if strict:
        # every basic variable costs 0, so the reduced costs are -e_delta
        T[-1] = 0.0
        T[-1, nv] = -1.0
        _simplex_loop(T, basis, art, cap)

    x = np.zeros(art)
    held = basis < art
    x[basis[held]] = T[:k + 1, -1][held]
    return LPResult(status="optimal", x=x[:nv] + x[nv] if strict else x[:nv])


def _clamp_nonneg(x):
    x = np.asarray(x, dtype=float).copy()
    if float(x.min(initial=0.0)) < -ZERO_TOL:
        raise InternalNumericError("simplex witness has a negative entry")
    x[x < 0.0] = 0.0
    return x


def column_norms(A):
    """The 2-norm of each column of A, with 1 for a zero column.  A column
    whose sum of squares leaves the normal float range (a norm beyond about
    1e+-154) is first divided by the power of two at its peak, which is
    exact, so its norm neither underflows nor overflows; every other column
    keeps the plain sum of squares."""
    low = 2.0 ** -511  # the square root of the smallest normal float
    with np.errstate(over="ignore"):
        norms = np.sqrt((A * A).sum(axis=0))
    if norms.min(initial=np.inf) >= low and norms.max(initial=0.0) < np.inf:
        return norms
    far = ~((norms >= low) & (norms < np.inf))
    _, e = np.frexp(np.abs(A[:, far]).max(axis=0, initial=0.0))
    scaled = np.ldexp(A[:, far], -e)
    norms[far] = np.ldexp(np.sqrt((scaled * scaled).sum(axis=0)), e)
    norms[norms == 0.0] = 1.0
    return norms


def solve_feasibility(p: FeasibilityProblem) -> FeasibilityOutcome:
    """Decide A x = b, x >= 0 and return a witness or certificate.

    Each nonzero column A_j is divided by its 2-norm before the solve and the
    witness is mapped back as x_j = x'_j / ||A_j||.  A positive column scale
    keeps the sign of every y.A_j, so a certificate needs no mapping, and the
    answer does not depend on the scale of the columns.

    For a homogeneous system (b = 0) the normalization sum(x) = 1 is added
    (and restored after the mapping) and the infeasibility certificate y
    satisfies (y.A)_j > 0 for every column j, the separating-functional
    direction of the convex-hull test; otherwise y.b > 0 and
    y.A_j <= ZERO_TOL max|y|.  With ``require_strict`` the minimum entry of
    the unit-column witness is maximized, in the phase 2 of the same LP;
    judging strictness from the witness is left to the caller.
    """
    A = np.asarray(p.A, dtype=float)
    b = np.asarray(p.b, dtype=float).ravel()
    _check_finite(A)
    _check_finite(b)
    if A.ndim != 2 or A.shape[0] != b.size:
        raise DimensionMismatchError(f"A has shape {A.shape}, b has length {b.size}")
    norms = column_norms(A)
    A = A / norms
    k, m = A.shape
    hom = bool(np.all(b == 0.0))
    if hom:
        A2 = np.vstack([A, np.ones((1, m))])
        b2 = np.concatenate([b, [1.0]])
    else:
        A2, b2 = A, b
    res = _linear_program(A2, b2, p.require_strict)
    if res.status == "infeasible":
        if hom:
            y = -res.dual[:k]
            if not float((y @ A).min()) > 0.0:
                raise InternalNumericError("hull certificate fails the strict sign test")
        else:
            y = res.dual
            if not (float(y @ b) > 0.0
                    and float((y @ A).max()) <= ZERO_TOL * float(np.abs(y).max())):
                raise InternalNumericError("Farkas certificate fails its sign test")
        return FeasibilityOutcome(feasible=False, certificate=y)
    x = _clamp_nonneg(res.x)
    _verify_witness(A2, b2, x)
    x = x / norms
    if hom:
        x = x / x.sum()
    return FeasibilityOutcome(feasible=True, witness=x)


def _verify_witness(A, b, x):
    resid = float(np.abs(A @ x - b).max(initial=0.0))
    if resid > RESIDUAL_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
        raise InternalNumericError(f"feasibility witness residual {resid:.3e} too large")
