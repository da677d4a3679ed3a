"""Dense real linear-algebra kernel and nonnegative linear feasibility solver.

Eigenvalues, singular values, rank and nullspace come from LAPACK through
numpy.  Linear feasibility is a deterministic two-phase tableau simplex with
Dantzig pricing and a Bland's-rule fallback after a run of degenerate pivots;
it produces either a nonnegative witness or a Farkas-style infeasibility
certificate.  The strict variant maximizes the minimum entry through the
substitution x = delta + s, which adds one row and two columns.

Small LPs cost in numpy calls, not in arithmetic, so each pivot is one
broadcast rank-1 update of the tableau in place, and each LP's inputs are
checked once: ``solve_feasibility`` and ``linear_program`` validate and then
share one unchecked kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalNumericError,
    IterationLimitError,
    NonFiniteError,
    NonSymmetricError,
)

_EPS_RC = 1e-9      # reduced-cost threshold for entering columns
_EPS_PIV = 1e-9     # minimum pivot magnitude
_STALL = 50         # consecutive degenerate pivots before Bland's rule takes over
STRICT_MARGIN = 1e-9


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (descending) and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self):
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T


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
    strict_margin: float | None = None


def _check_finite(a):
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite")


def symmetric_eigen(M, sym_tol=1e-10):
    """Eigendecomposition of a symmetric matrix by LAPACK (``numpy.linalg.eigh``).

    Eigenvalues come in descending order; each eigenvector's largest-magnitude
    entry is positive.  Raises NonSymmetricError when ``M`` deviates from its
    transpose by more than ``sym_tol`` relative to the largest entry.
    """
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    _check_finite(A)
    scale = max(float(np.abs(A).max()), 1.0)
    if float(np.abs(A - A.T).max()) > sym_tol * scale:
        raise NonSymmetricError("matrix is not symmetric within tolerance")

    eigvals, Q = np.linalg.eigh(0.5 * (A + A.T))
    eigvals, Q = eigvals[::-1], Q[:, ::-1]
    # deterministic sign: largest-magnitude entry of each eigenvector positive
    lead = Q[np.argmax(np.abs(Q), axis=0), np.arange(Q.shape[1])]
    Q = Q * np.where(lead < 0, -1.0, 1.0)
    eigvals.setflags(write=False)
    Q.setflags(write=False)
    return SpectralData(eigenvalues=eigvals, eigenvectors=Q)


def singular_values(M):
    """Singular values of M, descending, by LAPACK (``numpy.linalg.svd``)."""
    A = np.asarray(M, dtype=float)
    _check_finite(A)
    return np.linalg.svd(A, compute_uv=False)


def _rank_of(s, tol):
    if tol <= 0:
        raise ValueError("tol must be positive")
    return int(np.sum(s > tol * s[0])) if s.size else 0


def rank(M, tol=1e-10):
    """Number of singular values above ``tol`` times the largest one."""
    return _rank_of(singular_values(M), tol)


def nullspace_basis(M, tol=1e-10):
    """Orthonormal basis of the kernel of M, as columns of the result,
    ordered by ascending singular value: the trailing right singular vectors.

    A full-column-rank matrix yields a matrix with zero columns.
    """
    A = np.asarray(M, dtype=float)
    _check_finite(A)
    _, s, Vt = np.linalg.svd(A)
    return Vt[_rank_of(s, tol):][::-1].T


# ---------------------------------------------------------------------------
# two-phase simplex


@dataclass
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    dual: np.ndarray | None = None   # equality multipliers (phase-1 on infeasible)


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
    """Pivot until no reduced cost is below -_EPS_RC.

    The entering column is the most negative reduced cost (Dantzig); the
    leaving row has the smallest ratio, ties within 1e-12 going to the largest
    pivot element.  After _STALL consecutive degenerate pivots the rest of the
    solve uses Bland's rule (lowest entering index, lowest leaving basis
    index), which cannot cycle.
    """
    k = T.shape[0] - 1
    rc = T[-1, :n_enterable]    # views: _pivot updates T in place
    rhs = T[:k, -1]
    stalled = 0
    for _ in range(cap):
        bland = stalled >= _STALL
        col = (rc < -_EPS_RC).argmax() if bland else rc.argmin()
        if rc[col] >= -_EPS_RC:
            return "optimal"
        a = T[:k, col]
        rows = (a > _EPS_PIV).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        ratios = rhs[rows] / a[rows]
        step = float(ratios.min())
        ties = rows[ratios <= step + 1e-12]
        row = ties[basis[ties].argmin()] if bland else ties[a[ties].argmax()]
        stalled = stalled + 1 if step <= 1e-12 else 0
        _pivot(T, basis, row, col)
    raise IterationLimitError("simplex iteration cap exceeded")


def linear_program(A, b, c=None, maximize=False):
    """Solve min (or max) c.x subject to A x = b, x >= 0.

    With ``c=None`` only feasibility is decided (phase 1).  On infeasibility
    the returned ``dual`` y satisfies y.A <= 0 and y.b > 0 (Farkas).
    """
    A, b = _checked_system(A, b)
    if c is not None:
        c = np.asarray(c, dtype=float)
    return _linear_program(A, b, c, maximize)


def _checked_system(A, b):
    """A as a float matrix and b as a float vector of matching length, both
    finite."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    _check_finite(A)
    _check_finite(b)
    if A.ndim != 2 or A.shape[0] != b.size:
        raise DimensionMismatchError(f"A has shape {A.shape}, b has length {b.size}")
    return A, b


def _linear_program(A, b, c, maximize):
    """``linear_program`` on inputs already passed through ``_checked_system``;
    ``c`` is None or a float vector."""
    k, nv = A.shape
    cap = 50 * (k + nv + k)  # artificials count toward the column budget

    row_sign = np.where(b < 0, -1.0, 1.0)
    A1 = A * row_sign[:, None]
    b1 = b * row_sign

    T = np.zeros((k + 1, nv + k + 1))
    T[:k, :nv] = A1
    T[:k, nv:nv + k] = np.eye(k)
    T[:k, -1] = b1
    T[k, :nv] = -A1.sum(axis=0)
    T[k, -1] = -b1.sum()
    basis = np.arange(nv, nv + k)

    _simplex_loop(T, basis, nv, cap)
    p1_obj = -T[-1, -1]
    feas_tol = 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0)))
    if p1_obj > feas_tol:
        pi = 1.0 - T[-1, nv:nv + k]
        return LPResult(status="infeasible", objective=float(p1_obj),
                        dual=row_sign * pi)

    # drive leftover artificials out of the basis (redundant rows stay put)
    for i in np.flatnonzero(basis >= nv):
        cols = np.flatnonzero(np.abs(T[i, :nv]) > _EPS_PIV)
        if cols.size:
            _pivot(T, basis, i, cols[0])

    if c is not None:
        cvec = np.zeros(nv + k)
        cvec[:nv] = -c if maximize else c
        cB = cvec[basis]
        T[-1, :] = np.concatenate([cvec, [0.0]]) - cB @ T[:k, :]
        status = _simplex_loop(T, basis, nv, cap)
        if status == "unbounded":
            return LPResult(status="unbounded")

    x = np.zeros(nv)
    structural = basis < nv
    x[basis[structural]] = T[:k, -1][structural]
    obj = None
    if c is not None:
        obj = float(c @ x)
    pi = -T[-1, nv:nv + k]
    return LPResult(status="optimal", x=x, objective=obj, dual=row_sign * pi)


def _clamp_nonneg(x):
    x = np.asarray(x, dtype=float).copy()
    if float(x.min(initial=0.0)) < -1e-12:
        raise InternalNumericError("simplex witness has a negative entry")
    x[x < 0.0] = 0.0
    return x


def solve_feasibility(p: FeasibilityProblem) -> FeasibilityOutcome:
    """Decide A x = b, x >= 0 and return a witness or certificate.

    For a homogeneous system (b = 0) the normalization sum(x) = 1 is added
    and the infeasibility certificate y satisfies (y.A)_j > 0 for every
    column j, the separating-functional direction of the convex-hull test.
    With ``require_strict`` the minimum entry of x is maximized and the
    problem counts as feasible only when that margin exceeds 1e-9; a strict
    failure of an otherwise feasible system carries neither witness nor
    certificate, only the margin.
    """
    A, b = _checked_system(p.A, p.b)
    k, m = A.shape
    hom = bool(np.all(b == 0.0))
    if hom:
        A2 = np.vstack([A, np.ones((1, m))])
        b2 = np.concatenate([b, [1.0]])
    else:
        A2, b2 = A, b
    k2 = A2.shape[0]

    def certificate_from(dual):
        if hom:
            y = -dual[:k]
            margin = float((y @ A).min())
            if margin <= 0.0:
                raise InternalNumericError("hull certificate fails the strict sign test")
        else:
            y = dual[:k]
        return y

    if not p.require_strict:
        res = _linear_program(A2, b2, None, False)
        if res.status == "infeasible":
            return FeasibilityOutcome(feasible=False, certificate=certificate_from(res.dual))
        x = _clamp_nonneg(res.x)
        _verify_witness(A2, b2, x)
        return FeasibilityOutcome(feasible=True, witness=x)

    # strict: substitute x = delta + s; variables [delta, s, s_cap]; maximize
    # delta subject to A2 (delta 1 + s) = b2, delta + s_cap = CAP.  The
    # s-columns are A2's own, so the Farkas rows [:k] certify as above.
    cap_val = 1.0 + float(np.abs(b2).max(initial=0.0))
    Ae = np.zeros((k2 + 1, m + 2))
    Ae[:k2, 0] = A2.sum(axis=1)
    Ae[:k2, 1:m + 1] = A2
    Ae[k2, [0, m + 1]] = 1.0
    be = np.append(b2, cap_val)
    cost = np.zeros(m + 2)
    cost[0] = 1.0
    res = _linear_program(Ae, be, cost, True)
    if res.status == "infeasible":
        return FeasibilityOutcome(feasible=False, certificate=certificate_from(res.dual))
    delta = float(res.x[0])
    if delta <= STRICT_MARGIN:
        return FeasibilityOutcome(feasible=False, strict_margin=delta)
    x = _clamp_nonneg(delta + res.x[1:m + 1])
    _verify_witness(A2, b2, x)
    return FeasibilityOutcome(feasible=True, witness=x, strict_margin=delta)


def _verify_witness(A, b, x):
    resid = float(np.abs(A @ x - b).max(initial=0.0))
    if resid > 1e-8 * (1.0 + float(np.abs(b).max(initial=0.0))):
        raise InternalNumericError(f"feasibility witness residual {resid:.3e} too large")
