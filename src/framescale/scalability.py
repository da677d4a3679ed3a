"""Scalability decisions for frames.

Four routes are available:

* ``decide_scalable`` -- the general test: a nonnegative, nonzero vector in
  the kernel of the reduced diagram matrix, found by linear feasibility.
* ``quick_sign_reject`` -- cheap rejection when a row of the reduced diagram
  matrix is strictly one-signed.
* ``cofactor_scaling`` -- closed-form weights when the reduced diagram matrix
  has rank m-1: its kernel is the line of the cofactor vector, so the unit
  kernel vector from one SVD decides by its sign pattern.
* ``codim2_scaling`` -- the rank m-2 case, solved exactly by intersecting the
  angular half-circles where each entry of cos t xi_1 + sin t xi_2 is
  nonnegative, for an orthonormal kernel basis xi_1, xi_2 from one SVD.

``cofactor_vector`` and ``cofactor_pencil`` keep the paper's cofactor
formulas; the routes' kernel vectors are proportional to them.

Every "not scalable" answer is certified: either a separating functional y
with <x~_i, y> > 0 for all i, or a strictly one-signed row index.

Rescaling x_i by s rescales column i of the reduced diagram matrix by
s^2 > 0, which keeps scalability.  So every route reads that matrix on
unit-norm columns (``diagram.unit_diagram_matrix``): the LPs through
``numerics.solve_feasibility``, and the sign reject, the kernel (whose width
is the corank that ``scale --method auto`` routes on), the cofactor and
codim-2 routes and ``near_zero`` through the per-frame copy.  The thresholds
are those of the ``numerics`` table.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .diagram import reduced_diagram_matrix, reduced_size, unit_diagram_matrix
from .errors import (
    CorankMismatchError,
    DimensionMismatchError,
    InternalNumericError,
)
from .frame_core import derived
from .numerics import IDENTITY_TOL, RANK_TOL, STRICT_MARGIN, ZERO_TOL

NOT_SCALABLE = "not_scalable"
SCALABLE = "scalable"
STRICTLY_SCALABLE = "strictly_scalable"

METHOD_FEASIBILITY = "feasibility"
METHOD_COFACTOR = "cofactor"
METHOD_CODIM2 = "codim2"
METHOD_SIGN_REJECT = "sign_reject"

ALL_NONNEG = "all_nonneg"
ALL_NONPOS = "all_nonpos"
MIXED = "mixed"


@dataclass
class ScalingResult:
    verdict: str
    method: str
    weights_c: np.ndarray | None = None      # nonnegative kernel vector, sum 1
    scalars_a: np.ndarray | None = None      # entrywise square roots
    certificate_y: np.ndarray | None = None  # separating functional
    reject_row: int | None = None
    near_zero: list = field(default_factory=list)

    @property
    def scalable(self):
        return self.verdict != NOT_SCALABLE


@dataclass
class CofactorReport:
    corank: int
    cofactor_vector: np.ndarray  # unit kernel vector, proportional to the cofactors
    sign_class: str


SignCheck = namedtuple("SignCheck", ["row_index"])


def independent_rows(mat):
    """Indices of a maximal linearly independent row subset, chosen greedily
    by ascending row index (modified Gram-Schmidt with the threshold
    ``RANK_TOL`` relative to the largest entry, or 1).
    """
    mat = np.asarray(mat, dtype=float)
    scale = max(float(np.abs(mat).max(initial=0.0)), 1.0)
    basis = []
    idx = []
    for i, row in enumerate(mat):
        r = row.astype(float).copy()
        for _ in range(2):  # twice for orthogonality at close-to-dependent rows
            for q in basis:
                r -= (r @ q) * q
        nrm = float(np.linalg.norm(r))
        if nrm > RANK_TOL * scale:
            basis.append(r / nrm)
            idx.append(i)
    return idx


def quick_sign_reject(F) -> SignCheck:
    """Row-sign rejection: a row of the reduced diagram matrix whose entries
    all have the same strict sign forces every kernel vector with c >= 0 to
    vanish, so the frame cannot be scalable.

    Rows containing (near-)zero entries are skipped: they only force the
    weights to vanish on their support, which does not preclude scalability.
    An entry counts as zero when it is at most ``ZERO_TOL`` on unit-norm
    columns, so the row found does not depend on the scale of the vectors.
    """
    theta = unit_diagram_matrix(F).data
    rows = np.flatnonzero((theta > ZERO_TOL).all(1) | (theta < -ZERO_TOL).all(1))
    return SignCheck(row_index=int(rows[0]) if rows.size else None)


def hull_certificate_check(F, y) -> bool:
    """True when <x~_i, y> > 0 for every reduced diagram vector, which
    certifies that the frame is not scalable."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != reduced_size(F.n):
        raise DimensionMismatchError(
            f"certificate must have length {reduced_size(F.n)}, got {y.size}"
        )
    theta = reduced_diagram_matrix(F)
    return float((theta.T @ y).min()) > 0.0


def theta_kernel(F):
    """Orthonormal basis of the kernel of the reduced diagram matrix on
    unit-norm columns, as columns, from one SVD per frame; its width is the
    corank, measured without regard to the scale of the vectors.  A kernel
    vector v of the unit matrix is the kernel vector v_i / ||theta_i|| of
    the reduced diagram matrix itself."""
    return derived(F, "theta_kernel", _theta_kernel)


def _theta_kernel(F):
    kernel = numerics.nullspace_basis(unit_diagram_matrix(F).data)
    kernel.setflags(write=False)
    return kernel


def _theta_lp(F):
    """Outcome of the plain homogeneous kernel problem: some c >= 0, sum 1,
    with theta c = 0.  The strict problem is never kept with it."""
    theta = reduced_diagram_matrix(F)
    out = numerics.solve_feasibility(
        numerics.FeasibilityProblem(A=theta, b=np.zeros(theta.shape[0]))
    )
    for v in (out.witness, out.certificate):
        if v is not None:
            v.setflags(write=False)
    return out


def _lp_certificate(F):
    """Infeasibility certificate for the homogeneous kernel problem."""
    out = derived(F, "theta_lp", _theta_lp)
    if out.feasible:
        raise InternalNumericError(
            "feasibility solver disagrees with a proven non-scalability verdict"
        )
    return out.certificate


def _finish_scalable(F, c, method, strict_margin=None):
    """A scalable answer with weights c, normalized to sum 1; strict exactly
    when the route's margin exceeds ``STRICT_MARGIN``.  A weight whose
    unit-column weight ||theta_i|| c_i is at most ``ZERO_TOL`` of the sum of
    those weights is rounding noise and is set to +0.  ``near_zero`` only
    reports: the indices whose unit-column weight, relative to that sum, is
    at most ``STRICT_MARGIN``, the measure the margin is taken in."""
    norms = unit_diagram_matrix(F).norms
    c = np.asarray(c, dtype=float).copy()
    c[c < 0] = 0.0
    unit = c * norms
    c[unit <= ZERO_TOL * unit.sum()] = 0.0
    c = c / c.sum()
    unit = c * norms
    near = [int(i) for i in np.flatnonzero(unit <= STRICT_MARGIN * unit.sum())]
    if strict_margin is not None and strict_margin > STRICT_MARGIN:
        verdict = STRICTLY_SCALABLE
    else:
        verdict = SCALABLE
    return ScalingResult(
        verdict=verdict,
        method=method,
        weights_c=c,
        scalars_a=np.sqrt(c),
        near_zero=near,
    )


def decide_scalable(F, strict=False) -> ScalingResult:
    """General scalability decision via the kernel of the reduced diagram
    matrix, one LP per call.  The solver works on unit-norm columns, so the
    verdict does not change when a frame vector is rescaled.  With
    ``strict=True`` the LP maximizes the minimum unit-column weight, and that
    margin separates scalable from strictly scalable."""
    theta = reduced_diagram_matrix(F)
    check = quick_sign_reject(F)
    if check.row_index is not None:
        row = theta[check.row_index]
        sign = 1.0 if row.sum() > 0 else -1.0
        y = np.zeros(theta.shape[0])
        y[check.row_index] = sign
        if not hull_certificate_check(F, y):
            y = _lp_certificate(F)
        return ScalingResult(
            verdict=NOT_SCALABLE,
            method=METHOD_SIGN_REJECT,
            certificate_y=y,
            reject_row=check.row_index,
        )

    if strict:
        out = numerics.solve_feasibility(numerics.FeasibilityProblem(
            A=theta, b=np.zeros(theta.shape[0]), require_strict=True))
    else:
        out = derived(F, "theta_lp", _theta_lp)
    if not out.feasible:
        return ScalingResult(
            verdict=NOT_SCALABLE,
            method=METHOD_FEASIBILITY,
            certificate_y=out.certificate,
        )
    return _finish_scalable(F, out.witness, METHOD_FEASIBILITY, out.strict_margin)


# ---------------------------------------------------------------------------
# cofactor machinery


def cofactor_vector(rows) -> np.ndarray:
    """Cofactors of a symbolic first row stacked above ``rows``.

    ``rows`` is (m-1) x m; entry j is (-1)^j times the determinant of
    ``rows`` with column j removed.  The result is orthogonal to every row.
    """
    rows = np.asarray(rows, dtype=float)
    m = rows.shape[1]
    if rows.shape[0] != m - 1:
        raise DimensionMismatchError(f"expected {m - 1} rows, got {rows.shape[0]}")
    out = np.empty(m)
    for j in range(m):
        minor = np.delete(rows, j, axis=1)
        out[j] = (-1.0) ** j * np.linalg.det(minor)
    return out


def _classify_signs(v):
    thresh = RANK_TOL * float(np.abs(v).max(initial=0.0))
    if float(v.min()) >= -thresh:
        return ALL_NONNEG
    if float(v.max()) <= thresh:
        return ALL_NONPOS
    return MIXED


def cofactor_scaling(F):
    """Rank m-1 route: the kernel of the reduced diagram matrix is the line of
    the cofactor vector, so scalability reduces to its sign pattern.  The
    kernel comes from one SVD of the matrix on unit-norm columns as a unit
    vector w of unit-column weights; its signs and margin are judged on w,
    like the LPs', and w_i / ||theta_i|| is proportional to the cofactors.

    Returns (CofactorReport, ScalingResult).
    """
    kernel = theta_kernel(F)
    if kernel.shape[1] != 1:
        raise CorankMismatchError(
            f"cofactor method needs corank 1, measured corank {kernel.shape[1]}")
    w = kernel[:, 0]
    v = w / unit_diagram_matrix(F).norms
    sign_class = _classify_signs(w)
    report = CofactorReport(corank=1, cofactor_vector=v / np.linalg.norm(v),
                            sign_class=sign_class)
    if sign_class == MIXED:
        result = ScalingResult(
            verdict=NOT_SCALABLE,
            method=METHOD_COFACTOR,
            certificate_y=_lp_certificate(F),
        )
        return report, result
    w = np.abs(w)
    margin = float(w.min()) / float(w.sum())
    return report, _finish_scalable(F, np.abs(v), METHOD_COFACTOR, strict_margin=margin)


# ---------------------------------------------------------------------------
# corank-2 parametric route


def cofactor_pencil(R, w1, w2):
    """Cofactor vectors xi_1, xi_2 of the matrices (E; w_k; R) so that the
    parametric cofactors are A(t) = cos(t) xi_1 + sin(t) xi_2."""
    R = np.asarray(R, dtype=float)
    xi1 = cofactor_vector(np.vstack([np.asarray(w1, dtype=float), R]))
    xi2 = cofactor_vector(np.vstack([np.asarray(w2, dtype=float), R]))
    return xi1, xi2


def _intersect_half_circles(pq):
    """Intersect arcs {t : p cos t + q sin t >= 0} (each a closed half-circle)
    over the unit circle.  Returns a list of (lo, hi) intervals in [0, 2*pi],
    possibly with a wrap-around pair merged into an interval ending above 2*pi.
    """
    two_pi = 2.0 * np.pi
    intervals = [(0.0, two_pi)]
    for p, q in pq:
        phi = float(np.arctan2(q, p))
        lo = (phi - 0.5 * np.pi) % two_pi
        hi = lo + np.pi
        if hi <= two_pi:
            arcs = [(lo, hi)]
        else:
            arcs = [(lo, two_pi), (0.0, hi - two_pi)]
        new = []
        for a, b in intervals:
            for c, d in arcs:
                s, e = max(a, c), min(b, d)
                if e >= s - ZERO_TOL:
                    new.append((s, e))
        intervals = new
        if not intervals:
            return []
    # merge a wrap-around pair so widths and midpoints come out right
    starts_at_zero = [iv for iv in intervals if iv[0] <= ZERO_TOL]
    ends_at_full = [iv for iv in intervals if iv[1] >= two_pi - ZERO_TOL]
    if starts_at_zero and ends_at_full and starts_at_zero[0] != ends_at_full[0]:
        a0, b0 = starts_at_zero[0]
        a1, b1 = ends_at_full[0]
        intervals = [iv for iv in intervals
                     if iv not in (starts_at_zero[0], ends_at_full[0])]
        intervals.append((a1, b1 + b0))
    return intervals


def codim2_scaling(F):
    """Rank m-2 route: every kernel vector of the matrix on unit-norm
    columns is a multiple of cos(t) xi_1 + sin(t) xi_2 for the orthonormal
    basis xi_1, xi_2 of that kernel from one SVD, and scalability holds
    exactly when some direction t keeps all entries nonnegative.  Decided by
    exact angular-interval intersection; the weights come from the midpoint
    of the widest feasible arc, which is the bisector of the feasible cone
    and so depends only on the kernel."""
    kernel = theta_kernel(F)
    if kernel.shape[1] != 2:
        raise CorankMismatchError(
            f"codim-2 method needs corank 2, measured corank {kernel.shape[1]}")
    xi1, xi2 = kernel.T
    # unit basis vectors: the scale lies in [1/sqrt(m), 1]
    scale = max(float(np.abs(xi1).max()), float(np.abs(xi2).max()))
    constraints = []
    for p, q in zip(xi1, xi2):
        if np.hypot(p, q) > ZERO_TOL * scale:
            constraints.append((p, q))
    intervals = _intersect_half_circles(constraints)
    if not intervals:
        return ScalingResult(
            verdict=NOT_SCALABLE,
            method=METHOD_CODIM2,
            certificate_y=_lp_certificate(F),
        )
    lo, hi = max(intervals, key=lambda iv: iv[1] - iv[0])
    width = hi - lo
    t = 0.5 * (lo + hi)
    w = np.cos(t) * xi1 + np.sin(t) * xi2
    if float(w.min()) < -IDENTITY_TOL * scale:
        raise InternalNumericError("codim-2 direction produced a negative weight")
    margin = float(w.min()) / float(np.abs(w).sum()) if width > 0 else 0.0
    d = unit_diagram_matrix(F).norms
    return _finish_scalable(F, w / d, METHOD_CODIM2, strict_margin=margin)
