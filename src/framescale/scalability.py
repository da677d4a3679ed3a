"""Scalability decisions for frames.

``decide`` is the one route policy: ``analyze``, ``scale --method
auto|split`` and the canonical-dual check all call it.  It asks the paper's
one question, whether some c >= 0, c != 0 has theta c = 0 for the reduced
diagram matrix theta, once, of the hull solver
(``numerics.solve_feasibility`` on theta's per-frame unit columns; method
``feasibility``).  The solver splits 1 with rounds before Wolfe's nearest
point and carries a witness to one of largest support; it also answers W
and V on their row blocks (``split_scaling``).  It reads no coordinate of
theta on its own, so a change of basis moves the step inside it that
answers only where a part of the split is near its floor.
``quick_sign_reject`` still finds a strictly one-signed row, but no route
calls it: such a row is one certificate y among many.

The paper's corank-1 and corank-2 results are library functions that
neither ``decide`` nor any command calls; tests use them as oracles.  Each
reads the kernel off one SVD of theta^ (``theta_svd``):

* corank 1: ``cofactor_scaling`` -- the kernel is the line of the cofactor
  vector (the paper's formula is ``cofactor_vector``), so the unit kernel
  vector decides by its sign pattern;
* corank 2: ``codim2_scaling`` -- each entry of cos t xi_1 + sin t xi_2,
  for the orthonormal kernel basis xi_1, xi_2, is nonnegative on a
  half-circle of directions t, and these meet exactly when the widest
  circular gap between their normal angles is at least pi.

A route supplies a kernel vector or a certificate; two constructors build
every answer.  ``_certified`` carries a separating functional y with
<x~_i, y> > 0 for all i, checked by ``hull_certificate_check``; the kernel
routes read y off the SVD they already hold (``_kernel_certificate``,
Gordan's alternative).  Every route hands ``_finish_scalable`` its
unit-column weights w, which reads the strictness margin off w, turns w
into c once (``_weights``, with no overflow), normalizes c and re-checks
theta c = 0 (``numerics.kernel_identity``).  Every answer's weights have
the largest support, so it is strict exactly when no weight is near 0.

Rescaling x_i by s rescales column i of the reduced diagram matrix by
s^2 > 0, which keeps scalability.  So every route reads that matrix on
unit-norm columns, the one per-frame copy (``diagram.unit_diagram_matrix``):
the hull solver, the kernel (whose width is the corank), the cofactor and
codim-2 routes and the margin.  The thresholds are those of the
``numerics`` table.
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
    """The first row of the reduced diagram matrix whose entries all have
    the same strict sign, which forces every kernel vector with c >= 0 to
    vanish, so the frame cannot be scalable.  No route calls it (see the
    module docstring).

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


ThetaSVD = namedtuple("ThetaSVD", ["U", "s", "Vt", "rank"])


@derived
def theta_svd(F):
    """The full SVD U diag(s) V^T of the reduced diagram matrix on unit-norm
    columns, with its rank, from one LAPACK call per frame: the kernel and
    corank, and the certificates of the cofactor and codim-2 routes, are
    read from it."""
    U, s, Vt = numerics.svd(unit_diagram_matrix(F).data)
    return ThetaSVD(U=U, s=s, Vt=Vt, rank=numerics.rank_of(s))


def theta_kernel(F):
    """Orthonormal basis of the kernel of the reduced diagram matrix on
    unit-norm columns, as columns ordered by ascending singular value: a
    read-only view of the trailing right singular vectors of ``theta_svd``.
    Its width is the corank, measured without regard to the scale of the
    vectors.  A kernel vector v of the unit matrix is the kernel vector
    v_i / ||theta_i|| of the reduced diagram matrix itself."""
    svd = theta_svd(F)
    return svd.Vt[svd.rank:][::-1].T


def _condition(F):
    """s_1 / s_r, the condition of the unit matrix on its row space: a
    kernel basis from the SVD is accurate to about the machine precision
    times this, so the kernel routes scale their zero thresholds by it."""
    svd = theta_svd(F)
    return float(svd.s[0] / svd.s[svd.rank - 1]) if svd.rank else 1.0


def _kernel_certificate(F, p, method):
    """The "not scalable" answer of a kernel route from a vector p >= 1
    orthogonal to the kernel of the unit matrix theta^ = U S V^T of rank r.
    By Gordan's alternative such a p exists exactly when no c >= 0, c != 0
    has theta c = 0, and y = U_r S_r^{-1} V_r^T p gives theta^^T y = p, so
    theta^T y = ||theta_i|| p_i > 0: the certificate, checked."""
    U, s, Vt, r = theta_svd(F)
    return _certified(F, method, U[:, :r] @ ((Vt[:r] @ p) / s[:r]))


def _certified(F, method, y):
    """Every "not scalable" answer: a route's own certificate y, which must
    pass ``hull_certificate_check``."""
    if not hull_certificate_check(F, y):
        raise InternalNumericError(f"{method} certificate fails the hull certificate check")
    return ScalingResult(verdict=NOT_SCALABLE, method=method, certificate_y=y)


def _weights(w, norms):
    """The kernel vector w_i / norms_i of unit-column weights w; where one
    overflows, the quotients of the mantissas, shifted by one power of two
    that puts the largest in (0.5, 2): exact, and every ratio is kept."""
    with np.errstate(over="ignore"):
        c = w / norms
    if np.isfinite(c).all():
        return c
    (mw, ew), (mn, en) = np.frexp(w), np.frexp(norms)
    shift = ew - en
    return np.ldexp(mw / mn, shift - shift[w != 0.0].max())


def _finish_scalable(F, w, method):
    """Every scalable answer, from a route's unit-column weights w: the
    weights c_i = w_i / ||theta_i|| (``_weights``), sum 1, and checked.

    A weight w_i at most ``ZERO_TOL`` of sum(w) is rounding noise and is
    set to +0.  The margin is read off w: ``near_zero`` lists the indices
    at or below ``STRICT_MARGIN`` of its sum, and the answer is strict
    exactly when that list is empty, so every route is judged by the same
    rule.  Last, theta c must pass ``numerics.kernel_identity``, the same at
    every scale."""
    w = np.asarray(w, dtype=float).copy()
    w[w < 0] = 0.0
    w[w <= ZERO_TOL * w.sum()] = 0.0
    near = [int(i) for i in np.flatnonzero(w <= STRICT_MARGIN * w.sum())]
    c = _weights(w, unit_diagram_matrix(F).norms)
    c = c / c.sum()
    if not numerics.kernel_identity(reduced_diagram_matrix(F), c):
        raise InternalNumericError("reported weights fail the kernel identity")
    return ScalingResult(
        verdict=SCALABLE if near else STRICTLY_SCALABLE,
        method=method,
        weights_c=c,
        scalars_a=np.sqrt(c),
        near_zero=near,
    )


def decide(F) -> ScalingResult:
    """The scalability answer of ``analyze``, ``scale --method auto|split``
    and the canonical-dual check, by the hull solver on the per-frame unit
    columns of the reduced diagram matrix (``diagram.unit_diagram_matrix``),
    so the verdict does not change when a frame vector is rescaled.  The
    solver carries its witness to one of largest support, so ``near_zero``
    holds exactly the vectors that every scaling gives weight 0."""
    P = unit_diagram_matrix(F).data
    y, w = numerics.solve_feasibility(numerics.FeasibilityProblem(
        A=P, b=np.zeros(P.shape[0]), require_strict=True))
    if y is not None:
        return _certified(F, METHOD_FEASIBILITY, y)
    return _finish_scalable(F, w, METHOD_FEASIBILITY)


# the same function under its former name: bench/tracing.py rebinds the
# functions it traces by name, and tests/test_bench_tracing.py requires each
decide_scalable = decide


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


def _classify_signs(v, condition):
    thresh = RANK_TOL * condition * float(np.abs(v).max(initial=0.0))
    if float(v.min()) >= -thresh:
        return ALL_NONNEG
    if float(v.max()) <= thresh:
        return ALL_NONPOS
    return MIXED


def cofactor_scaling(F):
    """Rank m-1 route: the kernel of the reduced diagram matrix is the line of
    the cofactor vector, so scalability reduces to its sign pattern.  The
    kernel comes from one SVD of the matrix on unit-norm columns as a unit
    vector w of unit-column weights; its signs are judged on w, to within
    the accuracy of the SVD (``_condition``), and w_i / ||theta_i|| is
    proportional to the cofactors.  A mixed w gives the certificate.

    Returns (CofactorReport, ScalingResult).
    """
    kernel = theta_kernel(F)
    if kernel.shape[1] != 1:
        raise CorankMismatchError(
            f"cofactor method needs corank 1, measured corank {kernel.shape[1]}")
    w = kernel[:, 0]
    v = _weights(w, unit_diagram_matrix(F).norms)
    unit_v = v / numerics.column_norms(v[:, None])
    sign_class = _classify_signs(w, _condition(F))
    report = CofactorReport(corank=1, cofactor_vector=unit_v, sign_class=sign_class)
    if sign_class == MIXED:
        # p = 1 + q with w.p = 0: q >= 0 on the entries of w whose sign is
        # not that of sum(w), which both signs of a mixed w have
        total = float(w.sum())
        part = np.maximum(-w, 0.0) if total > 0.0 else np.maximum(w, 0.0)
        p = 1.0 + (abs(total) / float(part @ part)) * part
        return report, _kernel_certificate(F, p, METHOD_COFACTOR)
    return report, _finish_scalable(F, np.abs(w), METHOD_COFACTOR)


# ---------------------------------------------------------------------------
# corank-2 parametric route


def _feasible_arc(p, q, accuracy=ZERO_TOL):
    """The directions t with p_i cos t + q_i sin t >= 0 for every i: the
    half-circles centred on the normal angles phi_i = atan2(q_i, p_i).  They
    meet exactly when the angles fit in a half-circle, that is when the widest
    circular gap between them is at least pi.  ``accuracy`` is that of
    each angle in radians, one for all or one per entry, and the gap is
    judged to within the sum of the accuracies of its two end angles.
    Returns (t, width) for the feasible arc, of width gap - pi and bisected by
    the midpoint t of the arc the angles fill, or None when it is empty."""
    phi = np.arctan2(q, p)
    order = np.argsort(phi)
    phi = phi[order]
    accuracy = np.broadcast_to(accuracy, phi.shape)[order]
    gaps = np.diff(phi, append=phi[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    if gaps[k] < np.pi - (accuracy[k] + accuracy[(k + 1) % phi.size]):
        return None
    t = phi[(k + 1) % phi.size] + 0.5 * (2.0 * np.pi - gaps[k])
    return float(t), float(gaps[k] - np.pi)


def _balancing_vector(kernel, keep, condition):
    """p = 1 + q with q >= 0 and kernel^T p = 0, for a kernel whose kept rows
    u_i = (xi_1i, xi_2i) leave no circular gap of pi: their cone is the
    plane, so g = -sum_i u_i lies in the cone of the two kept u_a, u_b whose
    angles bracket it, less than pi apart, and g = q_a u_a + q_b u_b by
    Cramer's rule with q_a, q_b >= 0.  When the angle of g is within
    ``ZERO_TOL`` times the condition of the SVD (``_condition``), in radians,
    of that of u_a, g lies on the ray of u_a (and of any row parallel to it),
    and q_a alone is its projection."""
    g = -kernel.sum(axis=0)
    idx = np.flatnonzero(keep)
    phi = np.arctan2(kernel[idx, 1], kernel[idx, 0])
    order = np.argsort(phi)
    psi = np.arctan2(g[1], g[0])
    k = int(np.searchsorted(phi[order], psi, side="right"))
    a, b = idx[order[(k - 1) % idx.size]], idx[order[k % idx.size]]
    ua, ub = kernel[a], kernel[b]
    p = np.ones(kernel.shape[0])
    if (psi - np.arctan2(ua[1], ua[0])) % (2.0 * np.pi) <= ZERO_TOL * condition:
        p[a] += max(float(g @ ua), 0.0) / float(ua @ ua)
    else:
        det = ua[0] * ub[1] - ua[1] * ub[0]
        p[a] += max((g[0] * ub[1] - g[1] * ub[0]) / det, 0.0)
        p[b] += max((ua[0] * g[1] - ua[1] * g[0]) / det, 0.0)
    return p


def codim2_scaling(F):
    """Rank m-2 route: every kernel vector of the matrix on unit-norm
    columns is a multiple of cos(t) xi_1 + sin(t) xi_2 for the orthonormal
    basis xi_1, xi_2 of that kernel from one SVD, and scalability holds
    exactly when some direction t keeps all entries nonnegative: when the
    normal angles of the entries (p_i, q_i) = (xi_1i, xi_2i) leave a circular
    gap of at least pi (``_feasible_arc``), judged to within the accuracy of
    their angles; entries within the accuracy of the SVD of 0
    (``_condition``) constrain nothing and get weight 0.  The weights come
    from the bisector of the feasible arc, which bisects the feasible cone
    and so depends only on the kernel; without an arc, the kept entries
    give the certificate (``_balancing_vector``)."""
    kernel = theta_kernel(F)
    if kernel.shape[1] != 2:
        raise CorankMismatchError(
            f"codim-2 method needs corank 2, measured corank {kernel.shape[1]}")
    xi1, xi2 = kernel.T
    # unit basis vectors: the scale lies in [1/sqrt(m), 1]; an entry within
    # the accuracy of the kernel of 0 has no angle to judge, and the angle of
    # any other row u_i is accurate to that accuracy over |u_i|
    scale = max(float(np.abs(xi1).max()), float(np.abs(xi2).max()))
    condition = _condition(F)
    accuracy = ZERO_TOL * condition * scale
    lengths = np.hypot(xi1, xi2)
    keep = lengths > accuracy
    arc = _feasible_arc(xi1[keep], xi2[keep], accuracy / lengths[keep])
    if arc is None:
        return _kernel_certificate(F, _balancing_vector(kernel, keep, condition),
                                   METHOD_CODIM2)
    t, _ = arc
    w = np.cos(t) * xi1 + np.sin(t) * xi2
    w[~keep] = 0.0
    if float(w.min()) < -IDENTITY_TOL * scale:
        raise InternalNumericError("codim-2 direction produced a negative weight")
    return _finish_scalable(F, w, METHOD_CODIM2)

