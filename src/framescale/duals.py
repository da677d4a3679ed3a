"""Dual frames and their scalability.

Covers the canonical dual S^{-1} X, read off the row-sorted QR of the
synthesis (``frame_core.synthesis_qr``; the reconstruction identity checks it
and proves that it spans), alternate duals built from a Parseval scaling,
scalability under invertible transforms, canonical-dual scalability decided
on the dual frame itself, its Grammian form, and the Hadamard-based
counterexample of a scalable frame with a non-scalable canonical dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    InternalNumericError,
    NoHadamardAvailableError,
    NonFiniteError,
    NotParsevalScalingError,
    SingularTransformError,
    ZeroVectorError,
)
from .frame_core import (
    Frame,
    _check_weight_length,
    _checked_synthesis,
    apply_scaling,
    derived,
    frame_from_synthesis,
    is_dual,
    is_tight,
    synthesis_qr,
)
from .scalability import decide
from .split_scaling import w_point


@dataclass(frozen=True)
class DualPair:
    """An alternate dual and the primal frame it is dual to."""

    primal: Frame
    dual: Frame


@dataclass(frozen=True)
class DualScalingReport:
    feasible: bool
    weights_c: np.ndarray | None = None
    scalars_a: np.ndarray | None = None
    residual: float | None = None
    certificate_y: np.ndarray | None = None  # separating functional, dual frame


@derived
def canonical_dual(F) -> Frame:
    """The canonical dual frame of F, with vectors S^{-1} x_i, computed once
    per frame and kept on F; it holds no reference back to F.

    The computed dual takes the range checks of every synthesis (finite,
    nonzero vectors whose squares stay in range) and the reconstruction
    identity X Y^T = I (``is_dual``), which proves that it spans, so it
    takes no spanning test of its own."""
    # S^{-1} X = R^{-1} Q^T for the sorted QR X^T[order] = Q R, with no
    # S = X X^T to square the condition number of X; each dual vector is
    # accurate relative to its own length
    qr = synthesis_qr(F)
    Y = np.empty_like(F.synthesis)
    Y[:, qr.order] = qr.R_inv @ qr.Q.T
    # F is a valid frame, so a dual that fails the range checks (a vector
    # that rounds to 0) is a numeric failure, not an input error
    try:
        Y = _checked_synthesis(Y)
    except (NonFiniteError, ZeroVectorError) as exc:
        raise InternalNumericError(f"canonical dual is not a frame: {exc}") from exc
    dual = Frame(synthesis=Y)
    # max |X Y^T - I| <= RESIDUAL_TOL gives ||X Y^T - I||_2 <= n RESIDUAL_TOL < 1,
    # so X Y^T, and with it Y, has rank n: the dual spans with no test of its own
    if not is_dual(F, dual):
        raise InternalNumericError("canonical dual fails the reconstruction identity")
    return dual


def alternate_dual_from_scaling(F, a) -> DualPair:
    """Alternate dual {a_i^2 x_i} of a frame whose scaling by ``a`` is
    Parseval.  Vectors with zero weight are dropped from both sides first;
    rescaling the dual by 1/a_i recovers the Parseval frame."""
    a = _check_weight_length(F, a)
    scaled = apply_scaling(F, a)
    t = is_tight(scaled)
    if not t.tight or abs(t.bound - 1.0) > numerics.RESIDUAL_TOL:
        raise NotParsevalScalingError("weights do not produce a Parseval frame")
    keep = a > 0.0
    primal = frame_from_synthesis(F.synthesis[:, keep])
    dual = frame_from_synthesis(F.synthesis[:, keep] * a[keep] ** 2)
    if not is_dual(primal, dual):
        raise InternalNumericError("alternate dual fails the reconstruction identity")
    return DualPair(primal=primal, dual=dual)


def check_transform_scaling(F, T, a) -> bool:
    """True when the frame operator of {a_i x_i} equals (T^T T)^{-1}, which
    is equivalent to {T x_i} being scalable with weights a, within
    ``numerics.RESIDUAL_TOL`` of the largest entry of that target."""
    a = _check_weight_length(F, a)
    T = np.asarray(T, dtype=float)
    if T.shape != (F.n, F.n):
        raise DimensionMismatchError(f"transform must be {F.n}x{F.n}")
    if not np.isfinite(T).all():
        raise NonFiniteError("transform entries must be finite")
    # one SVD T = P diag(sigma) Q^T decides invertibility and gives
    # (T^T T)^{-1} = Q diag(1/sigma^2) Q^T
    _, sigma, Qt = np.linalg.svd(T)
    if numerics.rank_of(sigma) < F.n:
        raise SingularTransformError("transform is not invertible")
    scaled = F.synthesis * a
    S1 = scaled @ scaled.T
    # T is invertible, so the target is positive definite and its largest
    # entry is positive
    target = (Qt.T / sigma**2) @ Qt
    scale = float(np.abs(target).max())
    return float(np.abs(S1 - target).max()) <= numerics.RESIDUAL_TOL * scale


def canonical_dual_scalable(F) -> DualScalingReport:
    """Scalability of the canonical dual {z_i} = {S^{-1} x_i}, decided as a
    frame: ``scalability.decide`` on the dual frame itself, the route policy
    of ``analyze`` and ``scale``.

    Every route works on unit-norm columns, so the answer does not depend on
    the scale of F.  Its weights c' (sum 1) map to the point
    c = ``split_scaling.w_point(dual, c')`` of W∩V for the dual, the
    Parseval map of every frame, which solves sum_i c_i x_i x_i^T = S^2;
    scaling the dual by a_i = sqrt(c_i) makes it Parseval.  Both identities
    are re-checked within ``numerics.RESIDUAL_TOL`` of their largest entry,
    and ``residual`` is that of the Parseval one,
    max |sum_i c_i z_i z_i^T - I|.  A "not scalable" answer carries the dual
    frame's certificate y.
    """
    dual = canonical_dual(F)
    result = decide(dual)
    if not result.scalable:
        return DualScalingReport(feasible=False, certificate_y=result.certificate_y)
    Z = dual.synthesis
    c = w_point(dual, result.weights_c)
    # the S^2 identity on X / t and c / t^2 for the power of two t at the
    # peak of X: exact, and S^2 stays in the float range
    _, e = np.frexp(float(np.abs(F.synthesis).max()))
    X = np.ldexp(F.synthesis, -e)
    S = X @ X.T
    s_sq = S @ S
    achieved = (X * np.ldexp(c, -2 * e)) @ X.T
    if float(np.abs(achieved - s_sq).max()) > numerics.RESIDUAL_TOL * float(np.abs(s_sq).max()):
        raise InternalNumericError("dual-scaling weights fail the S^2 identity")
    residual = float(np.abs((Z * c) @ Z.T - np.eye(F.n)).max())
    if residual > numerics.RESIDUAL_TOL:
        raise InternalNumericError("scaled canonical dual fails the Parseval identity")
    return DualScalingReport(feasible=True, weights_c=c, scalars_a=np.sqrt(c),
                             residual=residual)


def grammian_form_check(F, a) -> float:
    """Max-norm residual of X (D^2 - G) X^T with D = diag(a) and G = X^T X;
    zero exactly when a_i^2 solve the canonical-dual scaling system."""
    a = _check_weight_length(F, a)
    X = F.synthesis
    G = X.T @ X
    D2 = np.diag(a * a)
    return float(np.abs(X @ (D2 - G) @ X.T).max())


def sylvester_hadamard(n) -> np.ndarray:
    """Hadamard matrix of order n (a power of two) by the Sylvester doubling
    construction."""
    if n < 1 or n & (n - 1) != 0:
        raise NoHadamardAvailableError(
            f"only Sylvester orders (powers of two) are supported, got {n}"
        )
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def p1_counterexample(n) -> Frame:
    """Scalable 2n-vector frame whose canonical dual is not scalable.

    Rows x_i of a unitary Hadamard matrix (entries +-1/sqrt(n)) form a
    Parseval frame; companions y_i multiply the last two coordinates by 2
    and 3.  The union has frame operator diag(2, ..., 2, 5, 10) but the
    eigenvalue equations for an S^2 scaling are contradictory.
    """
    if n < 2:
        raise NoHadamardAvailableError("construction needs n >= 2")
    U = sylvester_hadamard(n) / np.sqrt(n)
    w = np.ones(n)
    w[-2] = 2.0
    w[-1] = 3.0
    X = np.hstack([U.T, (U * w).T])
    return frame_from_synthesis(X)
