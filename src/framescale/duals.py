"""Dual frames and their scalability.

Covers the canonical dual S^{-1} X, alternate duals built from a Parseval
scaling, scalability under invertible transforms, canonical-dual
scalability decided on the dual frame itself, its Grammian form, and the
Hadamard-based counterexample of a scalable frame with a non-scalable
canonical dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    InternalNumericError,
    NoHadamardAvailableError,
    NotParsevalScalingError,
    SingularTransformError,
)
from .frame_core import (
    Frame,
    apply_scaling,
    derived,
    frame_from_synthesis,
    frame_operator,
    is_dual,
    is_tight,
)
from .scalability import decide_scalable

CANONICAL = "canonical"
ALTERNATE = "alternate"


@dataclass(frozen=True)
class DualPair:
    primal: Frame
    dual: Frame
    kind: str


@dataclass(frozen=True)
class DualScalingReport:
    feasible: bool
    weights_c: np.ndarray | None = None
    scalars_a: np.ndarray | None = None
    residual: float | None = None
    certificate_y: np.ndarray | None = None  # separating functional, dual frame


def _spectral_power(spec, power):
    """Matrix power of a symmetric positive-definite matrix from its
    eigendecomposition."""
    q = spec.eigenvectors
    return (q * spec.eigenvalues**power) @ q.T


def canonical_dual(F) -> DualPair:
    """Canonical dual frame with vectors S^{-1} x_i, computed once per
    frame."""
    return derived(F, "canonical_dual", _canonical_dual)


def _canonical_dual(F):
    op = frame_operator(F)
    s_inv = _spectral_power(op.spectral, -1.0)
    Y = s_inv @ F.synthesis
    dual = frame_from_synthesis(Y)
    pair = DualPair(primal=F, dual=dual, kind=CANONICAL)
    if not is_dual(F, dual):
        raise InternalNumericError("canonical dual fails the reconstruction identity")
    return pair


def alternate_dual_from_scaling(F, a, tol=1e-8) -> DualPair:
    """Alternate dual {a_i^2 x_i} of a frame whose scaling by ``a`` is
    Parseval.  Vectors with zero weight are dropped from both sides first;
    rescaling the dual by 1/a_i recovers the Parseval frame."""
    a = np.asarray(a, dtype=float).ravel()
    if a.size != F.m:
        raise DimensionMismatchError(f"expected {F.m} weights, got {a.size}")
    scaled = apply_scaling(F, a)
    t = is_tight(scaled, tol)
    if not t.tight or abs(t.bound - 1.0) > tol:
        raise NotParsevalScalingError("weights do not produce a Parseval frame")
    keep = a > 0.0
    primal = frame_from_synthesis(F.synthesis[:, keep])
    dual = frame_from_synthesis(F.synthesis[:, keep] * a[keep] ** 2)
    pair = DualPair(primal=primal, dual=dual, kind=ALTERNATE)
    if not is_dual(primal, dual):
        raise InternalNumericError("alternate dual fails the reconstruction identity")
    return pair


def check_transform_scaling(F, T, a, tol=1e-7) -> bool:
    """True when the frame operator of {a_i x_i} equals (T^T T)^{-1}, which
    is equivalent to {T x_i} being scalable with weights a."""
    T = np.asarray(T, dtype=float)
    if T.shape != (F.n, F.n):
        raise DimensionMismatchError(f"transform must be {F.n}x{F.n}")
    if numerics.rank(T) < F.n:
        raise SingularTransformError("transform is not invertible")
    a = np.asarray(a, dtype=float).ravel()
    scaled = F.synthesis * a
    S1 = scaled @ scaled.T
    target = _spectral_power(numerics.symmetric_eigen(T.T @ T), -1.0)
    scale = max(float(np.abs(target).max()), 1e-300)
    return float(np.abs(S1 - target).max()) <= tol * scale


def canonical_dual_scalable(F) -> DualScalingReport:
    """Scalability of the canonical dual {z_i} = {S^{-1} x_i}, decided as a
    frame: ``decide_scalable`` on the unit vectors u_i = z_i / ||z_i||.

    Scalability is invariant under rescaling each vector, so the answer does
    not depend on the scale of F.  Weights c' of the unit frame (sum 1) map
    back to c_i = n c'_i / ||z_i||^2, which solve
    sum_i c_i x_i x_i^T = S^2; scaling the dual by a_i = sqrt(c_i) makes it
    Parseval.  That identity is re-checked, and so is the route through
    S^{-1/2}: {sqrt(c_i) S^{-1/2} x_i} must have frame operator S.  A "not
    scalable" answer carries the unit frame's certificate y; the diagram map
    is quadratic, so y certifies the dual frame itself.
    """
    Y = canonical_dual(F).dual.synthesis
    sq_norms = (Y * Y).sum(axis=0)
    if F.n == 1:
        c_unit = np.full(F.m, 1.0 / F.m)  # every frame in R^1 is tight
    else:
        result = decide_scalable(frame_from_synthesis(Y / np.sqrt(sq_norms)))
        if not result.scalable:
            return DualScalingReport(feasible=False, certificate_y=result.certificate_y)
        c_unit = result.weights_c
    c = F.n * c_unit / sq_norms
    a = np.sqrt(c)
    op = frame_operator(F)
    s_sq = op.S @ op.S
    achieved = (F.synthesis * c) @ F.synthesis.T
    residual = float(np.abs(achieved - s_sq).max())
    if residual > 1e-7 * float(np.abs(s_sq).max()):
        raise InternalNumericError("dual-scaling weights fail the S^2 identity")
    s_inv_half = _spectral_power(op.spectral, -0.5)
    Z = s_inv_half @ (F.synthesis * a)
    if float(np.abs(Z @ Z.T - op.S).max()) > 1e-7 * float(np.abs(op.S).max()):
        raise InternalNumericError("S^{-1/2} cross-check failed")
    return DualScalingReport(feasible=True, weights_c=c, scalars_a=a, residual=residual)


def grammian_form_check(F, a) -> float:
    """Max-norm residual of X (D^2 - G) X^T with D = diag(a) and G = X^T X;
    zero exactly when a_i^2 solve the canonical-dual scaling system."""
    a = np.asarray(a, dtype=float).ravel()
    if a.size != F.m:
        raise DimensionMismatchError(f"expected {F.m} weights, got {a.size}")
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
