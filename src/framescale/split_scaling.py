"""The two-subproblem decomposition of frame scaling.

Normalized scalability asks for nonnegative weights making every synthesis
row square-sum to 1 (the convex set W); orthogonal scalability asks for
nonnegative weights annihilating all entrywise row cross-products (the
positive cone V).  A frame is scalable exactly when W intersects V, and a
point of the intersection gives Parseval weights directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionMismatchError
from .scalability import (
    METHOD_FEASIBILITY,
    NOT_SCALABLE,
    ScalingResult,
    _finish_scalable,
    _lp_certificate,
)


@dataclass(frozen=True)
class ConeMembership:
    member: bool
    a: np.ndarray | None = None


def _lift(F):
    """The rows of the W and V systems: the squared synthesis rows X∘X and
    the row products X[i]∘X[j] over i < j, in θ̃'s pair order.  Both are
    C-ordered, as the solver's column-norm sums depend on memory layout."""
    X = F.synthesis
    i, j = np.triu_indices(F.n, 1)
    return np.ascontiguousarray(X * X), np.ascontiguousarray(X[i] * X[j])


def _lifted_sum(F, a):
    """sum_k a_k x_k x_k^T = (X a) X^T, whose diagonal holds the W terms
    <a, u_j^2> and whose upper triangle the V terms <a, u_i * u_j>."""
    X = F.synthesis
    M = (X * a) @ X.T
    return M.diagonal(), M[np.triu_indices(F.n, 1)]


def _check_weight_length(F, a):
    a = np.asarray(a, dtype=float).ravel()
    if a.size != F.m:
        raise DimensionMismatchError(f"expected {F.m} weights, got {a.size}")
    return a


def _nonnegative(a):
    """a >= 0, up to ``numerics.ZERO_TOL`` times its largest entry."""
    return float(a.min(initial=0.0)) >= -numerics.ZERO_TOL * float(a.max(initial=0.0))


def is_in_W(F, a) -> ConeMembership:
    """Membership in W: a >= 0 and <a, u_j^2> = 1 for every synthesis row,
    within ``numerics.RESIDUAL_TOL``."""
    a = _check_weight_length(F, a)
    if not _nonnegative(a):
        return ConeMembership(member=False)
    diagonal, _ = _lifted_sum(F, a)
    if np.any(np.abs(diagonal - 1.0) > numerics.RESIDUAL_TOL):
        return ConeMembership(member=False)
    return ConeMembership(member=True, a=a.copy())


def is_in_V(F, a) -> ConeMembership:
    """Membership in V: a >= 0 and <a, u_i * u_j> = 0 for all row pairs.

    The cross terms <a, u_i * u_j> are the off-diagonal entries of
    sum_k a_k x_k x_k^T, so each is judged against the largest diagonal
    entry <a, u_j^2> of that matrix, which bounds it by Cauchy-Schwarz: the
    test does not depend on the scale of a or of the frame vectors.
    """
    a = _check_weight_length(F, a)
    if not _nonnegative(a):
        return ConeMembership(member=False)
    diagonal, cross = _lifted_sum(F, a)
    if np.any(np.abs(cross) > numerics.RESIDUAL_TOL * float(diagonal.max())):
        return ConeMembership(member=False)
    return ConeMembership(member=True, a=a.copy())


def _solve_member(A, b) -> ConeMembership:
    out = numerics.solve_feasibility(numerics.FeasibilityProblem(A=A, b=b))
    if not out.feasible:
        return ConeMembership(member=False)
    return ConeMembership(member=True, a=out.witness)


def find_W_element(F) -> ConeMembership:
    """Solve the W feasibility problem; NotMember means W is empty."""
    squares, _ = _lift(F)
    return _solve_member(squares, np.ones(F.n))


def find_V_element(F) -> ConeMembership:
    """Search for a nontrivial (nonzero) element of V; the zero vector always
    belongs to V and is excluded by normalizing the weights to sum 1.  In
    R^1 there are no row pairs, and every such weight vector is in V."""
    _, products = _lift(F)
    return _solve_member(products, np.zeros(len(products)))


def intersection_scalability(F, strict=False) -> ScalingResult:
    """Joint feasibility over W and V, one LP; a point of the intersection
    gives Parseval weights sqrt(a_i).  With ``strict=True`` the LP maximizes
    the minimum weight on unit-norm columns, and that margin separates
    scalable from strictly scalable.

    The returned ``scalars_a`` are the Parseval weights; ``weights_c`` is the
    same kernel direction normalized to sum 1, matching the general test.
    """
    squares, products = _lift(F)
    A = np.vstack([squares, products])
    b = np.concatenate([np.ones(F.n), np.zeros(len(products))])
    out = numerics.solve_feasibility(
        numerics.FeasibilityProblem(A=A, b=b, require_strict=strict)
    )
    if not out.feasible:
        return ScalingResult(
            verdict=NOT_SCALABLE,
            method=METHOD_FEASIBILITY,
            certificate_y=_lp_certificate(F),
        )
    result = _finish_scalable(F, out.witness, METHOD_FEASIBILITY, out.strict_margin)
    # the witness is proportional to weights_c, so it has the same zeros
    result.scalars_a = np.sqrt(np.where(result.weights_c > 0.0, out.witness, 0.0))
    return result
