"""The two-subproblem decomposition of frame scaling.

Normalized scalability asks for nonnegative weights making every synthesis
row square-sum to 1 (the convex set W); orthogonal scalability asks for
nonnegative weights annihilating all entrywise row cross-products (the
positive cone V).  A frame is scalable exactly when W intersects V, and a
point of the intersection gives Parseval weights directly.  The answer of
``intersection_scalability`` is built and checked by ``scalability``, like
every route's: its margin and kernel identity are read on the reduced
diagram matrix, not on the W and V rows.

W and V are the two row blocks of the reduced diagram matrix θ̃: its first
n-1 rows are the square differences x_1^2 - x_j^2 and the rest the pair
products x_i x_j, each times a positive constant.  V is nontrivial exactly
when the product block has a kernel vector c >= 0, c != 0.  So is W for the
difference block: some a >= 0 has diag(sum_k a_k x_k x_k^T) = 1 exactly when
some c >= 0, c != 0 makes that diagonal constant, because its common value
lambda = sum_k c_k ||x_k||^2 / n is then > 0 and a = c / lambda
(``w_point``); and a constant diagonal is a zero difference block.  By
Gordan's alternative neither holds exactly when some y has B^T y > 0 for the
block B.  So ``find_W_element`` and ``find_V_element`` first split 1 on
their block of the unit θ̃ (``scalability.split_of_one``): its certificate
y answers "empty" or "trivial", and its strictly positive kernel vector c
answers with the point of W or V on the ray of c once ``is_in_W`` or
``is_in_V`` accepts it.  They run their LP only when the split answers
neither way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .diagram import coordinate_pairs
from .frame_core import _check_weight_length
from .scalability import (
    METHOD_FEASIBILITY,
    ScalingResult,
    _finish_scalable,
    _not_scalable,
    split_of_one,
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
    i, j = coordinate_pairs(F.n)
    return np.ascontiguousarray(X * X), np.ascontiguousarray(X[i] * X[j])


def _lifted_sum(F, a):
    """sum_k a_k x_k x_k^T = (X a) X^T, whose diagonal holds the W terms
    <a, u_j^2> and whose upper triangle the V terms <a, u_i * u_j>."""
    X = F.synthesis
    M = (X * a) @ X.T
    return M.diagonal(), M[coordinate_pairs(F.n)]


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


def w_point(F, c):
    """The point c / lambda of W on the ray of a c >= 0, c != 0 that makes
    the diagonal of sum_k c_k x_k x_k^T constant: lambda is that constant,
    sum_k c_k ||x_k||^2 / n."""
    return c / (float(c @ (F.synthesis ** 2).sum(axis=0)) / F.n)


def find_W_element(F) -> ConeMembership:
    """Solve the W feasibility problem; NotMember means W is empty.  The
    split of 1 on θ̃'s difference block answers with no LP when one of its
    parts is strictly positive and, for a kernel vector, ``is_in_W``
    accepts its point."""
    y, c = split_of_one(F, slice(F.n - 1))
    if y is not None:
        return ConeMembership(member=False)
    if c is not None:
        found = is_in_W(F, w_point(F, c))
        if found.member:
            return found
    squares, _ = _lift(F)
    return _solve_member(squares, np.ones(F.n))


def find_V_element(F) -> ConeMembership:
    """Search for a nontrivial (nonzero) element of V; the zero vector always
    belongs to V and is excluded by normalizing the weights to sum 1.  In
    R^1 there are no row pairs, and every such weight vector is in V.  The
    split of 1 on θ̃'s product block answers with no LP when one of its
    parts is strictly positive and, for a kernel vector, ``is_in_V``
    accepts it."""
    y, c = split_of_one(F, slice(F.n - 1, None))
    if y is not None:
        return ConeMembership(member=False)
    if c is not None:
        found = is_in_V(F, c / c.sum())
        if found.member:
            return found
    _, products = _lift(F)
    return _solve_member(products, np.zeros(len(products)))


def intersection_scalability(F, strict=False) -> ScalingResult:
    """Joint feasibility over W and V, one LP; a point of the intersection
    gives Parseval weights sqrt(a_i).  With ``strict=True`` the LP maximizes
    the minimum weight on the unit-norm columns of this system; strictness
    is then read off the reported weights, as for every route.

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
        return _not_scalable(F, METHOD_FEASIBILITY)
    result = _finish_scalable(F, out.witness, METHOD_FEASIBILITY, strict)
    # the witness is proportional to weights_c, so it has the same zeros
    result.scalars_a = np.sqrt(np.where(result.weights_c > 0.0, out.witness, 0.0))
    return result
