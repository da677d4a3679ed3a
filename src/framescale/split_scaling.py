"""The two-subproblem decomposition of frame scaling.

Normalized scalability asks for nonnegative weights making every synthesis
row square-sum to 1 (the convex set W); orthogonal scalability asks for
nonnegative weights annihilating all entrywise row cross-products (the
positive cone V).  A frame is scalable exactly when W intersects V, and a
point of the intersection gives Parseval weights directly.

W and V are the two row blocks of the reduced diagram matrix θ̃: its first
n-1 rows are the square differences x_1^2 - x_j^2 and the rest the pair
products x_i x_j, each times a positive constant.  V is nontrivial exactly
when the product block has a kernel vector c >= 0, c != 0.  So is W for the
difference block: some a >= 0 has diag(sum_k a_k x_k x_k^T) = 1 exactly when
some c >= 0, c != 0 makes that diagonal constant, because its common value
lambda = sum_k c_k ||x_k||^2 / n is then > 0 and a = c / lambda
(``w_point``); and a constant diagonal is a zero difference block.  By
Gordan's alternative neither holds exactly when some y has B^T y > 0 for the
block B.  So ``find_W_element`` and ``find_V_element`` ask θ̃'s kernel
question on their block, of the hull solver (``scalability._theta_hull``,
which splits 1 on the block's own unit columns before Wolfe's nearest
point; any kernel vector, not one of largest support), as one pair (y, w):
a certificate y answers "empty" or "trivial", and unit-column weights w
answer with the point of W or V on the ray of the block's kernel vector
c = w_i / ||B_i||, which ``is_in_W`` or ``is_in_V`` must accept.  W∩V is
the kernel question on all of θ̃, so ``intersection_scalability`` is
``scalability.decide``, the same solver on every row with a witness of
largest support, with its weights c read as the point ``w_point(F, c)`` of
W∩V (``intersection_points``), which is an input error where it leaves the
float range.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .diagram import coordinate_pairs, reduced_diagram_matrix
from .errors import InternalNumericError, NonFiniteError
from .frame_core import _check_weight_length
from .scalability import ScalingResult, _theta_hull, _weights, decide


@dataclass(frozen=True)
class ConeMembership:
    member: bool
    a: np.ndarray | None = None


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


def w_point(F, c):
    """The point c / lambda of W on the ray of a c >= 0, c != 0 that makes
    the diagonal of sum_k c_k x_k x_k^T constant: lambda is that constant,
    sum_k c_k ||x_k||^2 / n; one beyond the float range is an input error."""
    with np.errstate(over="ignore"):
        a = c / (float(c @ (F.synthesis ** 2).sum(axis=0)) / F.n)
    if not np.isfinite(a).all():
        raise NonFiniteError("Parseval weights leave the float range")
    return a


def _v_point(F, c):
    """The point of V on the ray of c >= 0, c != 0: c normalized to sum 1."""
    return c / c.sum()


def _block_element(F, rows, point, member) -> ConeMembership:
    """Whether the block ``rows`` of θ̃ has a kernel vector c >= 0, c != 0,
    with the point ``point(F, c)`` that ``member`` accepts, from the hull
    solver's unit-column weights w as c = w_i / ||B_i|| for the block B;
    its point must pass."""
    y, w = _theta_hull(F, rows=rows)
    if y is not None:
        return ConeMembership(member=False)
    c = _weights(w, numerics.column_norms(reduced_diagram_matrix(F)[rows]))
    found = member(F, point(F, c))
    if not found.member:
        raise InternalNumericError(f"kernel vector of the block fails {member.__name__}")
    return found


def find_W_element(F) -> ConeMembership:
    """An element of W from θ̃'s square-difference block; NotMember means W
    is empty."""
    return _block_element(F, slice(F.n - 1), w_point, is_in_W)


def find_V_element(F) -> ConeMembership:
    """A nontrivial (nonzero) element of V, sum 1, from θ̃'s pair-product
    block; the zero vector always belongs to V.  In R^1 there are no row
    pairs, and every such weight vector is in V."""
    return _block_element(F, slice(F.n - 1, None), _v_point, is_in_V)


def intersection_points(F, c):
    """The points of W and V on the ray of a kernel vector c of θ̃:
    sum_i c_i x_i x_i^T = lambda I with lambda = sum_i c_i ||x_i||^2 / n, so
    c lies in V and c / lambda (``w_point``) in W∩V, and sqrt(c / lambda)
    are Parseval weights.  Both points are checked; a failure is a numeric
    one."""
    w_elem = is_in_W(F, w_point(F, c))
    v_elem = is_in_V(F, c)
    if not (w_elem.member and v_elem.member):
        raise InternalNumericError("reported weights fail the W or V identities")
    return w_elem, v_elem


def intersection_scalability(F) -> ScalingResult:
    """The W∩V answer: ``scalability.decide``, whose ``scalars_a`` are the
    Parseval weights sqrt(w_point(F, c)) of its weights c, checked by
    ``intersection_points``; ``weights_c`` stays the kernel vector
    normalized to sum 1, and a "not scalable" answer is decide's."""
    result = decide(F)
    if not result.scalable:
        return result
    w_elem, _ = intersection_points(F, result.weights_c)
    return replace(result, scalars_a=np.sqrt(w_elem.a))
