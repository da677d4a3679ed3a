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
from .diagram import pair_indices
from .errors import DimensionMismatchError
from .frame_core import derived
from .scalability import (
    METHOD_FEASIBILITY,
    NOT_SCALABLE,
    ScalingResult,
    _finish_scalable,
    _lp_certificate,
)


@dataclass(frozen=True)
class RowSystem:
    u: list           # synthesis rows u_j, each of length m
    u_squared: list   # entrywise squares u_j^2
    cross_products: list  # u_i * u_j entrywise, pairs (i, j) lexicographic
    pairs: list


@dataclass(frozen=True)
class ConeMembership:
    member: bool
    a: np.ndarray | None = None


def row_system(F) -> RowSystem:
    """Synthesis rows, their squares and pairwise products, computed once
    per frame."""
    return derived(F, "row_system", _row_system)


def _row_system(F):
    u = list(F.synthesis)  # views of the read-only synthesis rows
    pairs = pair_indices(F.n)
    u_squared = [uj * uj for uj in u]
    cross_products = [u[i] * u[j] for i, j in pairs]
    for v in u_squared + cross_products:
        v.setflags(write=False)
    return RowSystem(u=u, u_squared=u_squared, cross_products=cross_products, pairs=pairs)


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
    rs = row_system(F)
    for usq in rs.u_squared:
        if abs(float(a @ usq) - 1.0) > numerics.RESIDUAL_TOL:
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
    rs = row_system(F)
    scale = max(float(a @ usq) for usq in rs.u_squared)
    for cp in rs.cross_products:
        if abs(float(a @ cp)) > numerics.RESIDUAL_TOL * scale:
            return ConeMembership(member=False)
    return ConeMembership(member=True, a=a.copy())


def _w_constraints(F):
    rs = row_system(F)
    A = np.vstack(rs.u_squared)
    b = np.ones(F.n)
    return A, b


def find_W_element(F) -> ConeMembership:
    """Solve the W feasibility problem; NotMember means W is empty."""
    A, b = _w_constraints(F)
    out = numerics.solve_feasibility(numerics.FeasibilityProblem(A=A, b=b))
    if not out.feasible:
        return ConeMembership(member=False)
    return ConeMembership(member=True, a=out.witness)


def find_V_element(F) -> ConeMembership:
    """Search for a nontrivial (nonzero) element of V; the zero vector always
    belongs to V and is excluded by normalizing the weights to sum 1."""
    rs = row_system(F)
    if rs.cross_products:
        A = np.vstack(rs.cross_products)
        b = np.zeros(len(rs.cross_products))
    else:
        A = np.zeros((1, F.m))
        b = np.zeros(1)
    out = numerics.solve_feasibility(numerics.FeasibilityProblem(A=A, b=b))
    if not out.feasible:
        return ConeMembership(member=False)
    return ConeMembership(member=True, a=out.witness)


def intersection_scalability(F, strict=False) -> ScalingResult:
    """Joint feasibility over W and V, one LP; a point of the intersection
    gives Parseval weights sqrt(a_i).  With ``strict=True`` the LP maximizes
    the minimum weight on unit-norm columns, and that margin separates
    scalable from strictly scalable.

    The returned ``scalars_a`` are the Parseval weights; ``weights_c`` is the
    same kernel direction normalized to sum 1, matching the general test.
    """
    rs = row_system(F)
    A = np.vstack(rs.u_squared + rs.cross_products)
    b = np.concatenate([np.ones(F.n), np.zeros(len(rs.cross_products))])
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
