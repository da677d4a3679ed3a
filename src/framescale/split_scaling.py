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
from .diagram import pair_indices, reduced_diagram_matrix
from .errors import DimensionMismatchError
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
    X = F.synthesis
    u = [X[j].copy() for j in range(F.n)]
    pairs = pair_indices(F.n)
    return RowSystem(
        u=u,
        u_squared=[uj * uj for uj in u],
        cross_products=[u[i] * u[j] for i, j in pairs],
        pairs=pairs,
    )


def _check_weight_length(F, a):
    a = np.asarray(a, dtype=float).ravel()
    if a.size != F.m:
        raise DimensionMismatchError(f"expected {F.m} weights, got {a.size}")
    return a


def is_in_W(F, a, tol=1e-8) -> ConeMembership:
    """Membership in W: a >= 0 and <a, u_j^2> = 1 for every synthesis row."""
    a = _check_weight_length(F, a)
    if float(a.min(initial=0.0)) < -1e-12:
        return ConeMembership(member=False)
    rs = row_system(F)
    for usq in rs.u_squared:
        if abs(float(a @ usq) - 1.0) > tol:
            return ConeMembership(member=False)
    return ConeMembership(member=True, a=a.copy())


def is_in_V(F, a, tol=1e-8) -> ConeMembership:
    """Membership in V: a >= 0 and <a, u_i * u_j> = 0 for all row pairs."""
    a = _check_weight_length(F, a)
    if float(a.min(initial=0.0)) < -1e-12:
        return ConeMembership(member=False)
    rs = row_system(F)
    scale = max(float(np.abs(F.synthesis).max()) ** 2, 1.0)
    for cp in rs.cross_products:
        if abs(float(a @ cp)) > tol * scale:
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


def find_V_element(F, strict=False) -> ConeMembership:
    """Search for a nontrivial (nonzero) element of V; the zero vector always
    belongs to V and is excluded by normalizing the weights to sum 1."""
    rs = row_system(F)
    if rs.cross_products:
        A = np.vstack(rs.cross_products)
        b = np.zeros(len(rs.cross_products))
    else:
        A = np.zeros((1, F.m))
        b = np.zeros(1)
    out = numerics.solve_feasibility(
        numerics.FeasibilityProblem(A=A, b=b, require_strict=strict)
    )
    if not out.feasible:
        return ConeMembership(member=False)
    return ConeMembership(member=True, a=out.witness)


def intersection_scalability(F, strict=False) -> ScalingResult:
    """Joint feasibility over W and V; a point of the intersection gives
    Parseval weights sqrt(a_i).

    The returned ``scalars_a`` are the Parseval weights; ``weights_c`` is the
    same kernel direction normalized to sum 1, matching the general test.
    """
    rs = row_system(F)
    A = np.vstack(rs.u_squared + rs.cross_products)
    b = np.concatenate([np.ones(F.n), np.zeros(len(rs.cross_products))])
    out = numerics.solve_feasibility(
        numerics.FeasibilityProblem(A=A, b=b, require_strict=strict)
    )
    if not out.feasible and strict:
        out = numerics.solve_feasibility(numerics.FeasibilityProblem(A=A, b=b))
        if out.feasible:
            # feasible but not strictly: classify as plain scalable below
            result = _finish_scalable(out.witness / out.witness.sum(), METHOD_FEASIBILITY)
            result.scalars_a = np.sqrt(np.clip(out.witness, 0.0, None))
            return result
    if not out.feasible:
        theta = reduced_diagram_matrix(F).data
        return ScalingResult(
            verdict=NOT_SCALABLE,
            method=METHOD_FEASIBILITY,
            certificate_y=_lp_certificate(theta),
        )
    a = out.witness
    result = _finish_scalable(
        a / a.sum(), METHOD_FEASIBILITY,
        strict_margin=out.strict_margin if strict else None,
    )
    result.scalars_a = np.sqrt(np.clip(a, 0.0, None))
    return result
