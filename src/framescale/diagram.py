"""Diagram vectors and (reduced) diagram matrices.

The diagram vector of x in R^n collects the pairwise coordinate square
differences and products, scaled so that the norm of the full diagram vector
equals ||x||^2.  Pairs are ordered lexicographically:
(1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n).  The reduced form keeps only
the (1,j) difference entries, which span the same row space because every
(i,j) difference row is a difference of two leading rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DimensionMismatchError, DimensionTooSmallError, NotUnitNormError
from .frame_core import derived

FULL = "full"
REDUCED = "reduced"


def reduced_size(n):
    """Row count of the reduced diagram matrix: (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


@dataclass(frozen=True)
class UnitDiagramMatrix:
    """θ̃_X with each column divided by its 2-norm.  Rescaling x_i by s
    rescales column i of θ̃_X by s^2 > 0, so this matrix, and everything read
    from it (signs, rank, kernel, unit-column weights), does not depend on
    the scale of the frame vectors."""

    data: np.ndarray   # reduced_size(n) x m, unit-norm columns
    norms: np.ndarray  # the column norms of θ̃_X, 1 for a zero column


def _diagram_columns(X, kind):
    """Diagram vectors of the columns of the n x m matrix X, as columns.  In
    R^1 there are no coordinate pairs, so the matrix has no rows."""
    n, m = X.shape
    if kind not in (FULL, REDUCED):
        raise ValueError(f"unknown diagram kind {kind!r}")
    if n == 1:
        return np.zeros((0, m))
    scale = 1.0 / np.sqrt(n - 1)
    i, j = np.triu_indices(n, 1)  # the lexicographic pairs
    di, dj = (i, j) if kind == FULL else (i[: n - 1], j[: n - 1])
    diffs = (X[di] ** 2 - X[dj] ** 2) * scale
    prods = np.sqrt(2 * n) * X[i] * X[j] * scale
    return np.vstack([diffs, prods])


def diagram_vector(x, kind=FULL) -> np.ndarray:
    """The diagram vector of x, read-only, of norm ||x||^2 (full form); none
    in R^1."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 2:
        raise DimensionTooSmallError("diagram vectors require n >= 2")
    entries = _diagram_columns(x[:, None], kind)[:, 0]
    entries.setflags(write=False)
    return entries


def full_diagram_matrix(F) -> np.ndarray:
    """n(n-1) x m matrix whose i-th column is the full diagram vector of x_i."""
    return _diagram_columns(F.synthesis, FULL)


def reduced_diagram_matrix(F) -> np.ndarray:
    """The reduced diagram matrix θ̃_X of F, reduced_size(n) x m and
    read-only, column i the reduced diagram vector of x_i; computed once per
    frame."""
    return derived(F, "reduced_diagram_matrix", _reduced_diagram_matrix)


def _reduced_diagram_matrix(F):
    data = _diagram_columns(F.synthesis, REDUCED)
    data.setflags(write=False)
    return data


def unit_diagram_matrix(F) -> UnitDiagramMatrix:
    """θ̃_X on unit-norm columns, with its column norms, computed once per
    frame."""
    return derived(F, "unit_diagram_matrix", _unit_diagram_matrix)


def _unit_diagram_matrix(F):
    theta = reduced_diagram_matrix(F)
    norms = numerics.column_norms(theta)
    data = theta / norms
    for a in (data, norms):
        a.setflags(write=False)
    return UnitDiagramMatrix(data=data, norms=norms)


def diagram_inner_identity_check(x, y) -> float:
    """Residual of (n-1)<x~, y~> = n<x, y>^2 - ||x||^2 ||y||^2 (full vectors)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise DimensionMismatchError("x and y must have the same dimension")
    n = x.size
    if n < 2:
        raise DimensionTooSmallError("identity requires n >= 2")
    dx = diagram_vector(x, FULL)
    dy = diagram_vector(y, FULL)
    lhs = (n - 1) * float(dx @ dy)
    rhs = n * float(x @ y) ** 2 - float(x @ x) * float(y @ y)
    return abs(lhs - rhs)


def diagram_gram_sum(F) -> float:
    """Sum over all pairs of diagram-vector inner products; zero exactly for
    unit-norm tight frames, positive otherwise."""
    X = F.synthesis
    norms = np.linalg.norm(X, axis=0)
    if float(np.abs(norms - 1.0).max()) > numerics.PIVOT_TOL:
        raise NotUnitNormError("diagram_gram_sum requires unit-norm frame vectors")
    if F.m < F.n:
        raise DimensionMismatchError("need m >= n vectors")
    D = full_diagram_matrix(F)
    total = D.sum(axis=1)
    return float(total @ total)
