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
from functools import lru_cache

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    NonFiniteError,
    NotUnitNormError,
)
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


@lru_cache(maxsize=None)
def coordinate_pairs(n):
    """The coordinate pairs i < j of R^n in lexicographic order, as two
    read-only index arrays built once per n."""
    pairs = np.triu_indices(n, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


@lru_cache(maxsize=None)
def _row_factors(n):
    """1/sqrt(n-1), the factor of every diagram row of R^n, and sqrt(2n),
    the extra factor of its product rows, computed once per n."""
    return 1.0 / np.sqrt(n - 1), np.sqrt(2 * n)


def _diagram_columns(X, kind):
    """Diagram vectors of the columns of the n x m matrix X, as columns,
    written into one array.  In R^1 there are no coordinate pairs, so the
    matrix has no rows.  A product entry, up to twice the largest square,
    can overflow where the squares do not: an input error naming the vector."""
    n, m = X.shape
    if kind not in (FULL, REDUCED):
        raise ValueError(f"unknown diagram kind {kind!r}")
    if n == 1:
        return np.zeros((0, m))
    scale, root = _row_factors(n)
    i, j = coordinate_pairs(n)
    d = i.size if kind == FULL else n - 1
    out = np.empty((d + i.size, m))
    with np.errstate(over="ignore", invalid="ignore"):  # diagram_vector skips intake
        sq = X * X
        diffs = np.subtract(sq[i[:d]], sq[j[:d]], out=out[:d])
        diffs *= scale
        prods = np.multiply(X[i], root, out=out[d:])
        prods *= X[j]
        prods *= scale
    bad = np.flatnonzero(~np.isfinite(out).all(axis=0))
    if bad.size:
        raise NonFiniteError(f"frame vector {bad[0]} is too large: its diagram entries overflow")
    return out


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


@derived
def reduced_diagram_matrix(F) -> np.ndarray:
    """The reduced diagram matrix θ̃_X of F, reduced_size(n) x m and
    read-only, column i the reduced diagram vector of x_i; computed once per
    frame."""
    return _diagram_columns(F.synthesis, REDUCED)


@derived
def unit_diagram_matrix(F) -> UnitDiagramMatrix:
    """θ̃_X on unit-norm columns, with its column norms, computed once per
    frame."""
    theta = reduced_diagram_matrix(F)
    norms = numerics.column_norms(theta)
    return UnitDiagramMatrix(data=theta / norms, norms=norms)


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
    unit-norm tight frames, positive otherwise.  Each norm ||x_i|| must be 1
    within ``numerics.RESIDUAL_TOL``."""
    X = F.synthesis
    norms = np.linalg.norm(X, axis=0)
    if float(np.abs(norms - 1.0).max()) > numerics.RESIDUAL_TOL:
        raise NotUnitNormError("diagram_gram_sum requires unit-norm frame vectors")
    if F.m < F.n:
        raise DimensionMismatchError("need m >= n vectors")
    D = full_diagram_matrix(F)
    total = D.sum(axis=1)
    return float(total @ total)
