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

from .errors import DimensionMismatchError, DimensionTooSmallError, NotUnitNormError
from .frame_core import derived

FULL = "full"
REDUCED = "reduced"


def pair_indices(n):
    """Lexicographic index pairs (i, j), 0-based, i < j."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def reduced_size(n):
    """Row count of the reduced diagram matrix: (n-1)(n+2)/2."""
    return (n - 1) * (n + 2) // 2


@dataclass(frozen=True)
class DiagramVector:
    n: int
    kind: str
    entries: np.ndarray


@dataclass(frozen=True)
class ReducedDiagramMatrix:
    n: int
    data: np.ndarray  # reduced_size(n) x m, column i = reduced diagram vector of x_i

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]


def _diagram_columns(X, kind):
    """Diagram vectors of the columns of the n x m matrix X, as columns."""
    n = X.shape[0]
    if n < 2:
        raise DimensionTooSmallError("diagram vectors require n >= 2")
    scale = 1.0 / np.sqrt(n - 1)
    pairs = pair_indices(n)
    diffs = np.vstack([(X[i] ** 2 - X[j] ** 2) * scale for i, j in pairs])
    prods = np.vstack([np.sqrt(2 * n) * X[i] * X[j] * scale for i, j in pairs])
    if kind == FULL:
        return np.vstack([diffs, prods])
    if kind == REDUCED:
        return np.vstack([diffs[: n - 1], prods])
    raise ValueError(f"unknown diagram kind {kind!r}")


def diagram_vector(x, kind=FULL) -> DiagramVector:
    x = np.asarray(x, dtype=float).ravel()
    entries = _diagram_columns(x[:, None], kind)[:, 0]
    entries.setflags(write=False)
    return DiagramVector(n=x.size, kind=kind, entries=entries)


def full_diagram_matrix(F) -> np.ndarray:
    """n(n-1) x m matrix whose i-th column is the full diagram vector of x_i."""
    return _diagram_columns(F.synthesis, FULL)


def reduced_diagram_matrix(F) -> ReducedDiagramMatrix:
    """The reduced diagram matrix θ̃_X of F, computed once per frame."""
    return derived(F, "reduced_diagram_matrix", _reduced_diagram_matrix)


def _reduced_diagram_matrix(F):
    data = _diagram_columns(F.synthesis, REDUCED)
    data.setflags(write=False)
    return ReducedDiagramMatrix(n=F.n, data=data)


def diagram_inner_identity_check(x, y) -> float:
    """Residual of (n-1)<x~, y~> = n<x, y>^2 - ||x||^2 ||y||^2 (full vectors)."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise DimensionMismatchError("x and y must have the same dimension")
    n = x.size
    if n < 2:
        raise DimensionTooSmallError("identity requires n >= 2")
    dx = diagram_vector(x, FULL).entries
    dy = diagram_vector(y, FULL).entries
    lhs = (n - 1) * float(dx @ dy)
    rhs = n * float(x @ y) ** 2 - float(x @ x) * float(y @ y)
    return abs(lhs - rhs)


def diagram_gram_sum(F) -> float:
    """Sum over all pairs of diagram-vector inner products; zero exactly for
    unit-norm tight frames, positive otherwise."""
    X = F.synthesis
    norms = np.linalg.norm(X, axis=0)
    if float(np.abs(norms - 1.0).max()) > 1e-9:
        raise NotUnitNormError("diagram_gram_sum requires unit-norm frame vectors")
    if F.m < F.n:
        raise DimensionMismatchError("need m >= n vectors")
    D = full_diagram_matrix(F)
    total = D.sum(axis=1)
    return float(total @ total)
