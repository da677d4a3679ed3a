"""Frames in R^n: construction, frame operator, bounds, potential, duality.

A frame is stored through its n x m synthesis matrix whose i-th column is the
i-th frame vector.  Construction verifies the spanning property by rank, so
every ``Frame`` instance really is a frame.  Values derived from the synthesis
are computed once per frame and kept on it through ``derived``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSpanningError,
    ZeroVectorError,
)


@dataclass(frozen=True)
class Frame:
    synthesis: np.ndarray  # n x m, columns are the frame vectors
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.synthesis.shape[0]

    @property
    def m(self):
        return self.synthesis.shape[1]

    def vectors(self):
        """The frame vectors as a list of 1-d arrays."""
        return [self.synthesis[:, i].copy() for i in range(self.m)]


@dataclass(frozen=True)
class ScaledFrame:
    """A frame with nonnegative weights applied columnwise.

    Unlike ``Frame`` this may carry zero columns (weights equal to zero), so
    it is the return type of ``apply_scaling``.
    """

    base: Frame
    weights: np.ndarray
    synthesis: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.synthesis.shape[0]

    @property
    def m(self):
        return self.synthesis.shape[1]


@dataclass(frozen=True)
class FrameOperatorData:
    S: np.ndarray
    spectral: numerics.SpectralData
    lower_bound: float
    upper_bound: float


@dataclass(frozen=True)
class Tightness:
    tight: bool
    bound: float | None = None


def derived(F, key, build):
    """``build(F)``, computed on the first call for ``F`` and ``key`` and
    kept on ``F`` for every later one.

    Nothing here is ever invalidated, and nothing needs to be: frames are
    built only by ``frame_from_synthesis`` and ``apply_scaling``, which make
    the synthesis read-only, so a value derived from it cannot go stale.  The
    values live and die with the frame.  ``key`` must differ for every
    setting that changes the result (a strict LP is never kept under the key
    of a plain one), and ``build`` must return values that callers do not
    modify.
    """
    cache = F._derived
    if key not in cache:
        cache[key] = build(F)
    return cache[key]


def frame_from_synthesis(X, tol=1e-10) -> Frame:
    """Build a Frame from an n x m synthesis matrix, validating invariants."""
    X = np.array(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError("synthesis matrix must be 2-dimensional")
    if not np.all(np.isfinite(X)):
        raise NonFiniteError("frame vectors must be finite")
    n, m = X.shape
    if n < 1 or m < n:
        raise NotSpanningError(f"need m >= n >= 1 vectors, got n={n}, m={m}")
    norms = np.linalg.norm(X, axis=0)
    if np.any(norms == 0.0):
        i = int(np.argmin(norms))
        raise ZeroVectorError(f"frame vector {i} is the zero vector")
    if numerics.rank(X, tol) < n:
        raise NotSpanningError("vectors do not span R^n")
    X.setflags(write=False)
    return Frame(synthesis=X)


def make_frame(vectors, tol=1e-10) -> Frame:
    """Build a Frame from an iterable of m vectors in R^n."""
    arr = np.array(list(vectors), dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError("vectors must all have the same length")
    return frame_from_synthesis(arr.T, tol)


def frame_operator(F) -> FrameOperatorData:
    """Frame operator S = X X^T with spectral data and frame bounds, computed
    once per frame."""
    return derived(F, "frame_operator", _frame_operator)


def _frame_operator(F):
    X = F.synthesis
    S = X @ X.T
    S.setflags(write=False)
    spec = numerics.symmetric_eigen(S)
    return FrameOperatorData(
        S=S,
        spectral=spec,
        lower_bound=float(spec.eigenvalues[-1]),
        upper_bound=float(spec.eigenvalues[0]),
    )


def frame_potential(F) -> float:
    """Sum of squared pairwise inner products of the frame vectors."""
    G = F.synthesis.T @ F.synthesis
    return float(np.sum(G * G))


def is_tight(F, tol=1e-8) -> Tightness:
    """Tightness test: rows of the synthesis matrix pairwise orthogonal with
    equal norms.  Returns the common squared row norm as the tight bound."""
    X = F.synthesis
    R = X @ X.T  # row Gram matrix
    sq = np.diag(R)
    norms = np.sqrt(sq)
    nmax = float(norms.max())
    if nmax == 0.0:
        return Tightness(tight=False)
    if float(norms.max() - norms.min()) > tol * nmax:
        return Tightness(tight=False)
    off = R - np.diag(sq)
    pair_scale = np.outer(norms, norms)
    np.fill_diagonal(pair_scale, 1.0)
    if float(np.abs(off / pair_scale).max()) > tol:
        return Tightness(tight=False)
    return Tightness(tight=True, bound=float(sq.mean()))


def apply_scaling(F, a) -> ScaledFrame:
    """Scale column i of the synthesis matrix by a_i >= 0.

    Raises NotSpanningError when too many zero weights destroy spanning.
    """
    a = np.asarray(a, dtype=float).ravel()
    if a.size != F.m:
        raise DimensionMismatchError(f"expected {F.m} weights, got {a.size}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("weights must be finite")
    if float(a.min(initial=0.0)) < 0.0:
        raise ValueError("weights must be nonnegative")
    scaled = F.synthesis * a
    if numerics.rank(scaled) < F.n:
        raise NotSpanningError("scaled system no longer spans R^n")
    scaled.setflags(write=False)
    base = F if isinstance(F, Frame) else F.base
    return ScaledFrame(base=base, weights=a.copy(), synthesis=scaled)


def is_dual(F, G, tol=1e-8) -> bool:
    """True when X Y^T = I, i.e. G satisfies the reconstruction formula."""
    if F.n != G.n or F.m != G.m:
        raise DimensionMismatchError(
            f"frames have shapes {F.n}x{F.m} and {G.n}x{G.m}"
        )
    P = F.synthesis @ G.synthesis.T
    return float(np.abs(P - np.eye(F.n)).max()) <= tol
