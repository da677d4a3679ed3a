"""Frames in R^n: construction, frame operator, bounds, potential, duality.

A frame is stored through its n x m synthesis matrix whose i-th column is the
i-th frame vector.  Construction verifies the spanning property on the
singular values of X on unit-norm columns, which no rescaling of a vector
moves, so every ``Frame`` instance really is a frame; for the same reason a
scaling by strictly positive weights keeps the frame's spanning decision.
One Householder QR of X^T with its rows sorted by decreasing norm
(``synthesis_qr``) is taken on first use.  That QR, and every other value
derived from the synthesis, is kept on the frame through ``derived``: the
frame bounds are sigma_max(R^{-1})^{-2} and sigma_max(R)^2, and the
canonical dual is R^{-1} Q^T.  That dual (``duals.canonical_dual``) takes
the range checks of ``_checked_synthesis`` and the reconstruction identity
(``is_dual``) instead of a second spanning test: max |X Y^T - I| <=
``RESIDUAL_TOL`` makes X Y^T, and so the dual, rank n.
"""

from __future__ import annotations

from collections import namedtuple
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
    """A spanning set of m vectors in R^n.  ``frame_from_synthesis`` builds
    one from nonzero vectors; a frame from ``apply_scaling`` may carry zero
    columns, one per zero weight."""

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
class FrameOperatorData:
    S: np.ndarray
    lower_bound: float
    upper_bound: float


SynthesisQR = namedtuple("SynthesisQR", ["order", "Q", "R", "R_inv"])


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
    setting that changes the result, and ``build`` must return values that
    callers do not modify.
    """
    cache = F._derived
    if key not in cache:
        cache[key] = build(F)
    return cache[key]


def frame_from_synthesis(X) -> Frame:
    """Build a Frame from an n x m synthesis matrix, validating invariants.
    The spanning test reads only singular values; the QR of X waits for
    ``synthesis_qr``."""
    return _spanning_frame(*_checked_synthesis(X))


def synthesis_qr(F) -> SynthesisQR:
    """The Householder QR X^T[order] = Q R of the frame vectors sorted by
    decreasing norm, with R^{-1}, taken on first use and kept on the frame.

    S = X X^T = R^T R, so S^{-1} x_i = R^{-1} q_i for the row q_i of Q that
    holds x_i.  With its rows sorted, Householder QR is row-wise backward
    stable (Powell-Reid 1969; Cox-Higham 1998): each q_i, and the dual
    vector read from it, is accurate relative to its own vector however far
    apart the norms of the vectors are, which the SVD of X is not."""
    return derived(F, "qr", _synthesis_qr)


def _synthesis_qr(F):
    X = F.synthesis
    order = np.argsort(-numerics.column_norms(X), kind="stable")
    Q, R = np.linalg.qr(X[:, order].T)
    qr = SynthesisQR(order=order, Q=Q, R=R, R_inv=np.linalg.inv(R))
    for a in qr:
        a.setflags(write=False)
    return qr


def _checked_synthesis(X):
    """X as a float matrix of m >= n >= 1 finite, nonzero columns, with the
    largest |entry| of each column, its peak.  The square of the peak, which
    is the largest squared entry (rounding is monotone), must be a finite
    nonzero float: a peak of 0 is the zero vector, and a nonzero one whose
    square underflows to 0 or overflows is out of range."""
    X = np.array(X, dtype=float)
    if X.ndim != 2:
        raise DimensionMismatchError("synthesis matrix must be 2-dimensional")
    if not np.all(np.isfinite(X)):
        raise NonFiniteError("frame vectors must be finite")
    n, m = X.shape
    if n < 1 or m < n:
        raise NotSpanningError(f"need m >= n >= 1 vectors, got n={n}, m={m}")
    peak = np.abs(X).max(axis=0)
    with np.errstate(over="ignore"):
        square = peak * peak
    bad = np.flatnonzero((square == 0.0) | (square == np.inf))
    if bad.size:
        i = int(bad[0])
        if square[i] == np.inf:
            raise NonFiniteError(f"frame vector {i} is too large: its squared entries overflow")
        if peak[i]:
            raise NonFiniteError(f"frame vector {i} is too small: its squared entries underflow to 0")
        raise ZeroVectorError(f"frame vector {i} is the zero vector")
    return X, peak


def _spans(X, peak):
    """True when the columns of X span R^n: the rank rule of
    ``numerics.rank`` on X with unit-norm columns (zero columns stay zero),
    so that rescaling a vector by any nonzero factor keeps the answer.
    ``peak`` is the largest |entry| of each column, 1 for a zero column.
    Each column is divided by it first, so a nonzero column has an entry of
    size 1 and a norm in [1, sqrt(n)], which neither overflows nor
    underflows."""
    X = X / peak
    norms = np.sqrt((X * X).sum(axis=0))
    return numerics.rank(X / np.maximum(norms, 1.0)) == X.shape[0]


def _spanning_frame(X, peak) -> Frame:
    """The Frame on the checked synthesis X with column peaks ``peak``:
    spanning is decided by ``_spans``."""
    if not _spans(X, peak):
        raise NotSpanningError("vectors do not span R^n")
    X.setflags(write=False)
    return Frame(synthesis=X)


def make_frame(vectors) -> Frame:
    """Build a Frame from an m x n array or an iterable of m vectors in
    R^n."""
    if isinstance(vectors, np.ndarray):
        arr = np.asarray(vectors, dtype=float)
    else:
        arr = np.array(list(vectors), dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError("vectors must all have the same length")
    return frame_from_synthesis(arr.T)


def frame_operator(F) -> FrameOperatorData:
    """Frame operator S = X X^T with the frame bounds read off the sorted
    QR of ``synthesis_qr``, S = R^T R: A = 1 / sigma_max(R^{-1})^2 and
    B = sigma_max(R)^2.  Unlike the eigenvalues of the formed S, or the
    smallest singular value of X, they do not lose the square of the
    condition number of X; computed once per frame."""
    return derived(F, "frame_operator", _frame_operator)


def _frame_operator(F):
    X = F.synthesis
    S = X @ X.T
    S.setflags(write=False)
    qr = synthesis_qr(F)
    s = numerics.singular_values(qr.R_inv)[0]  # s ** 2 overflows from 2^512 on
    return FrameOperatorData(
        S=S,
        lower_bound=float(1.0 / s ** 2 if s < 2.0 ** 512 else (1.0 / s) ** 2),
        upper_bound=float(numerics.singular_values(qr.R)[0] ** 2))


def frame_potential(F) -> float:
    """Sum of squared pairwise inner products of the frame vectors.  A sum
    beyond the float range, as one vector of about 1e80 gives, is an input
    error naming the frame potential, not inf."""
    with np.errstate(over="ignore"):
        G = F.synthesis.T @ F.synthesis
        potential = float(np.sum(G * G))
    if not np.isfinite(potential):
        raise NonFiniteError("frame potential overflows the float range")
    return potential


def is_tight(F, tol=numerics.RESIDUAL_TOL) -> Tightness:
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


def _check_weight_length(F, a):
    """``a`` as a float vector of one weight per frame vector."""
    a = np.asarray(a, dtype=float).ravel()
    if a.size != F.m:
        raise DimensionMismatchError(f"expected {F.m} weights, got {a.size}")
    return a


def apply_scaling(F, a) -> Frame:
    """The frame with column i of the synthesis matrix scaled by a_i >= 0;
    zero weights give zero columns.

    Weights that are all > 0 leave every unit-norm column as it was, so
    when no entry of the scaled synthesis underflows to 0 or overflows, F's
    own spanning decision carries over.  Otherwise (a zero weight, or an
    entry lost to the float range) ``_spans`` tests the scaled synthesis
    again and raises NotSpanningError when spanning is destroyed.
    """
    a = _check_weight_length(F, a)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("weights must be finite")
    if float(a.min(initial=0.0)) < 0.0:
        raise ValueError("weights must be nonnegative")
    scaled = F.synthesis * a
    keeps_columns = (float(a.min()) > 0.0
                     and np.count_nonzero(scaled) == np.count_nonzero(F.synthesis)
                     and np.isfinite(scaled).all())
    if not keeps_columns:
        peak = np.abs(scaled).max(axis=0)
        peak[peak == 0.0] = 1.0
        if not _spans(scaled, peak):
            raise NotSpanningError("scaled system no longer spans R^n")
    scaled.setflags(write=False)
    return Frame(synthesis=scaled)


def is_dual(F, G) -> bool:
    """True when X Y^T = I within ``numerics.RESIDUAL_TOL``, i.e. G satisfies
    the reconstruction formula."""
    if F.n != G.n or F.m != G.m:
        raise DimensionMismatchError(
            f"frames have shapes {F.n}x{F.m} and {G.n}x{G.m}"
        )
    P = F.synthesis @ G.synthesis.T
    return float(np.abs(P - np.eye(F.n)).max()) <= numerics.RESIDUAL_TOL
