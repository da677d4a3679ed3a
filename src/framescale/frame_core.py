"""Frames in R^n: construction, frame operator, bounds, potential, duality.

A frame is stored through its n x m synthesis matrix X, whose i-th column is
the i-th frame vector; ``Frame`` makes X read-only.  Each value derived from
X is a function decorated with ``derived``, computed once, on first use, and
kept on the frame: the norms ||x_i|| (``column_norms``), S = X X^T
(``frame_operator_matrix``) and one Householder QR of X^T with its rows
sorted by decreasing norm (``synthesis_qr``), whose R^{-1} and R give both
frame bounds in one singular-value call and whose R^{-1} Q^T is the
canonical dual.  Construction tests spanning on the singular values of
X / ||x_i||, which no rescaling of a vector moves, and a scaling by strictly
positive weights keeps its decision.  The canonical dual takes the range
checks of ``_checked_synthesis`` and the reconstruction identity
(``is_dual``) instead of a spanning test: max |X Y^T - I| <=
``RESIDUAL_TOL`` makes X Y^T, and so the dual, rank n.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from . import numerics
from .errors import (
    BadParamsError,
    DimensionMismatchError,
    NonFiniteError,
    NotSpanningError,
    ZeroVectorError,
)


@dataclass(frozen=True)
class Frame:
    """A spanning set of m vectors in R^n.  ``frame_from_synthesis`` builds
    one from nonzero vectors; a frame from ``apply_scaling`` may carry zero
    columns, one per zero weight.  The synthesis array is made read-only, and
    a view is copied first, since its base stays writable, so the values
    ``derived`` keeps on the frame cannot go stale."""

    synthesis: np.ndarray  # n x m, columns are the frame vectors
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.synthesis.base is not None:
            object.__setattr__(self, "synthesis", self.synthesis.copy())
        self.synthesis.setflags(write=False)

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


def derived(build):
    """Decorator for a value of a frame F: ``build(F)`` is computed on the
    first call for F, its ndarrays are made read-only (the result itself, or
    each field of a namedtuple or dataclass), and it is kept on F, under the
    qualified name of ``build``, for every later call.

    Nothing here is ever invalidated, and nothing needs to be: every frame's
    synthesis is read-only (``Frame``), so a value derived from it cannot go
    stale.  The values live and die with the frame.  A miss calls the
    decorated function's ``__wrapped__``, which a test may replace to count
    the builds.
    """
    key = f"{build.__module__}.{build.__qualname__}"

    @wraps(build)
    def value(F):
        cache = F._derived
        if key not in cache:
            result = value.__wrapped__(F)
            if isinstance(result, np.ndarray):
                result.setflags(write=False)
            else:  # a namedtuple, or a dataclass: freeze its array fields
                for a in result if isinstance(result, tuple) else vars(result).values():
                    if isinstance(a, np.ndarray):
                        a.setflags(write=False)
            cache[key] = result
        return cache[key]

    return value


def frame_from_synthesis(X) -> Frame:
    """Build a Frame from an n x m synthesis matrix, validating invariants.
    The spanning test reads only singular values; the QR of X waits for
    ``synthesis_qr``."""
    F = Frame(synthesis=_checked_synthesis(X))
    if not _spans(F):
        raise NotSpanningError("vectors do not span R^n")
    return F


@derived
def column_norms(F):
    """||x_i||, 1 for a zero vector, by ``numerics.column_norms``; once per frame."""
    return numerics.column_norms(F.synthesis)


@derived
def synthesis_qr(F) -> SynthesisQR:
    """The Householder QR X^T[order] = Q R of the frame vectors sorted by
    decreasing norm, with R^{-1}, taken on first use and kept on the frame.

    S = X X^T = R^T R, so S^{-1} x_i = R^{-1} q_i for the row q_i of Q that
    holds x_i.  With its rows sorted, Householder QR is row-wise backward
    stable (Powell-Reid 1969; Cox-Higham 1998): each q_i, and the dual
    vector read from it, is accurate relative to its own vector however far
    apart the norms of the vectors are, which the SVD of X is not."""
    order = np.argsort(-column_norms(F), kind="stable")
    Q, R = np.linalg.qr(F.synthesis[:, order].T)
    return SynthesisQR(order=order, Q=Q, R=R, R_inv=np.linalg.inv(R))


def _checked_synthesis(X):
    """X as a new float matrix of m >= n >= 1 finite, nonzero columns,
    writable until a ``Frame`` takes it.  The largest squared entry of each
    column (the square of its largest |entry|: rounding is monotone) must be
    a finite nonzero float: a largest entry of 0 is the zero vector, and a
    nonzero one whose square underflows to 0 or overflows is out of range."""
    X = np.array(_float_matrix(X, "synthesis matrix must be 2-dimensional"))
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
    return X


def _spans(F):
    """True when the vectors of F span R^n: the rank rule of ``numerics.rank``
    on X / ||x_i|| (``column_norms``; zero columns stay zero), which no
    rescaling of a vector by a nonzero factor moves."""
    return numerics.rank(F.synthesis / column_norms(F)) == F.n


def _float_matrix(a, message):
    """``a`` as a 2-d float array, not copied if it is one, else a
    DimensionMismatchError with ``message``.  numpy raises ValueError for
    rows of unequal length, which as objects are not 2-d, and for an entry
    that is itself a sequence; an entry that is not a number, such as
    ``"a"``, keeps numpy's ValueError."""
    try:
        arr = np.asarray(a, dtype=float)
    except ValueError:
        arr = np.array(a, dtype=object)
        if arr.ndim == 2 and not any(np.ndim(e) for e in arr.flat):
            raise
        raise DimensionMismatchError(message) from None
    if arr.ndim != 2:
        raise DimensionMismatchError(message)
    return arr


def make_frame(vectors) -> Frame:
    """Build a Frame from an m x n array or an iterable of m vectors in
    R^n."""
    if not isinstance(vectors, np.ndarray):
        vectors = list(vectors)
    return frame_from_synthesis(_float_matrix(vectors, "vectors must all have the same length").T)


@derived
def frame_operator_matrix(F):
    """S = X X^T, once per frame: ``frame_operator`` and ``is_tight`` read it."""
    return F.synthesis @ F.synthesis.T


@derived
def frame_operator(F) -> FrameOperatorData:
    """Frame operator S = X X^T with the frame bounds of the sorted QR
    S = R^T R (``synthesis_qr``), A = 1 / sigma_max(R^{-1})^2 and
    B = sigma_max(R)^2, from one singular-value call.  Unlike the eigenvalues
    of the formed S, or the smallest singular value of X, they do not lose
    the square of the condition number of X; computed once per frame."""
    qr = synthesis_qr(F)
    s, r = numerics.singular_values(np.stack((qr.R_inv, qr.R)))[:, 0]
    return FrameOperatorData(
        S=frame_operator_matrix(F),
        # s ** 2 overflows from 2^512 on
        lower_bound=float(1.0 / s ** 2 if s < 2.0 ** 512 else (1.0 / s) ** 2),
        upper_bound=float(r ** 2))


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
    equal norms.  Returns the common squared row norm as the tight bound.
    ``tol`` must be a finite positive number: at NaN or inf every comparison
    would pass."""
    if not 0.0 < tol < np.inf:
        raise BadParamsError(f"tolerance must be a finite positive number, got {tol!r}")
    R = frame_operator_matrix(F)  # row Gram matrix
    sq = np.diag(R)
    norms = np.sqrt(sq)
    nmax = float(norms.max())
    if nmax == 0.0 or float(nmax - norms.min()) > tol * nmax:
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
    entry lost to the float range) ``_spans`` tests the scaled frame
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
    G = Frame(synthesis=scaled)
    if not keeps_columns and not _spans(G):
        raise NotSpanningError("scaled system no longer spans R^n")
    return G


def is_dual(F, G) -> bool:
    """True when X Y^T = I within ``numerics.RESIDUAL_TOL``, i.e. G satisfies
    the reconstruction formula."""
    if F.n != G.n or F.m != G.m:
        raise DimensionMismatchError(
            f"frames have shapes {F.n}x{F.m} and {G.n}x{G.m}"
        )
    P = F.synthesis @ G.synthesis.T
    return float(np.abs(P - np.eye(F.n)).max()) <= numerics.RESIDUAL_TOL
