import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from framescale import (
    apply_scaling,
    codim2_scaling,
    cofactor_scaling,
    decide,
    is_in_V,
    is_in_W,
    is_tight,
    make_frame,
    numerics,
    sylvester_hadamard,
)
from framescale.diagram import reduced_diagram_matrix
from framescale.framedoc import (
    document_from_frame,
    format_frame_document,
)
from framescale.scalability import SCALABLE
from framescale.split_scaling import w_point

# Hypothesis profiles, for the tests that leave max_examples to them
# (test_invariance.py::test_report_is_invariant_on_drawn_frames): 60 examples
# in tier-1, and 1,500 with ``pytest --hypothesis-profile thorough``
settings.register_profile("tier1", max_examples=60)
settings.register_profile("thorough", max_examples=1500)
settings.load_profile("tier1")

SCALES = (1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9)  # global scales a verdict must survive
CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"


@functools.cache
def bench_corpus():
    """The benchmark's corpus module ``bench/corpus.py``, or None without
    it."""
    if not CORPUS.is_file():
        return None
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built; it
    # leaves sys.modules after, so that no other test sees it there
    sys.modules[spec.name] = corpus
    try:
        spec.loader.exec_module(corpus)
    finally:
        del sys.modules[spec.name]
    return corpus


def block_split(F, rows=slice(None), rounds=True):
    """``numerics.split_of_one`` on the unit columns of the block ``rows``
    of the reduced diagram matrix, each divided by its own norm in the
    block, as the hull solver asks it: the pair (y, c) of the certificate y
    or of the block's kernel vector c = w / norms for the kernel part w that
    the split takes, with at most one set.  Without ``rounds``, only the
    answer of the first split: a certificate, or a kernel part that is
    positive everywhere (a later round's is 0 on the columns it dropped)."""
    B = reduced_diagram_matrix(F)[rows]
    norms = numerics.column_norms(B)
    y, w = numerics.split_of_one(B / norms)
    if w is not None and (rounds or (w > 0.0).all()):
        return y, w / norms
    return y, None


def count_nearest(monkeypatch):
    """The argument of each run of Wolfe's ``numerics.nearest_point`` from
    here on, as a list that grows."""
    calls = []
    nearest = numerics.nearest_point

    def counted(P):
        calls.append(P)
        return nearest(P)

    monkeypatch.setattr(numerics, "nearest_point", counted)
    return calls


def wolfe_decide(F):
    """``decide`` with the hull solver's split of 1 answering nothing, so
    that Wolfe's nearest point answers alone: a second route to each of
    its verdicts."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "split_of_one", lambda P: (None, None))
        return decide(F)


def split_answer(F, block):
    """What the hull solver's split of 1 on the block of theta answers, for
    ``block`` "W" (the n-1 difference rows) or "V" (the product rows):
    "empty" for a certificate, "member" for a kernel vector that it takes
    (``block_split``), whose point must pass the membership test, else None
    (the nearest point answers)."""
    rows = slice(F.n - 1) if block == "W" else slice(F.n - 1, None)
    y, c = block_split(F, rows)
    if y is not None:
        return "empty"
    if c is not None:
        found = is_in_W(F, w_point(F, c)) if block == "W" else is_in_V(F, c / c.sum())
        assert found.member, block
        return "member"
    return None


def frame_file(tmp_path, F):
    """The path, as text, of a frame document of F written to tmp_path."""
    path = tmp_path / "frame.txt"
    path.write_text(format_frame_document(document_from_frame(F)))
    return str(path)


def printed_line(result):
    """The last line ``scale`` prints for ``result``."""
    if result.scalable:
        return " ".join("%.12g" % v for v in result.scalars_a)
    return "not scalable; certificate y: " + " ".join("%.12g" % v for v in result.certificate_y)


# the library routes that ``scale`` does not offer, by their former
# ``--method`` names: the paper's corank routes, and as "lp" the hull solver's
# Wolfe path (``wolfe_decide``).  ``scale`` offers only ``decide``, so a test
# that holds one of these to scale's output asks it through ``route_lines``
ROUTES = {"cofactor": lambda F: cofactor_scaling(F)[1], "codim2": codim2_scaling,
          "lp": wolfe_decide}


def route_lines(F, route, strict=False):
    """The lines ``scale`` prints for the answer of the library route
    ``route`` on F, whose scalars must make F tight, with --strict if
    ``strict``."""
    result = ROUTES[route](F)
    if result.scalable:
        assert is_tight(apply_scaling(F, result.scalars_a)).tight
    lines = [printed_line(result)]
    if strict and result.verdict == SCALABLE:
        lines.insert(0, "scalable, but not strictly")
    return lines


def random_unit_frame(rng, n, m):
    """Random unit-norm spanning frame of m vectors in R^n."""
    while True:
        V = rng.standard_normal((m, n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        if np.linalg.matrix_rank(V) == n:
            return make_frame(V)


def random_scalable_frame(rng, n, m):
    """Frame with a known positive scaling: start from a random Parseval
    frame (orthonormal columns of a random orthogonal matrix, projected) and
    divide each vector by a random positive d_i, so scaling by d recovers
    the Parseval frame."""
    while True:
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        P = Q[:, :n].T  # n x m with orthonormal rows: Parseval synthesis
        if np.linalg.matrix_rank(P) == n and np.abs(P).min() > 1e-6:
            break
    d = rng.uniform(0.5, 2.0, size=m)
    X = P / d
    return make_frame(X.T), d


def random_orthogonal(rng, n):
    """Haar-random orthogonal n x n matrix."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def rescaled_harmonic_frame(rng, n, m):
    """Strictly scalable frame: the real harmonic tight frame of m vectors in
    R^n, rotated by a random orthogonal map, with each vector multiplied by a
    random signed factor d_i of size in [0.5, 2].  Weights 1/d_i^2 make it
    tight again."""
    j = np.arange(m)
    rows = []
    for k in range(1, n // 2 + 1):
        rows += [np.cos(2 * np.pi * k * j / m), np.sin(2 * np.pi * k * j / m)]
    if n % 2:
        rows.append(np.full(m, np.sqrt(0.5)))
    d = rng.uniform(0.5, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    X = random_orthogonal(rng, n) @ np.array(rows) * d
    return make_frame(X.T)


def two_block_frame(rng, n, m):
    """Scalable but not strictly scalable: scalable frames on two
    complementary coordinate blocks plus one unit vector touching every
    coordinate.  Its cross terms between the blocks cannot be cancelled, so
    every scaling gives it weight 0."""
    n1 = (n + 1) // 2
    m1 = n1 + (m - 1 - n) // 2
    V = np.zeros((m, n))
    V[:m1, :n1] = random_scalable_frame(rng, n1, m1)[0].synthesis.T
    V[m1:m - 1, n1:] = random_scalable_frame(rng, n - n1, m - 1 - m1)[0].synthesis.T
    extra = rng.standard_normal(n)
    while np.abs(extra).min() < 0.1:
        extra = rng.standard_normal(n)
    V[-1] = extra / np.linalg.norm(extra)
    return make_frame(V @ random_orthogonal(rng, n).T)


def open_cone_frame(rng, n, m):
    """Not scalable: every vector lies within 15 degrees of one unit axis u,
    so <x_i, u>^2 > ||x_i||^2 / n for n <= 3 and no weights give a multiple
    of the identity."""
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    while True:
        V = u + 0.25 * rng.uniform(-1.0, 1.0, (m, n)) / np.sqrt(n)
        if np.linalg.matrix_rank(V) == n:
            return make_frame(V)


def angles_frame(*angles):
    """Unit-norm frame in R^2 from a list of angles."""
    return make_frame([[np.cos(t), np.sin(t)] for t in angles])


def doubled_hadamard_frame(order=2):
    """Sylvester Hadamard rows with the last row doubled: W is empty."""
    H = sylvester_hadamard(order).copy()
    H[-1] *= 2.0
    return make_frame(H.T)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# nearly parallel vectors: the off-diagonal entry -c_0 1.5625e-9 - c_2 1e-7
# of sum_i c_i x_i x_i^T vanishes only for c_0 = c_2 = 0, so no scaling
# exists.  Wolfe's point carries rounding that keeps it from clearing
# ZERO_TOL, and Wolfe's weights pass their residual check.  The certificate
# is the facet point of Wolfe's corral, whose first entry, -2.44e-18, is
# exact: set to 0, it leaves no certificate, and the hull solver used to
# answer "scalable"
NEAR_PARALLEL_FRAME = [[-1.0, 1.5625e-9], [0.0, -1.0], [-1.0, 1e-7]]


def tiny_row_frame(n, t):
    """Vectors whose x_1 x_2 products are all t times their squared norm: the
    (1, 2) product row of theta is one-signed, its entries about t on unit
    columns, and no scaling exists.  Without that row the frame is strictly
    scalable, so every kernel vector of the other rows passes the kernel
    identity to within about t."""
    if n == 2:
        return [[1.0, t], [1.0, 2 * t], [1.0, 3 * t], [t, 1.0], [2 * t, 1.0]]
    return [[1.0, 2 * t, 1.0], [1.0, 2 * t, -1.0], [2 * t, 1.0, 1.0],
            [2 * t, 1.0, -1.0], [1.0, t, 0.0], [t, 1.0, 0.0]]
