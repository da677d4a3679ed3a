"""The orthogonal split of 1 on the unit reduced diagram matrix.

Every answer of the first split of ``numerics.split_of_one`` is certified:
a certificate y passes the hull test theta^T y > 0, and a kernel vector c
is strictly positive, leaves no room for a certificate that clears
ZERO_TOL (``numerics.no_margin``) and passes the kernel identity.  Its
verdict is that of the hull solver's Wolfe path (``wolfe_decide``) and, at
corank 1 and 2, of the cofactor and codim-2 routes, on the benchmark corpus of ``analyze`` and ``scale``, on their
canonical duals, and on the Hypothesis draws of integer, near-duplicate
and tall scalable frames.  No kernel part fails the kernel identity: on a
tall block (fewer columns than rows) the kernel part is ZERO_TOL z, not a
difference of two terms of size about 1 / ZERO_TOL."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from framescale import canonical_dual, decide, frame_from_synthesis, numerics
from framescale import scalability
from framescale.diagram import reduced_diagram_matrix, reduced_size
from framescale.errors import InternalNumericError, NotSpanningError, ZeroVectorError
from framescale.framedoc import frame_from_document, parse_frame_document
from framescale.numerics import RESIDUAL_TOL
from framescale.scalability import (
    METHOD_FEASIBILITY,
    STRICTLY_SCALABLE,
    codim2_scaling,
    cofactor_scaling,
    hull_certificate_check,
    theta_kernel,
)
from conftest import (
    bench_corpus,
    block_split,
    count_nearest,
    random_scalable_frame,
    rescaled_harmonic_frame,
    wolfe_decide,
)
from test_invariance import integer_frames, near_duplicate_frames


def _corpus_frames():
    """The frames of ``analyze-grid`` and ``scale-corank``, seed 1, and
    their canonical duals."""
    corpus = bench_corpus()
    if corpus is None:
        return {}
    frames = {}
    for workload in ("analyze-grid", "scale-corank"):
        for spec in corpus.build_corpus(workload, 1):
            F = frame_from_document(parse_frame_document(spec.text))
            frames[f"{workload}-{spec.fid}"] = F
            frames[f"{workload}-{spec.fid}-dual"] = canonical_dual(F).dual
    return frames


CORPUS_FRAMES = _corpus_frames()


def _kernel_route(F):
    """The answer of the cofactor or codim-2 route at corank 1 or 2, or None
    where neither applies or the route fails its own check."""
    if F.m > reduced_size(F.n) + 2:
        return None
    corank = theta_kernel(F).shape[1]
    try:
        if corank == 1:
            return cofactor_scaling(F)[1]
        if corank == 2:
            return codim2_scaling(F)
    except InternalNumericError:
        pass
    return None


def _checked_split(F):
    """"certificate" for a split certificate that passes its check, "kernel"
    for a kernel vector that passes the kernel identity to within
    ``RESIDUAL_TOL``, "unchecked" for an answer that fails its check, else
    None."""
    y, c = block_split(F, rounds=False)
    if y is not None:
        return "certificate" if hull_certificate_check(F, y) else "unchecked"
    if c is None:
        return None
    assert float(c.min()) > 0.0
    theta = reduced_diagram_matrix(F)
    residual = float(np.abs(theta @ c).max(initial=0.0))
    if residual > RESIDUAL_TOL * float((np.abs(theta) @ c).max(initial=0.0)):
        return "unchecked"
    return "kernel"


def _check_split(F):
    """Assert that every certificate of the split passes the hull test and
    that a checked answer agrees with the other routes; returns the answer
    of ``_checked_split``."""
    answer = _checked_split(F)
    if answer in (None, "unchecked"):
        assert block_split(F, rounds=False)[0] is None
        return answer
    others = [wolfe_decide(F)]
    kernel = _kernel_route(F)
    if kernel is not None:
        others.append(kernel)
    if answer == "certificate":
        assert not any(r.scalable for r in others)
    else:
        assert all(r.verdict == STRICTLY_SCALABLE for r in others)
    return answer


@pytest.mark.skipif(not CORPUS_FRAMES, reason="needs bench/corpus.py")
def test_split_is_certified_and_agrees_on_the_corpus():
    answers = {name: _check_split(F) for name, F in CORPUS_FRAMES.items()}
    assert [name for name, a in answers.items() if a == "unchecked"] == []
    # both parts answer, and most frames take no other route
    assert {"certificate", "kernel"} <= set(answers.values())
    assert sum(a in ("certificate", "kernel") for a in answers.values()) > len(answers) / 2


@pytest.mark.skipif(not CORPUS_FRAMES, reason="needs bench/corpus.py")
def test_decide_takes_the_split_exactly_when_it_answers(monkeypatch):
    nearest = count_nearest(monkeypatch)
    for name, F in CORPUS_FRAMES.items():
        G = frame_from_synthesis(F.synthesis)
        runs = len(nearest)
        result = decide(G)
        answer = _checked_split(G)
        answered = any(part is not None for part in block_split(G))
        assert (len(nearest) == runs) == answered, name
        if answer == "certificate":
            y = block_split(G, rounds=False)[0]
            assert np.array_equal(result.certificate_y, y), name


@pytest.mark.skipif(bench_corpus() is None, reason="needs bench/corpus.py")
def test_decide_splits_no_matrix_twice(monkeypatch):
    # decide asks theta's hull question once, so no call of it splits 1 on
    # the same matrix twice, as one did when decide split the unit theta
    # and then the hull solver split its own copy, bit for bit the same
    split = numerics._split
    keys = []

    def keyed(B):
        keys.append((B.shape, B.tobytes()))
        return split(B)

    monkeypatch.setattr(numerics, "_split", keyed)
    calls, repeats = 0, []
    for spec in bench_corpus().build_corpus("analyze-grid", 1):
        F = frame_from_document(parse_frame_document(spec.text))
        for G in (F, canonical_dual(F).dual):
            keys.clear()
            decide(G)
            calls += 1
            repeats += [spec.fid] * (len(keys) - len(set(keys)))
    assert (calls, repeats) == (128, [])


@st.composite
def tall_scalable_frames(draw):
    """Scalable frames with m < (n-1)(n+2)/2 vectors, so that the split
    solves with the m x m Gram matrix: a Parseval frame over random d_i, or
    a rescaled harmonic frame."""
    n = draw(st.integers(3, 8))
    m = draw(st.integers(n + 1, reduced_size(n) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_scalable_frame(rng, n, m)[0].synthesis
    return rescaled_harmonic_frame(rng, n, m).synthesis


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(X=st.one_of(integer_frames(), near_duplicate_frames(), tall_scalable_frames()))
def test_split_is_certified_and_agrees_on_drawn_frames(X):
    try:
        F = frame_from_synthesis(X)
    except (NotSpanningError, ZeroVectorError):
        assume(False)
    assert _check_split(F) != "unchecked"


@pytest.mark.skipif(bench_corpus() is None, reason="needs bench/corpus.py")
def test_tall_strict_frame_takes_the_projection_route(monkeypatch):
    """A strict n = 8, m = 32 frame of ``analyze-grid`` (32 columns, 35 rows)
    is answered by the split's kernel part, with no SVD of theta and no run
    of Wolfe's nearest point."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the split of 1 answers this frame")

    monkeypatch.setattr(numerics, "nearest_point", forbidden)
    monkeypatch.setattr(scalability.theta_svd, "__wrapped__", forbidden)
    specs = [spec for spec in bench_corpus().build_corpus("analyze-grid", 1)
             if spec.fid.endswith("-strict-n8-m32")]
    assert specs
    for spec in specs:
        result = decide(frame_from_document(parse_frame_document(spec.text)))
        assert (result.method, result.verdict) == (METHOD_FEASIBILITY, STRICTLY_SCALABLE)
