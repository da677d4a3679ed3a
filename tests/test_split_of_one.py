"""The orthogonal split of 1 on the unit reduced diagram matrix.

Every answer of ``split_of_one`` is certified: a certificate y passes the
hull test theta^T y > 0, and a kernel vector c is strictly positive and
passes the kernel identity.  Its verdict is that of the general test
``decide_scalable`` and, at corank 1 and 2, of the cofactor and codim-2
routes, on the benchmark corpus of ``analyze`` and ``scale``, on their
canonical duals, and on the Hypothesis draws of integer and near-duplicate
frames."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from framescale import canonical_dual, decide, decide_scalable, frame_from_synthesis
from framescale.diagram import reduced_diagram_matrix, reduced_size
from framescale.errors import InternalNumericError, NotSpanningError, ZeroVectorError
from framescale.framedoc import frame_from_document, parse_frame_document
from framescale.numerics import RESIDUAL_TOL
from framescale.scalability import (
    METHOD_PROJECTION,
    METHOD_SIGN_REJECT,
    STRICTLY_SCALABLE,
    codim2_scaling,
    cofactor_scaling,
    hull_certificate_check,
    split_of_one,
    theta_kernel,
)
from conftest import bench_corpus
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
    """"certificate" or "kernel" for a split answer that passes its check,
    "unchecked" for a kernel vector that fails the kernel identity, else
    None."""
    y, c = split_of_one(F)
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
        assert split_of_one(F).certificate_y is None
        return answer
    others = [decide_scalable(F, strict=True)]
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
    # both parts answer, and most frames take no other route
    assert {"certificate", "kernel"} <= set(answers.values())
    assert sum(a in ("certificate", "kernel") for a in answers.values()) > len(answers) / 2


@pytest.mark.skipif(not CORPUS_FRAMES, reason="needs bench/corpus.py")
def test_decide_takes_the_split_exactly_when_it_answers():
    for name, F in CORPUS_FRAMES.items():
        G = frame_from_synthesis(F.synthesis)
        result = decide(G, strict=True)
        if result.method == METHOD_SIGN_REJECT:
            continue
        answer = _checked_split(G)
        assert (result.method == METHOD_PROJECTION) == (answer in ("certificate", "kernel")), name
        if answer == "certificate":
            assert np.array_equal(result.certificate_y, split_of_one(G).certificate_y), name


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(X=st.one_of(integer_frames(), near_duplicate_frames()))
def test_split_is_certified_and_agrees_on_drawn_frames(X):
    try:
        F = frame_from_synthesis(X)
    except (NotSpanningError, ZeroVectorError):
        assume(False)
    _check_split(F)

