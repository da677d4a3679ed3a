"""Metamorphic invariance: a scalability verdict depends only on the geometry
of the frame.  It must not change when each vector is rescaled by a nonzero
factor (sign included), when the basis is changed by an orthogonal map, or
when the vectors are permuted.  Every transformed frame is answered, and
every "not scalable" answer carries a valid certificate, and every answer
keeps its ``method``.  A rescaling or a permutation leaves the signs of the
reduced diagram matrix and its unit-norm columns as they were, so it also
keeps the vectors that the report's ``near_zero`` lists, which move with a
permutation; an orthogonal map changes that matrix, so there that list is
not held.  Canonical-dual
scalability under a global scale and an orthogonal map is held to the same
rule in tests/test_duals.py::TestDualInvariance.  Beyond the fixed corpus,
Hypothesis draws integer and near-duplicate frames, the families with exact
ties and degenerate LPs, and holds the full report to the same rules."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from framescale import (
    decide,
    frame_from_synthesis,
    hull_certificate_check,
    intersection_scalability,
    is_in_V,
)
from framescale.cli import build_report, main
from framescale.errors import NotSpanningError, ZeroVectorError
from framescale.framedoc import document_from_frame, parse_frame_document
from framescale.scalability import METHOD_FEASIBILITY, NOT_SCALABLE
from conftest import (
    SCALES,
    bench_corpus,
    angles_frame,
    doubled_hadamard_frame,
    frame_file,
    open_cone_frame,
    random_orthogonal,
    random_scalable_frame,
    rescaled_harmonic_frame,
    two_block_frame,
    wolfe_decide,
)


def _frames():
    rng = np.random.default_rng(99)
    frames = {f"random-scalable-{i}": random_scalable_frame(rng, 3, 9)[0] for i in range(3)}
    frames.update({f"harmonic-{i}": rescaled_harmonic_frame(rng, 4, 12) for i in range(2)})
    frames.update({f"two-block-{i}": two_block_frame(rng, 4, 11) for i in range(2)})
    frames["hadamard-doubled"] = doubled_hadamard_frame()
    frames["first-quadrant"] = angles_frame(0.2, 0.7, 1.2, 1.4)
    frames.update({f"open-cone-{i}": open_cone_frame(rng, 3, 7) for i in range(2)})
    frames["two-block-n3-m6"] = two_block_frame(rng, 3, 6)
    return frames


FRAMES = _frames()


def _transforms(F, seed):
    """(name, synthesis, order) for each transform of F: column k of the
    synthesis is vector order[k] of F."""
    rng = np.random.default_rng(seed)
    X = F.synthesis
    same = np.arange(F.m)
    out = [(f"scale-{s:g}", s * X, same) for s in SCALES]
    for k in range(2):
        d = 10.0 ** rng.uniform(-4.0, 4.0, F.m) * rng.choice([-1.0, 1.0], F.m)
        out.append((f"per-vector-{k}", X * d, same))
    out.append(("orthogonal", random_orthogonal(rng, F.n) @ X, same))
    order = rng.permutation(F.m)
    out.append(("permutation", X[:, order], order))
    out.append(("vector-0-1e-100", _scale_vector_0(X, 1e-100), same))
    return out


def _scale_vector_0(X, s):
    """X with vector 0 times s: its reduced diagram column, times s^2, has
    a sum of squares far outside the float range."""
    X = X.copy()
    X[:, 0] *= s
    return X


ROUTES = {
    "intersection": intersection_scalability,
    "wolfe": wolfe_decide,
}


def _analyze(tmp_path, capsys, F):
    assert main(["analyze", frame_file(tmp_path, F), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    s = rep["scalability"]
    return (s["verdict"], rep["split"]["intersection_verdict"]), s["near_zero"]


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_verdicts_are_invariant(tmp_path, capsys, name):
    F = FRAMES[name]
    answers = {route: decide(F) for route, decide in ROUTES.items()}
    report, near_zero = _analyze(tmp_path, capsys, F)
    for label, X, order in _transforms(F, sorted(FRAMES).index(name)):
        G = frame_from_synthesis(X)
        for route, decide in ROUTES.items():
            r, want = decide(G), answers[route]
            assert (r.verdict, r.method) == (want.verdict, want.method), (label, route)
            if not r.scalable:
                assert hull_certificate_check(G, r.certificate_y), (label, route)
        got, got_near_zero = _analyze(tmp_path, capsys, G)
        assert got == report, label
        if label != "orthogonal":
            assert sorted(order[got_near_zero].tolist()) == near_zero, label
    # a vector this long has a frame potential beyond the float range, so
    # ``analyze`` exits 2; its canonical dual vector, about 1e-100 long, does
    # not round to 0, though the squares of its theta column underflow.  So
    # only the routes, not the report, are held
    G = frame_from_synthesis(_scale_vector_0(F.synthesis, 1e100))
    for route, decide in ROUTES.items():
        r, want = decide(G), answers[route]
        assert (r.verdict, r.method) == (want.verdict, want.method), route
        if not r.scalable:
            assert hull_certificate_check(G, r.certificate_y), route


@pytest.mark.parametrize("angle", [0.0, np.pi / 8, np.pi / 4, 1.0])
def test_rotation_keeps_the_route(angle):
    # the first-quadrant frame has a one-signed row of theta at angles 0 and
    # pi/4, where a route that read it used to answer, and none at pi/8 and
    # 1 rad; the split of 1 answers at every angle
    c, s = np.cos(angle), np.sin(angle)
    X = np.array([[c, -s], [s, c]]) @ FRAMES["first-quadrant"].synthesis
    result = decide(frame_from_synthesis(X))
    assert (result.verdict, result.method) == (NOT_SCALABLE, METHOD_FEASIBILITY)
    assert hull_certificate_check(frame_from_synthesis(X), result.certificate_y)


@pytest.mark.parametrize("seed", range(4))
def test_not_strict_corank_2_reports_the_forced_zero_set(tmp_path, capsys, seed):
    # two complementary scalable blocks, of 3 vectors in R^2 and 2 parallel
    # ones on the third axis, plus one bridging vector: every scaling gives
    # the bridging vector weight 0, and the parallel pair trades weight along
    # the second kernel direction, so only the bridging vector is forced to 0
    F = two_block_frame(np.random.default_rng(seed), 3, 6)
    _, near_zero = _analyze(tmp_path, capsys, F)
    assert near_zero == [5]


def _not_strict_corpus_frames():
    """The not-strict frames of ``analyze-grid``, seeds 1 to 8."""
    corpus = bench_corpus()
    if corpus is None:
        return []
    return [(f"{seed}-{spec.fid}", spec.text) for seed in range(1, 9)
            for spec in corpus.build_corpus("analyze-grid", seed)
            if spec.family == "not-strict"]


@pytest.mark.skipif(bench_corpus() is None, reason="needs bench/corpus.py")
def test_not_strict_corpus_reports_the_forced_zero_set():
    # two scalable blocks and one straddling vector, the last, which every
    # scaling gives weight 0: the cofactor and codim-2 routes and the hull
    # solver's support rounds all list exactly that vector
    frames = _not_strict_corpus_frames()
    assert len(frames) == 96
    for name, text in frames:
        doc = parse_frame_document(text)
        s = build_report(doc, 1e-8)["scalability"]
        assert s["near_zero"] == [doc.m - 1], (name, s["method"])


def test_v_membership_is_scale_free():
    # harmonic-0 with signed per-vector scales 10^U(-4, 4): x_k x_k^T has
    # off-diagonal entries for every k (a quarter of the diagonal on the
    # shortest vector, of norm 2.6e-4), so no e_k is in V, while the kernel
    # weights of a scaling are
    F = FRAMES["harmonic-0"]
    rng = np.random.default_rng(1)
    d = 10.0 ** rng.uniform(-4.0, 4.0, F.m) * rng.choice([-1.0, 1.0], F.m)
    G = frame_from_synthesis(F.synthesis * d)
    for k in range(G.m):
        assert not is_in_V(G, np.eye(G.m)[k]).member, k
    assert is_in_V(G, decide(G).weights_c).member


def test_corpus_covers_every_verdict():
    verdicts = {decide(F).verdict for F in FRAMES.values()}
    assert verdicts == {"not_scalable", "scalable", "strictly_scalable"}


@st.composite
def integer_frames(draw):
    """Synthesis matrices with entries in {-2..2}: exact zeros and ties in
    the reduced diagram matrix, degenerate LPs."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 1, n + 6))
    entries = draw(st.lists(st.integers(-2, 2), min_size=n * m, max_size=n * m))
    return np.array(entries, dtype=float).reshape(n, m)


@st.composite
def near_duplicate_frames(draw):
    """Gaussian vectors, some repeated with noise of size 1e-7."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(n, n + 3))
    copies = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((n, k))
    near = base[:, copies] + 1e-7 * rng.standard_normal((n, len(copies)))
    return np.hstack([base, near])


def _report(X):
    """The scalability fields and the frame bounds of the ``analyze``
    report; any exception, exit 3 included, fails the test."""
    try:
        F = frame_from_synthesis(X)
    except (NotSpanningError, ZeroVectorError):
        return None
    rep = build_report(document_from_frame(F), 1e-8)
    s = rep["scalability"]
    assert s["reject_row"] is None
    return ((s["verdict"], s["method"]),
            (rep["frame"]["lower_bound"], rep["frame"]["upper_bound"]),
            rep["dual"]["dual_scalable"])


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(X=st.one_of(integer_frames(), near_duplicate_frames()),
       seed=st.integers(0, 2**32 - 1))
def test_report_is_invariant_on_drawn_frames(X, seed):
    want = _report(X)
    assume(want is not None)
    (verdict, method), (lower, upper), dual = want
    rng = np.random.default_rng(seed)
    n, m = X.shape
    d = 10.0 ** rng.uniform(-4.0, 4.0, m) * rng.choice([-1.0, 1.0], m)
    transforms = {
        "per-vector": X * d,
        "orthogonal": random_orthogonal(rng, n) @ X,
        "permutation": X[:, rng.permutation(m)],
    }
    for label, Y in transforms.items():
        got = _report(Y)
        # spanning is judged on unit-norm columns, which no transform moves
        assert got is not None, label
        (v, meth), (lo, up), dual_got = got
        assert (v, meth) == (verdict, method), label
        if label != "per-vector":
            assert abs(lo - lower) <= 1e-9 * upper and abs(up - upper) <= 1e-9 * upper, label
            assert dual_got == dual, label
