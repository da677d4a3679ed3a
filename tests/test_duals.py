import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framescale import (
    alternate_dual_from_scaling,
    canonical_dual,
    canonical_dual_scalable,
    check_transform_scaling,
    decide,
    grammian_form_check,
    hull_certificate_check,
    intersection_scalability,
    is_dual,
    is_in_V,
    is_in_W,
    make_frame,
    p1_counterexample,
    sylvester_hadamard,
)
from framescale.cli import main
from framescale.diagram import reduced_size
from framescale.frame_core import (
    Frame,
    _checked_synthesis,
    _spans,
    apply_scaling,
    frame_from_synthesis,
    is_tight,
)
from framescale.errors import (
    DimensionMismatchError,
    NoHadamardAvailableError,
    NonFiniteError,
    NotParsevalScalingError,
    NotSpanningError,
    SingularTransformError,
)
from conftest import (
    SCALES,
    angles_frame,
    doubled_hadamard_frame,
    frame_file,
    open_cone_frame,
    random_orthogonal,
    random_scalable_frame,
    random_unit_frame,
    rescaled_harmonic_frame,
    two_block_frame,
)


EXAMPLE_FRAME = make_frame([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]])


class TestCanonicalDual:
    def test_explicit_two_dim_example(self):
        dual = canonical_dual(EXAMPLE_FRAME)
        expected = np.array([[7.0, -4.0, 1.0], [-4.0, 7.0, 1.0]]) / 11.0
        assert np.abs(dual.synthesis - expected).max() < 1e-12

    def test_reconstruction(self, rng):
        F = random_unit_frame(rng, 3, 5)
        assert is_dual(F, canonical_dual(F))

    def test_reconstruction_of_ill_conditioned_frame(self):
        # cond(X) is about 1e6, so S = X X^T has condition about 1e12
        F = make_frame([[1e4, 2e4], [1e-2, -2e-2], [1e-2, 0.0]])
        assert is_dual(F, canonical_dual(F))

    def test_orthonormal_basis_self_dual(self):
        F = make_frame(np.eye(3))
        assert np.abs(canonical_dual(F).synthesis - np.eye(3)).max() < 1e-12

    def test_frame_is_freed_without_the_cycle_collector(self):
        # F keeps its dual frame, which holds no reference back to F, so
        # reference counting alone frees F and everything derived from it
        enabled = gc.isenabled()
        gc.disable()
        try:
            F = random_scalable_frame(np.random.default_rng(7), 3, 6)[0]
            ref = weakref.ref(F)
            decide(F)
            canonical_dual(F)
            canonical_dual_scalable(F)
            del F
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


@st.composite
def scaled_gaussian_frames(draw):
    """n x m Gaussian syntheses, n = 1..5, m = n..3n+2, each vector scaled
    by 10^U(-8, 8), and a seed for the dual's kernel part."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 3 * n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-8.0, 8.0, m), rng


@settings(derandomize=True, database=None, deadline=None)
@given(drawn=scaled_gaussian_frames())
def test_reconstruction_identity_proves_a_dual_spans(drawn):
    # canonical_dual takes no spanning test: max |X Y^T - I| <= RESIDUAL_TOL
    # makes X Y^T, and so Y, rank n.  Checked on the canonical dual and on
    # an alternate dual Y + Z with X Z^T = 0 to rounding
    X, rng = drawn
    try:
        F = frame_from_synthesis(X)
    except NotSpanningError:
        assume(False)
    Y = canonical_dual(F).synthesis
    Z = rng.standard_normal(Y.shape) * np.abs(Y).max(axis=0)
    for G in (Y, Y + Z - (Z @ F.synthesis.T) @ Y):
        if is_dual(F, Frame(synthesis=G)):
            assert _spans(Frame(synthesis=_checked_synthesis(G)))


class TestAlternateDual:
    def test_from_parseval_scaling(self):
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        a = intersection_scalability(F).scalars_a
        pair = alternate_dual_from_scaling(F, a)
        assert is_dual(pair.primal, pair.dual)

    def test_rescaling_recovers_parseval(self):
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        a = intersection_scalability(F).scalars_a
        pair = alternate_dual_from_scaling(F, a)
        rescaled = apply_scaling(pair.dual, 1.0 / a)
        t = is_tight(frame_from_synthesis(rescaled.synthesis))
        assert t.tight and t.bound == pytest.approx(1.0, abs=1e-8)

    def test_zero_weights_dropped(self):
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        a = np.array([1.0, 1.0, 0.0])
        pair = alternate_dual_from_scaling(F, a)
        assert pair.primal.m == 2
        assert is_dual(pair.primal, pair.dual)

    def test_rejects_non_parseval_weights(self):
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        with pytest.raises(NotParsevalScalingError):
            alternate_dual_from_scaling(F, [1.0, 1.0, 1.0])


class TestTransformScaling:
    def test_whitening_transform(self, rng):
        # T = S^{-1/2} turns any frame into a Parseval one with unit weights:
        # the frame operator of {1 * x_i} is S = (T^T T)^{-1}
        F = random_unit_frame(rng, 2, 4)
        S = F.synthesis @ F.synthesis.T
        w, Q = np.linalg.eigh(S)
        T = (Q / np.sqrt(w)) @ Q.T
        assert check_transform_scaling(F, T, np.ones(F.m))

    def test_mismatched_weights_fail(self, rng):
        F = random_unit_frame(rng, 2, 4)
        S = F.synthesis @ F.synthesis.T
        w, Q = np.linalg.eigh(S)
        T = (Q / np.sqrt(w)) @ Q.T
        assert not check_transform_scaling(F, T, 2.0 * np.ones(F.m))

    def test_singular_transform_rejected(self):
        F = make_frame(np.eye(2))
        with pytest.raises(SingularTransformError):
            check_transform_scaling(F, np.zeros((2, 2)), np.ones(2))

    def test_nonfinite_transform_rejected(self):
        F = make_frame(np.eye(2))
        with pytest.raises(NonFiniteError):
            check_transform_scaling(F, [[1.0, np.inf], [0.0, 1.0]], np.ones(2))

    @pytest.mark.parametrize("a", [[1.0], [1.0, 1.0, 1.0]])
    def test_weight_count_checked(self, a):
        # one weight would broadcast over both vectors of an orthonormal
        # basis and pass as a scaling of it
        with pytest.raises(DimensionMismatchError, match="expected 2 weights"):
            check_transform_scaling(make_frame(np.eye(2)), np.eye(2), a)


@pytest.mark.parametrize("check", [apply_scaling, alternate_dual_from_scaling,
                                   check_transform_scaling, grammian_form_check,
                                   is_in_W, is_in_V], ids=lambda f: f.__name__)
def test_every_weight_taking_function_checks_the_count(check):
    F = make_frame(np.eye(2))
    args = (F, np.eye(2)) if check is check_transform_scaling else (F,)
    for a in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(DimensionMismatchError, match="expected 2 weights"):
            check(*args, a)


class TestCanonicalDualScalability:
    def test_unique_solution_small_system(self):
        # {e1, e2, (1,1)}: S^2 = [[5,4],[4,5]] forces c = (1, 1, 4)
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        rep = canonical_dual_scalable(F)
        assert rep.feasible
        # independent oracle: solve the 3x3 linear system directly
        X = F.synthesis
        A = np.array([X[0] * X[0], X[1] * X[1], X[0] * X[1]])
        S2 = (X @ X.T) @ (X @ X.T)
        b = np.array([S2[0, 0], S2[1, 1], S2[0, 1]])
        expected = np.linalg.solve(A, b)
        assert np.allclose(rep.weights_c, expected, atol=1e-8)
        assert np.allclose(expected, [1.0, 1.0, 4.0])

    def test_explicit_frame_weights(self):
        rep = canonical_dual_scalable(EXAMPLE_FRAME)
        assert rep.feasible
        assert np.allclose(rep.weights_c, [1.0, 1.0, 56.0], atol=1e-7)
        assert rep.residual < 1e-8 * 61.0

    def test_weights_make_scaled_dual_tight(self):
        # scaling the canonical dual by the reported a_i gives a tight frame
        rep = canonical_dual_scalable(EXAMPLE_FRAME)
        scaled = apply_scaling(canonical_dual(EXAMPLE_FRAME), rep.scalars_a)
        assert is_tight(frame_from_synthesis(scaled.synthesis)).tight

    def test_grammian_form_consistency(self):
        rep = canonical_dual_scalable(EXAMPLE_FRAME)
        assert grammian_form_check(EXAMPLE_FRAME, rep.scalars_a) < 1e-7
        assert grammian_form_check(EXAMPLE_FRAME, np.ones(3)) > 1e-3


def _assert_dual_answer(F, rep):
    """A scalable answer solves sum_i c_i x_i x_i^T = S^2; a not-scalable one
    carries a separating functional of the canonical dual frame."""
    if rep.feasible:
        X = F.synthesis
        S2 = np.linalg.matrix_power(X @ X.T, 2)
        assert rep.weights_c.min() >= 0.0
        assert np.abs((X * rep.weights_c) @ X.T - S2).max() <= 1e-9 * np.abs(S2).max()
    else:
        assert hull_certificate_check(canonical_dual(F), rep.certificate_y)


def _invariance_frames():
    rng = np.random.default_rng(2024)
    frames = [random_scalable_frame(rng, 3, 9)[0] for _ in range(20)]
    frames += [p1_counterexample(4), doubled_hadamard_frame()]
    frames += [rescaled_harmonic_frame(rng, 4, 12) for _ in range(2)]
    frames += [two_block_frame(rng, 4, 11) for _ in range(2)]
    frames += [open_cone_frame(rng, 3, 7) for _ in range(2)]
    return frames + [angles_frame(0.2, 0.7, 1.2, 1.4)]


INVARIANCE_FRAMES = _invariance_frames()


class TestDualInvariance:
    """Canonical-dual scalability depends only on the geometry of the frame:
    a global scale and an orthogonal change of basis keep the verdict, and
    ``dual --check-scalable`` answers every such frame."""

    @pytest.mark.parametrize("index", range(len(INVARIANCE_FRAMES)))
    def test_scale_and_rotation(self, tmp_path, capsys, index):
        F = INVARIANCE_FRAMES[index]
        verdict = canonical_dual_scalable(F).feasible
        U = random_orthogonal(np.random.default_rng(index), F.n)
        for X in [s * F.synthesis for s in SCALES] + [U @ F.synthesis]:
            G = frame_from_synthesis(X)
            rep = canonical_dual_scalable(G)
            assert rep.feasible == verdict
            _assert_dual_answer(G, rep)
            assert main(["dual", "--check-scalable", frame_file(tmp_path, G)]) == 0
            out = capsys.readouterr().out
            assert ("dual scalable" in out) == verdict


def _s2_feasible(linprog, F):
    """The S^2 formulation solved by HiGHS: some c >= 0 with
    sum_i c_i x_i x_i^T = S^2, compared over the upper triangle."""
    X = F.synthesis
    i, j = np.triu_indices(F.n)
    S2 = np.linalg.matrix_power(X @ X.T, 2)
    res = linprog(np.zeros(F.m), A_eq=X[i] * X[j], b_eq=S2[i, j],
                  bounds=(0.0, None), method="highs")
    assert res.status in (0, 2)
    return res.status == 0


class TestDualS2Oracle:
    """The dual decided as a frame against the S^2 system solved by scipy's
    HiGHS, on random frames, on frames whose dual is scalable by
    construction, and on the two named counterexamples."""

    def test_agrees_with_highs(self, rng):
        linprog = pytest.importorskip("scipy.optimize").linprog
        frames = [p1_counterexample(4), doubled_hadamard_frame()]
        for n in range(2, 7):
            for trial in range(12):
                m = int(rng.integers(n + 1, 3 * reduced_size(n) + 4))
                if trial % 2:
                    frames.append(random_unit_frame(rng, n, m))
                else:  # the canonical dual of the canonical dual is the frame
                    frames.append(canonical_dual(random_scalable_frame(rng, n, m)[0]))
        verdicts = []
        for F in frames:
            rep = canonical_dual_scalable(F)
            assert rep.feasible == _s2_feasible(linprog, F)
            _assert_dual_answer(F, rep)
            verdicts.append(rep.feasible)
        assert min(verdicts.count(True), verdicts.count(False)) >= 5


class TestHadamard:
    def test_orders(self):
        for n in (1, 2, 4, 8):
            H = sylvester_hadamard(n)
            assert H.shape == (n, n)
            assert np.abs(np.abs(H) - 1.0).max() == 0.0
            assert np.array_equal(H @ H.T, n * np.eye(n))

    def test_rejects_non_power_of_two(self):
        for n in (0, 3, 6, 12):
            with pytest.raises(NoHadamardAvailableError):
                sylvester_hadamard(n)


class TestP1Counterexample:
    def test_frame_operator_is_diagonal(self):
        F = p1_counterexample(4)
        S = F.synthesis @ F.synthesis.T
        assert np.allclose(S, np.diag([2.0, 2.0, 5.0, 10.0]), atol=1e-12)

    def test_primal_scalable_dual_not(self):
        F = p1_counterexample(4)
        assert decide(F).scalable
        assert not canonical_dual_scalable(F).feasible

    def test_rejects_small_n(self):
        with pytest.raises(NoHadamardAvailableError):
            p1_counterexample(1)


class TestRandomScalableFamilies:
    def test_alternate_duals_of_scalable_frames(self, rng):
        for _ in range(10):
            F, d = random_scalable_frame(rng, 2, 4)
            a = intersection_scalability(F).scalars_a
            pair = alternate_dual_from_scaling(F, a)
            assert is_dual(pair.primal, pair.dual)
