import warnings
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescale import (
    apply_scaling,
    frame_from_synthesis,
    frame_operator,
    frame_potential,
    is_dual,
    is_tight,
    make_frame,
)
from framescale.diagram import diagram_gram_sum, diagram_inner_identity_check
from framescale.duals import check_transform_scaling
from framescale.errors import (
    BadParamsError,
    DimensionMismatchError,
    DimensionTooSmallError,
    NonFiniteError,
    NotSpanningError,
    ZeroVectorError,
)
from framescale.frame_core import Frame, _checked_synthesis, _spans
from conftest import angles_frame, random_unit_frame
from paper_reference import spans_by_peak


class TestConstruction:
    def test_synthesis_columns_are_vectors(self):
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert F.n == 2 and F.m == 3
        assert np.array_equal(F.synthesis, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        vs = F.vectors()
        assert np.array_equal(vs[2], [1.0, 1.0])

    def test_rejects_too_few_vectors(self):
        with pytest.raises(NotSpanningError):
            make_frame([[1.0, 0.0]])

    def test_rejects_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            make_frame([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("x, word", [(1e-200, "underflow"), (1e200, "overflow")])
    def test_rejects_out_of_range_vector(self, x, word):
        # a nonzero vector whose squares underflow to 0 is not the zero
        # vector, and one whose squares overflow is not a spanning failure
        with pytest.raises(NonFiniteError, match=f"frame vector 2 is too .*{word}"):
            make_frame([[1.0, 0.0], [0.0, 1.0], [x, x]])

    def test_one_small_entry_is_in_range(self):
        # only the largest squared entry of a vector must be in range
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [1e-200, 1.0]])
        assert F.synthesis[0, 2] == 1e-200

    def test_rejects_non_spanning(self):
        with pytest.raises(NotSpanningError):
            make_frame([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])

    @pytest.mark.parametrize("s", [1e-10, 1e9, 1e10, 1e15, 1e154])
    def test_spanning_survives_rescaling_one_vector(self, s):
        # spanning is judged on unit-norm columns: the raw singular values of
        # (1, 0), (0, 1), (1e10, 1e10) are about 1.4e10 and 1, below the
        # rank threshold, yet the vectors span as they do at s = 1; at 1e154
        # the squares are in range but their sum is not, and no warning
        # may leak
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [s, s]])
        assert F.synthesis[0, 2] == s

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            make_frame([[1.0, 0.0], [0.0, np.inf]])

    def test_synthesis_is_readonly(self):
        F = make_frame([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            F.synthesis[0, 0] = 5.0


@st.composite
def far_scaled_syntheses(draw):
    """n x m Gaussian syntheses, n = 1..6, m = n..3n+2, each vector scaled
    by 10^U(-150, 150).  For n >= 2, in a third of them each vector is
    moved into a hyperplane and then off it by a Gaussian multiple of
    10^U(-13, -7) (one exponent per frame) of its length, so the smallest
    singular value of the unit columns falls on either side of
    ``RANK_TOL``."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 3 * n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, m))
    if n >= 2 and draw(st.integers(0, 2)) == 0:
        normal = rng.standard_normal(n)
        normal /= np.linalg.norm(normal)
        X -= np.outer(normal, normal @ X)
        X += np.outer(normal, 10.0 ** rng.uniform(-13.0, -7.0) * rng.standard_normal(m)
                      * np.linalg.norm(X, axis=0))
    return X * 10.0 ** rng.uniform(-150.0, 150.0, m)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(X=far_scaled_syntheses())
def test_spanning_rule_matches_the_peak_then_norm_rule(X):
    # the spanning test divides X by the column norms that every route
    # shares (numerics.column_norms); the reference takes each norm after
    # dividing by the column's largest entry.  Both give unit columns equal
    # to rounding, and the same decision
    assert _spans(Frame(synthesis=_checked_synthesis(X))) == spans_by_peak(X)


class TestFrameOperator:
    def test_operator_is_sum_of_outer_products(self, rng):
        F = random_unit_frame(rng, 3, 6)
        S = sum(np.outer(x, x) for x in F.vectors())
        op = frame_operator(F)
        assert np.allclose(op.S, S, atol=1e-12)

    def test_bounds_are_extreme_eigenvalues(self, rng):
        F = random_unit_frame(rng, 3, 5)
        w = np.linalg.eigvalsh(F.synthesis @ F.synthesis.T)
        op = frame_operator(F)
        assert op.lower_bound == pytest.approx(w[0], abs=1e-10)
        assert op.upper_bound == pytest.approx(w[-1], abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_lower_bound_of_ill_conditioned_frame(self, seed):
        # X = R diag(1, 1e-7) B: S = X X^T has condition number 1e14, so its
        # smallest eigenvalue from the formed S is off by up to about 1e-2
        # relative; the exact value comes from det and tr of S in rationals
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 2.0 * np.pi)
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        B = np.linalg.qr(rng.standard_normal((5, 2)))[0].T
        F = frame_from_synthesis(R @ np.diag([1.0, 1e-7]) @ B)
        X = [[Fraction(float(v)) for v in row] for row in F.synthesis]
        s00, s11 = (sum(v * v for v in row) for row in X)
        s01 = sum(u * v for u, v in zip(*X))
        det, tr = s00 * s11 - s01 * s01, s00 + s11
        exact = 2 * det / (tr + Fraction(sqrt(tr * tr - 4 * det)))
        assert frame_operator(F).lower_bound == pytest.approx(float(exact), rel=1e-8, abs=0)

    def test_lower_bound_below_the_normal_range_raises_no_warning(self):
        # sigma_max(R^-1) = 1e160, whose square overflows: the bound is
        # (1 / 1e160)^2, subnormal, not 1 / inf = 0 after a RuntimeWarning
        F = make_frame([[1e-160, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frame_operator(F).lower_bound == pytest.approx(1e-320, rel=1e-3)

    def test_bound_inequality_for_all_vectors(self, rng):
        F = random_unit_frame(rng, 2, 4)
        op = frame_operator(F)
        for _ in range(20):
            x = rng.standard_normal(2)
            total = sum(float(x @ v) ** 2 for v in F.vectors())
            nx = float(x @ x)
            assert op.lower_bound * nx - 1e-9 <= total <= op.upper_bound * nx + 1e-9


class TestFramePotential:
    def test_double_sum_oracle(self, rng):
        F = random_unit_frame(rng, 3, 5)
        vs = F.vectors()
        expected = sum(float(x @ y) ** 2 for x in vs for y in vs)
        assert frame_potential(F) == pytest.approx(expected, rel=1e-12)

    def test_orthonormal_basis(self):
        F = make_frame(np.eye(4))
        assert frame_potential(F) == pytest.approx(4.0)

    @pytest.mark.parametrize("s", [1.0, 1e-80, 1e70])
    def test_finite_values_are_the_plain_sum(self, rng, s):
        F = make_frame(s * rng.standard_normal((6, 3)))
        G = F.synthesis.T @ F.synthesis
        assert frame_potential(F) == float(np.sum(G * G))

    def test_overflow_is_an_input_error(self):
        # the true potential, about 1e321, is beyond the float range
        F = make_frame([[1.0, 0.2], [0.7, 0.9], [1e80, 2e80], [0.1, 1.0]])
        with pytest.raises(NonFiniteError, match="frame potential"):
            frame_potential(F)


class TestTightness:
    def test_orthonormal_basis_is_parseval(self):
        t = is_tight(make_frame(np.eye(3)))
        assert t.tight and t.bound == pytest.approx(1.0)

    def test_three_equiangular_vectors(self):
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        t = is_tight(F)
        assert t.tight
        assert t.bound == pytest.approx(1.5, abs=1e-12)

    def test_generic_frame_not_tight(self):
        assert not is_tight(make_frame([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]])).tight

    def test_tolerance_knob(self):
        X = np.eye(2) * np.array([1.0, 1.0 + 1e-6])
        F = frame_from_synthesis(X)
        assert not is_tight(F, tol=1e-8).tight
        assert is_tight(F, tol=1e-4).tight


class TestScalingAndDuality:
    def test_apply_scaling_scales_columns(self):
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        sf = apply_scaling(F, [1.0, 2.0, 0.0])
        assert np.array_equal(sf.synthesis, [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])

    def test_scaling_wrong_length(self):
        F = make_frame(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            apply_scaling(F, [1.0])

    def test_scaling_negative_weight(self):
        F = make_frame(np.eye(2))
        with pytest.raises(ValueError):
            apply_scaling(F, [1.0, -1.0])

    def test_scaling_destroys_spanning(self):
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotSpanningError):
            apply_scaling(F, [1.0, 0.0, 0.0])

    def test_scaling_keeps_spanning_at_any_weight_scale(self):
        # one weight 1e11 leaves raw singular values 1e11 apart; the scaled
        # vectors span, and zero weights alone can take spanning away
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert apply_scaling(F, [1e11, 1.0, 1.0]).n == 2
        with pytest.raises(NotSpanningError):
            apply_scaling(F, [1e11, 0.0, 0.0])

    def test_apply_scaling_keeps_spanning_under_positive_weights(self, monkeypatch):
        # positive weights leave every unit-norm column as it was: the
        # spanning decision of F carries over and no SVD is taken
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args))
        sf = apply_scaling(F, [1e11, 2.0, 1e-11])
        assert np.array_equal(sf.synthesis, F.synthesis * [1e11, 2.0, 1e-11])
        assert calls == []

    def test_apply_scaling_retests_an_underflowed_column(self):
        # 1e-150 * 1e-200 underflows to 0: the weights are positive, but the
        # second column is lost and the scaled vectors no longer span
        F = make_frame([[1.0, 0.0], [0.0, 1e-150]])
        with pytest.raises(NotSpanningError):
            apply_scaling(F, [1.0, 1e-200])

    def test_apply_scaling_retests_an_overflowed_column(self):
        # 1e100 * 1e250 overflows: the scaled synthesis is not finite
        F = make_frame([[1e100, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            apply_scaling(F, [1e250, 1.0, 1.0])

    def test_is_dual_identity(self):
        F = make_frame(np.eye(3))
        assert is_dual(F, F)

    def test_is_dual_reconstruction(self, rng):
        F = random_unit_frame(rng, 2, 4)
        S = F.synthesis @ F.synthesis.T
        G = frame_from_synthesis(np.linalg.solve(S, F.synthesis))
        assert is_dual(F, G)
        # reconstruction formula holds for arbitrary vectors
        for _ in range(5):
            x = rng.standard_normal(2)
            rec = sum(float(x @ g) * f
                      for f, g in zip(F.vectors(), G.vectors()))
            assert np.allclose(rec, x, atol=1e-10)

    def test_is_dual_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_dual(make_frame(np.eye(2)), make_frame(np.eye(3)))


@pytest.mark.parametrize("call, error", [
    (lambda: frame_from_synthesis(np.ones(3)), DimensionMismatchError),
    (lambda: frame_from_synthesis([[1.0, 0.0, 1.0], [0.0, 1.0]]), DimensionMismatchError),
    (lambda: make_frame([1.0, 2.0]), DimensionMismatchError),
    (lambda: make_frame([[1.0, 0.0], [1.0]]), DimensionMismatchError),
    # an entry that is itself a sequence; one that is no number keeps numpy's error
    (lambda: make_frame([[[1, 0], [1]]]), DimensionMismatchError),
    (lambda: make_frame([[[1], 0], [0, 1]]), DimensionMismatchError),
    (lambda: frame_from_synthesis([[[1, 0], [1]]]), DimensionMismatchError),
    (lambda: make_frame([["a", 0], [0, 1]]), ValueError),
    # at NaN or inf every comparison of the test would pass
    (lambda: is_tight(make_frame([[1.0, 0.0], [1.0, 1.0]]), float("nan")), BadParamsError),
    (lambda: is_tight(make_frame([[1.0, 0.0], [1.0, 1.0]]), float("inf")), BadParamsError),
    (lambda: is_tight(make_frame([[1.0, 0.0], [1.0, 1.0]]), 0.0), BadParamsError),
    (lambda: apply_scaling(make_frame(np.eye(3)), [1.0, np.nan, 1.0]), NonFiniteError),
    (lambda: diagram_inner_identity_check([1.0, 0.0], [1.0, 0.0, 0.0]), DimensionMismatchError),
    (lambda: diagram_inner_identity_check([1.0], [2.0]), DimensionTooSmallError),
    # a Frame built directly skips the spanning checks of make_frame
    (lambda: diagram_gram_sum(Frame(synthesis=np.eye(3)[:, :2])), DimensionMismatchError),
    (lambda: check_transform_scaling(make_frame(np.eye(2)), np.eye(3), [1.0, 1.0]),
     DimensionMismatchError),
], ids=["synthesis-not-2d", "ragged-synthesis", "vectors-not-2d", "ragged-vectors",
        "ragged-entries-vector", "ragged-entries-vectors", "ragged-entries-synthesis",
        "entry-not-a-number", "tight-tol-nan", "tight-tol-inf", "tight-tol-zero",
        "weights-not-finite", "identity-sizes", "identity-n1", "gram-sum-m-below-n",
        "transform-shape"])
def test_input_check_raises_its_error(call, error):
    with pytest.raises(error):
        call()
