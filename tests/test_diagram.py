import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framescale import (
    diagram_gram_sum,
    diagram_inner_identity_check,
    diagram_vector,
    full_diagram_matrix,
    make_frame,
    reduced_diagram_matrix,
)
from framescale.diagram import FULL, REDUCED, _diagram_columns, coordinate_pairs, reduced_size
from framescale.errors import DimensionTooSmallError, NonFiniteError, NotUnitNormError
from conftest import angles_frame, random_unit_frame

finite_floats = st.floats(-10.0, 10.0, allow_nan=False)


def pair_indices(n):
    """Lexicographic index pairs (i, j), 0-based, i < j."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def reference_diagram_columns(X, kind):
    """The per-pair loop that built diagram vectors before np.triu_indices:
    the reference for bitwise equality."""
    n = X.shape[0]
    scale = 1.0 / np.sqrt(n - 1)
    pairs = pair_indices(n)
    diffs = np.vstack([(X[i] ** 2 - X[j] ** 2) * scale for i, j in pairs])
    prods = np.vstack([np.sqrt(2 * n) * X[i] * X[j] * scale for i, j in pairs])
    if kind == FULL:
        return np.vstack([diffs, prods])
    return np.vstack([diffs[: n - 1], prods])


class TestShapesAndOrdering:
    def test_pair_indices_lexicographic(self):
        assert pair_indices(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_coordinate_pairs_built_once_per_n(self, n):
        # one read-only pair of index arrays per n, shared by every caller
        i, j = coordinate_pairs(n)
        assert list(zip(i.tolist(), j.tolist())) == pair_indices(n)
        assert coordinate_pairs(n) is coordinate_pairs(n)
        with pytest.raises(ValueError):
            i[:] = 0

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 5), (4, 9), (5, 14)])
    def test_reduced_size(self, n, expected):
        assert reduced_size(n) == expected

    def test_full_vector_length(self):
        d = diagram_vector([1.0, 2.0, 3.0], FULL)
        assert d.shape == (6,)

    def test_reduced_vector_length(self):
        d = diagram_vector([1.0, 2.0, 3.0], REDUCED)
        assert d.shape == (5,)

    def test_rejects_dimension_one(self):
        with pytest.raises(DimensionTooSmallError):
            diagram_vector([1.0])


class TestVectorisedColumns:
    @pytest.mark.parametrize("kind", [FULL, REDUCED])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_bitwise_equal_to_loop(self, rng, n, kind):
        for X in (rng.standard_normal((n, 2 * n + 3)),
                  rng.integers(-5, 6, (n, 2 * n + 3)).astype(float),
                  rng.standard_normal((n, 1))):
            got, want = _diagram_columns(X, kind), reference_diagram_columns(X, kind)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            _diagram_columns(np.ones((3, 4)), "half")

    @pytest.mark.parametrize("x", [[1e154, 1e154], [1e154, 1e154, 0.0], [1e200, 1e200]])
    def test_overflowing_entries_name_the_vector_with_no_warning(self, x):
        # the first two pass frame intake but overflow a product entry; the
        # last overflows its squares too, which diagram_vector, with no frame
        # intake, accepts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="frame vector 0 is too large"):
                diagram_vector(x, REDUCED)


class TestExplicitValues:
    def test_r2_full_vector(self):
        # n=2: difference entry (a^2 - b^2), product entry 2ab
        a, b = 3.0, 2.0
        d = diagram_vector([a, b], FULL)
        assert np.allclose(d, [a * a - b * b, 2 * a * b])

    def test_r2_reduced_equals_full(self):
        d1 = diagram_vector([0.6, 0.8], FULL)
        d2 = diagram_vector([0.6, 0.8], REDUCED)
        assert np.array_equal(d1, d2)

    def test_r3_entries(self):
        x = np.array([1.0, 2.0, 3.0])
        d = diagram_vector(x, FULL)
        s = 1.0 / np.sqrt(2.0)
        diffs = [(1 - 4) * s, (1 - 9) * s, (4 - 9) * s]
        prods = [np.sqrt(6) * 2 * s, np.sqrt(6) * 3 * s, np.sqrt(6) * 6 * s]
        assert np.allclose(d, diffs + prods)

    def test_unit_angle_diagram(self):
        # unit vector at angle t maps to (cos 2t, sin 2t)
        for t in (0.3, 1.2, 2.5):
            d = diagram_vector([np.cos(t), np.sin(t)], FULL)
            assert np.allclose(d, [np.cos(2 * t), np.sin(2 * t)], atol=1e-12)

    def test_matrix_columns_match_vectors(self, rng):
        F = random_unit_frame(rng, 4, 6)
        D = full_diagram_matrix(F)
        R = reduced_diagram_matrix(F)
        assert D.shape == (12, 6)
        assert R.shape == (9, 6)
        for i, x in enumerate(F.vectors()):
            assert np.allclose(D[:, i], diagram_vector(x, FULL))
            assert np.allclose(R[:, i], diagram_vector(x, REDUCED))

    def test_reduced_drops_redundant_difference_rows(self, rng):
        # every dropped (i,j) difference row is a combination of kept rows,
        # so the two matrices have equal rank
        F = random_unit_frame(rng, 4, 8)
        D = full_diagram_matrix(F)
        R = reduced_diagram_matrix(F)
        assert np.linalg.matrix_rank(np.vstack([D, R])) == np.linalg.matrix_rank(R)


class TestIdentities:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.data())
    def test_inner_product_identity(self, n, data):
        x = np.array(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
        y = np.array(data.draw(st.lists(finite_floats, min_size=n, max_size=n)))
        resid = diagram_inner_identity_check(x, y)
        scale = 1.0 + float(x @ x) * float(y @ y)
        assert resid <= 1e-9 * scale

    def test_norm_identity(self, rng):
        for n in range(2, 7):
            x = rng.standard_normal(n)
            d = diagram_vector(x, FULL)
            assert np.linalg.norm(d) == pytest.approx(float(x @ x), rel=1e-12)


class TestGramSum:
    def test_zero_for_unit_tight_frame(self):
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        assert diagram_gram_sum(F) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_non_tight_frame(self):
        F = angles_frame(0.0, 0.3, 1.9)
        assert diagram_gram_sum(F) > 1e-3

    def test_matches_pairwise_double_sum(self, rng):
        F = random_unit_frame(rng, 3, 5)
        ds = [diagram_vector(x, FULL) for x in F.vectors()]
        expected = sum(float(a @ b) for a in ds for b in ds)
        assert diagram_gram_sum(F) == pytest.approx(expected, abs=1e-10)

    def test_requires_unit_norm(self):
        F = make_frame([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotUnitNormError):
            diagram_gram_sum(F)
