import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framescale import (
    codim2_scaling,
    cofactor_scaling,
    decide_scalable,
    hull_certificate_check,
    intersection_scalability,
    make_frame,
    quick_sign_reject,
)
from framescale.frame_core import apply_scaling, is_tight
from framescale.diagram import reduced_diagram_matrix, reduced_size, unit_diagram_matrix
from framescale.errors import CorankMismatchError, DimensionMismatchError
from framescale import diagram, numerics
from framescale.numerics import ZERO_TOL
from framescale.scalability import (
    ALL_NONNEG,
    ALL_NONPOS,
    MIXED,
    NOT_SCALABLE,
    SCALABLE,
    STRICTLY_SCALABLE,
    _intersect_half_circles,
    cofactor_pencil,
    cofactor_vector,
    independent_rows,
)
from conftest import angles_frame, random_scalable_frame, random_unit_frame


def doubled_angle_gap_oracle(F):
    """Independent scalability test for unit-norm frames in R^2: the frame is
    scalable exactly when the doubled angles leave no circular gap wider than
    pi (equivalently, the vectors do not fit in one open quadrant after sign
    flips)."""
    X = F.synthesis
    ang = np.sort(np.mod(2.0 * np.arctan2(X[1], X[0]), 2.0 * np.pi))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    return float(gaps.max()) <= np.pi + 1e-9


class TestVerdicts:
    def test_equiangular_triple_strictly_scalable(self):
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        r = decide_scalable(F, strict=True)
        assert r.verdict == STRICTLY_SCALABLE
        assert np.allclose(r.weights_c, [1 / 3] * 3, atol=1e-8)
        assert r.near_zero == []

    def test_weights_produce_tight_frame(self):
        F = angles_frame(0.0, np.pi / 3, 2 * np.pi / 3)
        r = decide_scalable(F)
        assert r.scalable
        assert is_tight(apply_scaling(F, r.scalars_a)).tight

    def test_first_quadrant_frame_rejected_with_certificate(self):
        F = make_frame([[1.0, 0.1], [0.9, 0.5], [0.5, 1.0]])
        r = decide_scalable(F)
        assert r.verdict == NOT_SCALABLE
        assert hull_certificate_check(F, r.certificate_y)

    def test_scalable_only_with_zero_weight(self):
        # third vector needs weight zero: scalable but not strictly
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        r = decide_scalable(F, strict=True)
        assert r.verdict == SCALABLE
        assert 2 in r.near_zero
        assert np.allclose(r.weights_c, [0.5, 0.5, 0.0], atol=1e-8)

    def test_duplicated_vector_splits_weight(self):
        F = make_frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        r = decide_scalable(F)
        assert r.scalable
        c = r.weights_c
        # total weight on the duplicated direction must equal the e2 weight
        assert c[0] + c[1] == pytest.approx(c[2], abs=1e-8)

    def test_weights_sum_to_one(self, rng):
        for _ in range(10):
            F = random_unit_frame(rng, 2, 5)
            r = decide_scalable(F)
            if r.scalable:
                assert r.weights_c.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.allclose(r.scalars_a, np.sqrt(r.weights_c))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 6), st.data())
    def test_matches_gap_oracle(self, m, data):
        angles = data.draw(
            st.lists(st.floats(0.0, np.pi - 1e-3), min_size=m, max_size=m)
        )
        X = np.array([[np.cos(t), np.sin(t)] for t in angles])
        # the spanning test make_frame applies: singular values relative to
        # the largest, at numerics.RANK_TOL
        if numerics.rank(X) < 2:
            return
        F = make_frame(X)
        assert decide_scalable(F).scalable == doubled_angle_gap_oracle(F)


def loop_sign_reject(theta):
    """Row-by-row reference for ``quick_sign_reject``: the first row whose
    entries all exceed the zero tolerance in magnitude and share one sign."""
    for i, row in enumerate(theta):
        if float(np.abs(row).min()) > ZERO_TOL and (
            np.all(row > 0) or np.all(row < 0)
        ):
            return i
    return None


class TestSignReject:
    def test_matches_row_loop(self, rng, monkeypatch):
        # the reject reads theta on unit-norm columns, a per-frame value, so
        # each draw gets a fresh frame, and the reference reads the same
        # unit-column matrix.  The draw's columns are unit before the tiny
        # entries go in, which leaves their norms as they are, so the tiny
        # entries reach the reject at the zero tolerance or within an ulp.
        tiny = [0.0, ZERO_TOL, -ZERO_TOL, 2 * ZERO_TOL, -2 * ZERO_TOL]
        for _ in range(400):
            k, m = rng.integers(1, 8), rng.integers(1, 12)
            theta = rng.standard_normal((k, m))
            for i in rng.choice(k, size=rng.integers(0, k + 1), replace=False):
                theta[i] = rng.choice([-1.0, 1.0]) * np.abs(theta[i])
            mask = rng.random((k, m)) < 0.05
            theta[mask] = 0.0
            theta /= numerics.column_norms(theta)
            theta[mask] = rng.choice(tiny, size=mask.sum())
            monkeypatch.setattr(diagram, "reduced_diagram_matrix", lambda G: theta)
            F = make_frame(np.eye(2))
            unit = unit_diagram_matrix(F).data
            assert quick_sign_reject(F).row_index == loop_sign_reject(unit)

    def test_strictly_positive_row_rejects(self):
        F = make_frame([[1.0, 0.1], [0.9, 0.5], [0.5, 1.0]])
        check = quick_sign_reject(F)
        assert check.row_index is not None

    def test_row_with_zero_entry_does_not_reject(self):
        # product row (0, 0, 2) is one-signed but has zeros; the frame is
        # scalable with zero weight on the third vector
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        check = quick_sign_reject(F)
        assert check.row_index is None
        assert decide_scalable(F).scalable


class TestHullCertificate:
    def test_valid_certificate(self):
        F = angles_frame(0.1, 0.3, 0.5)
        r = decide_scalable(F)
        assert not r.scalable
        assert hull_certificate_check(F, r.certificate_y)

    def test_invalid_certificate(self):
        F = angles_frame(0.1, 0.3, 0.5)
        assert not hull_certificate_check(F, [0.0, 0.0])

    def test_wrong_length(self):
        F = angles_frame(0.1, 0.3, 0.5)
        with pytest.raises(DimensionMismatchError):
            hull_certificate_check(F, [1.0, 2.0, 3.0])


class TestIndependentRows:
    def test_prefers_earliest_rows(self):
        mat = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        assert independent_rows(mat) == [0, 2]

    def test_full_rank_keeps_all(self, rng):
        mat = rng.standard_normal((3, 5))
        assert independent_rows(mat) == [0, 1, 2]


class TestCofactor:
    def test_cofactor_vector_is_orthogonal_to_rows(self, rng):
        rows = rng.standard_normal((4, 5))
        c = cofactor_vector(rows)
        assert np.abs(rows @ c).max() < 1e-9

    def test_cofactor_vector_shape_check(self):
        with pytest.raises(DimensionMismatchError):
            cofactor_vector(np.ones((2, 4)))

    def test_closed_form_for_angle_triples(self, rng):
        # reduced diagram rows of {(1,0), (cos t, sin t), (cos p, sin p)}
        # have cofactors (sin 2(p-t), -sin 2p, sin 2t)
        for _ in range(25):
            t = rng.uniform(0.05, np.pi / 2 - 0.05)
            p = rng.uniform(np.pi / 2 + 0.05, np.pi - 0.05)
            F = angles_frame(0.0, t, p)
            report, result = cofactor_scaling(F)
            expected = np.array(
                [np.sin(2 * (p - t)), -np.sin(2 * p), np.sin(2 * t)]
            )
            ratio = report.cofactor_vector / expected
            assert np.allclose(ratio, ratio[0], rtol=1e-8)
            assert report.corank == 1

    def test_sign_classes(self):
        # scalable triple: all cofactors one-signed
        report, result = cofactor_scaling(angles_frame(0.0, np.pi / 3, 2 * np.pi / 3))
        assert report.sign_class in (ALL_NONNEG, ALL_NONPOS)
        assert result.scalable
        # non-scalable triple: mixed signs, certificate attached
        report, result = cofactor_scaling(angles_frame(0.1, 0.4, 0.8))
        assert report.sign_class == MIXED
        assert result.verdict == NOT_SCALABLE
        assert result.certificate_y is not None

    def test_agrees_with_general_test(self, rng):
        for _ in range(15):
            F = random_unit_frame(rng, 2, 3)
            theta = reduced_diagram_matrix(F)
            if np.linalg.matrix_rank(theta) != 2:
                continue
            _, by_cofactor = cofactor_scaling(F)
            assert by_cofactor.scalable == decide_scalable(F).scalable

    def test_corank_mismatch(self):
        # two non-orthogonal vectors: the reduced diagram matrix has full
        # column rank, so there is no kernel for the cofactor route
        F = angles_frame(0.0, 0.3)
        with pytest.raises(CorankMismatchError):
            cofactor_scaling(F)


class TestCodim2:
    def test_four_vector_example(self):
        deg = np.pi / 180.0
        F = angles_frame(0.0, 30 * deg, 100 * deg, 110 * deg)
        r = codim2_scaling(F)
        assert r.verdict == STRICTLY_SCALABLE
        assert is_tight(apply_scaling(F, r.scalars_a)).tight

    def test_pencil_matches_displayed_cofactors(self):
        deg = np.pi / 180.0
        a, b, g = 30 * deg, 100 * deg, 110 * deg
        R = np.array(
            [[1.0, np.cos(2 * a), np.cos(2 * b), np.cos(2 * g)],
             [0.0, np.sin(2 * a), np.sin(2 * b), np.sin(2 * g)]]
        )
        xi1, xi2 = cofactor_pencil(R, [0, 0, 1, 0], [0, 0, 0, 1])
        for t in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
            A = np.cos(t) * xi1 + np.sin(t) * xi2
            expected = np.array(
                [np.sin(t) * np.sin(2 * b - 2 * a) + np.cos(t) * np.sin(2 * a - 2 * g),
                 np.cos(t) * np.sin(2 * g) - np.sin(t) * np.sin(2 * b),
                 np.sin(t) * np.sin(2 * a),
                 -np.cos(t) * np.sin(2 * a)]
            )
            assert np.abs(A - expected).max() < 1e-10

    def test_not_scalable_case_certified(self):
        F = angles_frame(0.05, 0.2, 0.4, 0.6)
        r = codim2_scaling(F)
        assert r.verdict == NOT_SCALABLE
        assert hull_certificate_check(F, r.certificate_y)

    def test_agrees_with_dense_grid_oracle(self, rng):
        # dense sampling of the kernel circle as an independent oracle
        for _ in range(15):
            F = random_unit_frame(rng, 2, 4)
            theta = reduced_diagram_matrix(F)
            if np.linalg.matrix_rank(theta) != 2:
                continue
            r = codim2_scaling(F)
            base = np.linalg.svd(theta)[2][2:]  # kernel basis, 2 x 4
            found = False
            for t in np.linspace(0.0, 2 * np.pi, 4001):
                v = np.cos(t) * base[0] + np.sin(t) * base[1]
                if v.min() >= -1e-12 * np.abs(v).max():
                    found = True
                    break
            assert r.scalable == found

    def test_corank_mismatch(self):
        F = angles_frame(0.0, np.pi / 3, 2 * np.pi / 3)
        with pytest.raises(CorankMismatchError):
            codim2_scaling(F)


def _corank_frames(rng, n, corank, draws):
    """Generated frames at m = d + corank, where d is the reduced row count:
    ``draws`` Parseval-over-d frames and ``draws`` random unit-norm ones."""
    m = reduced_size(n) + corank
    frames = [random_scalable_frame(rng, n, m)[0] for _ in range(draws)]
    frames += [random_unit_frame(rng, n, m) for _ in range(draws)]
    return frames


class TestCrossRouteAgreement:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("corank", [1, 2])
    def test_route_matches_strict_lp(self, rng, n, corank):
        # the kernel routes measure the corank and judge signs and margins on
        # unit-norm columns, like the LPs, so shrinking one vector by 1e-5
        # (its diagram column by 1e-10) or growing one by 1e4 or 1e5 moves
        # none of the three verdicts; a strict answer has no near-zero weight
        route = (lambda G: cofactor_scaling(G)[1]) if corank == 1 else codim2_scaling
        for i, F in enumerate(_corank_frames(rng, n, corank, draws=6)):
            r = route(F)
            assert r.verdict == decide_scalable(F, strict=True).verdict
            assert r.verdict == intersection_scalability(F, strict=True).verdict
            if r.scalable:
                assert is_tight(apply_scaling(F, r.scalars_a)).tight
            for s in (-1e-5, 1e4, 1e5):
                d = np.ones(F.m)
                d[i % F.m] = s
                G = make_frame(F.synthesis.T * d[:, None])
                answers = [route(G), decide_scalable(G, strict=True),
                           intersection_scalability(G, strict=True)]
                for a in answers:
                    assert a.verdict == r.verdict, s
                    if a.verdict == STRICTLY_SCALABLE:
                        assert a.near_zero == [], s

    def test_one_large_vector_stays_strict(self):
        # Mercedes-Benz with one vector times 1e5: raw kernel weights scale
        # like 1/||x_i||^2, unit-column weights stay 1/3 each, and near_zero
        # reads the unit-column weights
        F = angles_frame(np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3)
        G = make_frame(F.synthesis.T * np.array([[1.0], [1e5], [1.0]]))
        for r in (cofactor_scaling(G)[1], decide_scalable(G, strict=True),
                  intersection_scalability(G, strict=True)):
            assert r.verdict == STRICTLY_SCALABLE
            assert r.near_zero == []
            assert r.weights_c[1] < 1e-9  # the raw weight would read as near zero

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_kernel_vector_parallel_to_cofactors(self, rng, n):
        # the route's unit kernel vector is proportional to the paper's
        # cofactors of a maximal independent row subset
        for F in _corank_frames(rng, n, 1, draws=3):
            report, _ = cofactor_scaling(F)
            theta = reduced_diagram_matrix(F)
            cof = cofactor_vector(theta[independent_rows(theta)])
            u = report.cofactor_vector / np.linalg.norm(report.cofactor_vector)
            w = cof / np.linalg.norm(cof)
            assert min(np.abs(u - w).max(), np.abs(u + w).max()) <= 1e-8


class TestCodim2Permutation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_weights_are_permutation_equivariant(self, rng, n):
        # the widest-arc midpoint bisects the feasible kernel cone, which
        # does not depend on the order of the frame vectors
        m = reduced_size(n) + 2
        for _ in range(3):
            F, _ = random_scalable_frame(rng, n, m)
            perm = rng.permutation(m)
            r = codim2_scaling(F)
            r_perm = codim2_scaling(make_frame(F.synthesis.T[perm]))
            assert r_perm.verdict == r.verdict
            assert np.abs(r_perm.weights_c - r.weights_c[perm]).max() <= 1e-9


class TestHalfCircleIntersection:
    def test_single_constraint_width(self):
        ivs = _intersect_half_circles([(1.0, 0.0)])
        assert len(ivs) == 1
        lo, hi = ivs[0]
        assert hi - lo == pytest.approx(np.pi, abs=1e-12)

    def test_opposite_constraints_leave_boundary(self):
        ivs = _intersect_half_circles([(1.0, 0.0), (-1.0, 0.0)])
        widths = [hi - lo for lo, hi in ivs]
        assert all(w < 1e-9 for w in widths)
        assert ivs  # the shared boundary directions survive

    def test_matches_dense_sampling(self, rng):
        for _ in range(25):
            pq = [tuple(v) for v in rng.standard_normal((4, 2))]
            ivs = _intersect_half_circles(pq)
            ts = np.linspace(0.0, 2 * np.pi, 2000, endpoint=False)
            ok = np.ones_like(ts, dtype=bool)
            for p, q in pq:
                ok &= p * np.cos(ts) + q * np.sin(ts) >= -1e-9
            sampled = bool(ok.any())
            exact = any(hi - lo > 1e-6 for lo, hi in ivs)
            assert sampled == exact
