from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from framescale import (
    codim2_scaling,
    cofactor_scaling,
    decide,
    hull_certificate_check,
    intersection_scalability,
    make_frame,
    quick_sign_reject,
)
from framescale.cli import _generate_document
from framescale.frame_core import apply_scaling, is_tight
from framescale.framedoc import frame_from_document
from framescale.diagram import reduced_diagram_matrix, reduced_size, unit_diagram_matrix
from framescale.errors import (
    CorankMismatchError,
    DimensionMismatchError,
    InternalNumericError,
    NotSpanningError,
    ZeroVectorError,
)
from framescale import diagram, numerics, scalability
from framescale.numerics import RESIDUAL_TOL, STRICT_MARGIN, ZERO_TOL
from framescale.scalability import (
    ALL_NONNEG,
    ALL_NONPOS,
    METHOD_FEASIBILITY,
    MIXED,
    NOT_SCALABLE,
    SCALABLE,
    STRICTLY_SCALABLE,
    _feasible_arc,
    _finish_scalable,
    cofactor_vector,
    decide_scalable,
    independent_rows,
    theta_kernel,
)
from conftest import angles_frame, random_scalable_frame, random_unit_frame
from paper_reference import cofactor_pencil


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
        r = decide(F)
        assert r.verdict == STRICTLY_SCALABLE
        assert np.allclose(r.weights_c, [1 / 3] * 3, atol=1e-8)
        assert r.near_zero == []

    def test_weights_produce_tight_frame(self):
        F = angles_frame(0.0, np.pi / 3, 2 * np.pi / 3)
        r = decide(F)
        assert r.scalable
        assert is_tight(apply_scaling(F, r.scalars_a)).tight

    def test_first_quadrant_frame_rejected_with_certificate(self):
        F = make_frame([[1.0, 0.1], [0.9, 0.5], [0.5, 1.0]])
        r = decide(F)
        assert r.verdict == NOT_SCALABLE
        assert hull_certificate_check(F, r.certificate_y)

    def test_scalable_only_with_zero_weight(self):
        # third vector needs weight zero: scalable but not strictly
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
        r = decide(F)
        assert r.verdict == SCALABLE
        assert 2 in r.near_zero
        assert np.allclose(r.weights_c, [0.5, 0.5, 0.0], atol=1e-8)

    def test_duplicated_vector_splits_weight(self):
        F = make_frame([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        r = decide(F)
        assert r.scalable
        c = r.weights_c
        # total weight on the duplicated direction must equal the e2 weight
        assert c[0] + c[1] == pytest.approx(c[2], abs=1e-8)

    def test_weights_sum_to_one(self, rng):
        for _ in range(10):
            F = random_unit_frame(rng, 2, 5)
            r = decide(F)
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
        assert decide(F).scalable == doubled_angle_gap_oracle(F)


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
        assert decide(F).scalable


class TestHullCertificate:
    def test_valid_certificate(self):
        F = angles_frame(0.1, 0.3, 0.5)
        r = decide(F)
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
            assert by_cofactor.scalable == decide(F).scalable

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


@st.composite
def integer_corank_frames(draw):
    """m x n integer matrices with entries in {-2..2}, n in {2, 3} and
    m = d + 1 or d + 2 for the reduced row count d: rows are the vectors."""
    n = draw(st.sampled_from([2, 3]))
    m = reduced_size(n) + draw(st.sampled_from([1, 2]))
    entries = draw(st.lists(st.integers(-2, 2), min_size=n * m, max_size=n * m))
    return np.array(entries, dtype=float).reshape(m, n)


class TestCrossRouteAgreement:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(V=integer_corank_frames())
    @example(V=np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0]]))
    def test_route_matches_strict_lp_on_integer_frames(self, V):
        # exact ties give half-circles that meet in one direction, t = 0 for
        # the explicit example; about 3% of the drawn corank-2 frames in R^2
        # are of that kind, so 100 draws alone may miss them.  The route for
        # the measured corank must answer as the strict LP does.
        try:
            F = make_frame(V)
        except (NotSpanningError, ZeroVectorError):
            F = None
        corank = 0 if F is None else theta_kernel(F).shape[1]
        assume(corank in (1, 2))
        r = cofactor_scaling(F)[1] if corank == 1 else codim2_scaling(F)
        assert r.verdict == decide(F).verdict

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
            assert r.verdict == decide(F).verdict
            assert r.verdict == intersection_scalability(F).verdict
            if r.scalable:
                assert is_tight(apply_scaling(F, r.scalars_a)).tight
            for s in (-1e-5, 1e4, 1e5):
                d = np.ones(F.m)
                d[i % F.m] = s
                G = make_frame(F.synthesis.T * d[:, None])
                answers = [route(G), decide(G),
                           intersection_scalability(G)]
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
        for r in (cofactor_scaling(G)[1], decide(G),
                  intersection_scalability(G)):
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


@st.composite
def scaled_corank_frames(draw):
    """``integer_corank_frames`` with each vector times a signed 10^U(-4, 4),
    and up to two vectors replaced by a near-duplicate of another, off by
    1e-7 of its norm."""
    V = draw(integer_corank_frames())
    m, n = V.shape
    powers = draw(st.lists(st.floats(-4.0, 4.0), min_size=m, max_size=m))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    V = V * (np.array(signs) * 10.0 ** np.array(powers))[:, None]
    for _ in range(draw(st.integers(0, 2))):
        dst, src = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        V[dst] = V[src] + 1e-7 * np.linalg.norm(V[src]) * np.array(noise)
    return V


def _no_lp(*args, **kwargs):
    raise AssertionError("a kernel route solved an LP")


class TestClosedFormCertificates:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(V=scaled_corank_frames())
    @example(V=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]))
    @example(V=np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0]]))
    @example(V=np.array([[6985.966358808761, 13971.932717617521],
                         [0.0010855038974176407, -0.0005427519487088203],
                         [0.0010855038314008499, -0.0005427519487088203]]))
    @example(V=np.array([[0.0, -2.0, -1.0], [2.0, 0.0, -2.0], [2.0, -2.0, 1.0],
                         [-2.0, 2.0, -1.0], [2.0, 1.0, 1.0], [-1.0, 2.0, 0.0],
                         [2.0, 2.0, 0.0]]))
    @example(V=np.array([[0.0, 0.0, -1.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0],
                         [0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [-1.0, -1.0, -1.0],
                         [0.0, 1e-7, -1.0]]))
    def test_kernel_routes_certify_without_an_lp(self, V):
        # the explicit examples: corank 1 in one open quadrant (not
        # scalable); corank 2 with one feasible direction (scalable);
        # corank 2, not scalable, where -sum u_i lies on the ray of two
        # parallel kernel rows, which bracket it only to within rounding; and
        # two near-duplicate frames, corank 1 and 2, whose unit theta has a
        # smallest nonzero singular value 5e-9 and 8e-8 of the largest, so
        # that kernel entries of about 1e-9 are rounding noise and must not
        # decide a sign or an angle (both scalable, with zero weights).  A "not scalable" answer
        # of the cofactor or codim-2 route carries a certificate read off
        # the SVD of theta, with no LP, and every answer agrees with the
        # strict LP
        try:
            F = make_frame(V)
        except (NotSpanningError, ZeroVectorError):
            F = None
        corank = 0 if F is None else theta_kernel(F).shape[1]
        assume(corank in (1, 2))
        with mock.patch.object(numerics, "solve_feasibility", _no_lp):
            r = cofactor_scaling(F)[1] if corank == 1 else codim2_scaling(F)
        if not r.scalable:
            assert hull_certificate_check(F, r.certificate_y)
        assert r.verdict == decide_scalable(F).verdict

    @pytest.mark.parametrize("route", ["cofactor", "codim2"])
    def test_failed_certificate_raises(self, monkeypatch, route):
        # a closed-form certificate that fails the hull check is a numeric
        # fault of the route, with no LP to fall back on
        V = [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]
        if route == "codim2":
            V.append([2.0, 1.0])
        F = make_frame(V)
        monkeypatch.setattr(scalability, "hull_certificate_check", lambda G, y: False)
        monkeypatch.setattr(numerics, "solve_feasibility", _no_lp)
        with pytest.raises(InternalNumericError, match=route):
            cofactor_scaling(F) if route == "cofactor" else codim2_scaling(F)

    def test_full_rank_near_duplicate_goes_to_the_solver(self):
        # with (-2, 0, 0) last, theta has corank 1 and the frame is scalable
        # with weight 0 on the first vector; moved off that axis by 3.4e-8,
        # the unit theta (5 x 5) has full rank, its smallest singular value
        # about 1.6e-8.  The split of 1 answers neither way, no kernel route
        # takes corank 0, and the hull solver certifies
        F = make_frame([[1.0, -1.0, 1.0], [0.0, 0.0, -1.0], [0.0, -2.0, 1.0],
                        [0.0, -2.0, -2.0],
                        [-1.9999999956012144, 3.7091268256516767e-09, 3.3942449298430626e-08]])
        assert numerics.rank(unit_diagram_matrix(F).data) == F.m
        r = decide(F)
        assert (r.verdict, r.method) == (NOT_SCALABLE, METHOD_FEASIBILITY)
        assert hull_certificate_check(F, r.certificate_y)
        assert not decide(F).scalable


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
        t, width = _feasible_arc(np.array([1.0]), np.array([0.0]))
        assert width == pytest.approx(np.pi, abs=1e-12)
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_opposite_constraints_leave_boundary(self):
        arc = _feasible_arc(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        assert arc is not None  # the shared boundary directions survive
        t, width = arc
        assert abs(width) < 1e-9
        assert abs(np.cos(t)) < 1e-9

    def test_matches_dense_sampling(self, rng):
        for _ in range(25):
            p, q = rng.standard_normal((4, 2)).T
            arc = _feasible_arc(p, q)
            ts = np.linspace(0.0, 2 * np.pi, 2000, endpoint=False)
            ok = np.ones_like(ts, dtype=bool)
            for pi, qi in zip(p, q):
                ok &= pi * np.cos(ts) + qi * np.sin(ts) >= -1e-9
            sampled = bool(ok.any())
            exact = arc is not None and arc[1] > 1e-6
            assert sampled == exact
            if exact:
                t = arc[0]
                assert (p * np.cos(t) + q * np.sin(t)).min() >= 0.0

    def test_only_direction_on_branch_cut(self):
        # the kernel of (0,1), (1,1), (0,1), (-1,1): the half-circles of the
        # normals at -pi/2 and pi/2 are [pi, 2 pi] and [0, pi], which meet
        # only at t = 0 = 2 pi, the cut of the interval [0, 2 pi]
        r = np.sqrt(0.5)
        p = np.array([0.0, r, 0.0, r])
        q = np.array([-r, 0.0, r, 0.0])
        arc = _feasible_arc(p, q)
        assert arc is not None
        t, width = arc
        assert abs(width) < 1e-12
        assert abs(np.sin(t)) < 1e-12 and np.cos(t) > 0
        assert codim2_scaling(make_frame([[0, 1], [1, 1], [0, 1], [-1, 1]])).scalable


@st.composite
def integer_frames(draw):
    """m x n integer matrices with entries in {-2..2}, n in {2, 3, 4} and
    n <= m <= d + 2 for the reduced row count d: rows are the vectors."""
    n = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(n, reduced_size(n) + 2))
    entries = draw(st.lists(st.integers(-2, 2), min_size=n * m, max_size=n * m))
    return np.array(entries, dtype=float).reshape(m, n)


class TestAnswerRule:
    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_weight_recheck_is_relative(self, s):
        # _finish_scalable takes unit-column weights: the Mercedes-Benz
        # vectors have equal norms, so equal unit-column weights are equal
        # weights c, which make the frame tight at every scale; weight on
        # one vector alone never does
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        F = make_frame(s * F.synthesis.T)
        equal = _finish_scalable(F, np.full(3, 1 / 3), METHOD_FEASIBILITY)
        assert equal.verdict == STRICTLY_SCALABLE
        with pytest.raises(InternalNumericError):
            _finish_scalable(F, np.array([1.0, 0.0, 0.0]), METHOD_FEASIBILITY)

    def test_plain_hull_answer_on_the_mercedes_benz_frame_is_strict(self):
        # no weight of the equal-norm triple is near 0, so the one rule calls
        # it strict
        F = frame_from_document(_generate_document("mb", 2, 3, 0))
        assert decide(F).verdict == STRICTLY_SCALABLE

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(V=integer_frames())
    def test_every_route_reads_strictness_off_its_weights(self, V):
        # every scalable answer is strict exactly when its smallest
        # unit-column weight exceeds STRICT_MARGIN of their sum, and its
        # weights pass the kernel identity relative to the row sums
        try:
            F = make_frame(V)
        except (NotSpanningError, ZeroVectorError):
            F = None
        assume(F is not None)
        answers = [decide(F), intersection_scalability(F)]
        corank = theta_kernel(F).shape[1]
        if corank == 1:
            answers.append(cofactor_scaling(F)[1])
        elif corank == 2:
            answers.append(codim2_scaling(F))
        theta = reduced_diagram_matrix(F)
        for r in answers:
            if not r.scalable:
                continue
            c = r.weights_c
            unit = np.linalg.norm(theta, axis=0) * c
            assert (r.verdict == STRICTLY_SCALABLE) == (unit.min() > STRICT_MARGIN * unit.sum())
            assert np.abs(theta @ c).max() <= RESIDUAL_TOL * (np.abs(theta) @ c).max()
