import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from framescale import make_frame, numerics
from framescale.diagram import unit_diagram_matrix
from framescale.errors import DimensionMismatchError, InternalNumericError, NonFiniteError
from conftest import NEAR_PARALLEL_FRAME, tiny_row_frame


def unit_columns(A):
    A = np.asarray(A, dtype=float)
    return A / numerics.column_norms(A)


def solve(A, strict=False):
    """``solve_feasibility`` on the homogeneous problem A x = 0, asked of
    A's unit columns, as the solver requires: the pair (y, None) of a
    certificate or (None, w) of unit-column weights."""
    P = unit_columns(A)
    return numerics.solve_feasibility(numerics.FeasibilityProblem(
        A=P, b=np.zeros(P.shape[0]), require_strict=strict))


def assert_answer_checks(A, y, w, strict=False):
    """Exactly one of the pair is set.  A witness is unit-column weights
    w >= 0 that pass the kernel identity, so that w / ||A_j|| is a kernel
    vector of A, and sum to 1 unless ``strict`` found it of full support,
    which leaves it positive everywhere; a certificate y has y.A_j > 0 for
    every column."""
    assert (y is None) != (w is None)
    if w is not None:
        assert w.min() >= 0.0
        if not (strict and w.min() > 0.0):
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert numerics.kernel_identity(unit_columns(A), w)
    else:
        assert float((y @ np.asarray(A, dtype=float)).min()) > 0.0


class TestRankNullspace:
    def test_rank_matches_numpy(self, rng):
        for _ in range(20):
            k = rng.integers(1, 5)
            A = rng.standard_normal((4, k)) @ rng.standard_normal((k, 5))
            assert numerics.rank(A) == np.linalg.matrix_rank(A)

    def test_rank_zero_matrix(self):
        assert numerics.rank(np.zeros((3, 3))) == 0

    def test_singular_values_match(self, rng):
        A = rng.standard_normal((3, 6))
        s = numerics.singular_values(A)
        assert np.allclose(np.sort(s)[::-1], np.linalg.svd(A, compute_uv=False),
                           atol=1e-10)

    def test_nullspace_is_kernel(self, rng):
        # the rows of V^T past the rank span the kernel
        A = rng.standard_normal((2, 5))
        _, s, Vt = numerics.svd(A)
        N = Vt[numerics.rank_of(s):].T
        assert N.shape == (5, 3)
        assert np.abs(A @ N).max() < 1e-9
        assert np.allclose(N.T @ N, np.eye(3), atol=1e-10)

    def test_nullspace_full_rank_empty(self, rng):
        A = rng.standard_normal((5, 3))
        _, s, Vt = numerics.svd(A)
        assert Vt[numerics.rank_of(s):].T.shape == (3, 0)

    def test_svd_factors_and_pseudoinverse(self, rng):
        # U_r S_r^{-1} V_r^T solves A^T y = p for p in the row space of A
        A = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))
        U, s, Vt = numerics.svd(A)
        assert U.shape == (3, 3) and Vt.shape == (5, 5)
        assert np.allclose((U[:, :3] * s) @ Vt[:3], A, atol=1e-12)
        r = numerics.rank_of(s)
        assert r == 2
        p = A.T @ rng.standard_normal(3)
        y = U[:, :r] @ ((Vt[:r] @ p) / s[:r])
        assert np.allclose(A.T @ y, p, atol=1e-10)

    def test_svd_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            numerics.svd(np.array([[1.0, np.nan]]))


class TestLinearProgram:
    """The hull question is the linear program x >= 0, sum x = 1, A x = 0;
    its small cases, each with the answer that it forces."""

    def test_simple_optimum(self):
        # one kernel direction, (2, 1, 1) up to scale: the only feasible
        # point, strict, in unit-column weights
        A = np.array([[1.0, -1.0, -1.0], [0.0, 1.0, -1.0]])
        y, w = solve(A, strict=True)
        assert_answer_checks(A, y, w, strict=True)
        c = w / numerics.column_norms(A)
        assert np.allclose(c / c.sum(), [0.5, 0.25, 0.25], atol=1e-12)

    def test_degenerate_vertex(self):
        # a repeated row is redundant, and a repeated column gives the kernel
        # a second direction: the strict witness keeps all four positive
        A = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        y, w = solve(A, strict=True)
        assert_answer_checks(A, y, w, strict=True)
        assert w.min() > numerics.STRICT_MARGIN

    def test_infeasible_farkas(self):
        # x1 + x2 = 0 has no nonnegative solution of sum 1: y = 1
        # separates
        A = np.array([[1.0, 1.0]])
        for strict in (False, True):
            y, w = solve(A, strict)
            assert w is None
            assert float((y @ A).min()) > 0.0

    def test_farkas_on_random_infeasible(self, rng):
        # columns in an open half-space, turned by a random rotation
        for _ in range(10):
            A = rng.standard_normal((3, 6))
            A[0] = np.abs(A[0]) + 0.05
            A = np.linalg.qr(rng.standard_normal((3, 3)))[0] @ A
            y, w = solve(A)
            assert_answer_checks(A, y, w)
            assert w is None


class TestSolveFeasibility:
    def test_homogeneous_witness_normalized(self):
        A = np.array([[1.0, -1.0, 0.0]])
        y, w = solve(A)
        assert y is None
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(A @ w).max() < 1e-9

    def test_homogeneous_certificate_strictly_separates(self):
        # columns strictly inside a half-space: kernel meets the positive
        # orthant only at zero
        A = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, -0.2]])
        y, w = solve(A)
        assert w is None
        assert float((y @ A).min()) > 0.0

    def test_nonzero_b_raises(self):
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError, match="homogeneous"):
            numerics.solve_feasibility(numerics.FeasibilityProblem(A=A, b=np.array([2.0, 0.0])))
        with pytest.raises(DimensionMismatchError):
            numerics.solve_feasibility(numerics.FeasibilityProblem(A=A, b=np.zeros(3)))

    def test_strict_success(self):
        A = np.array([[1.0, -1.0]])
        y, w = solve(A, strict=True)
        assert y is None
        assert w.min() > 1e-9

    def test_strict_failure_keeps_margin(self):
        # x_3 = 0 in every kernel vector: a witness, but no strict margin,
        # and the forced zero is exactly 0
        A = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        y, w = solve(A, strict=True)
        assert_answer_checks(A, y, w, strict=True)
        assert w[2] == 0.0
        assert np.allclose(w, [0.5, 0.5, 0.0], atol=1e-12)

    def test_no_rows(self):
        # every x >= 0 is a kernel vector of a matrix without rows
        A = np.zeros((0, 3))
        assert solve(A)[1] is not None
        assert solve(A, strict=True)[1].min() > numerics.STRICT_MARGIN

    def test_zero_column_is_a_witness(self):
        A = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, -1.0]])
        y, w = solve(A)
        assert y is None and w[1] == 1.0

    def test_support_rounds_find_the_forced_zero_set(self):
        # columns 0..3 balance in pairs, 4 and 5 only with each other, and
        # 6 with nothing: only 6 is forced to 0, and every plain witness
        # that Wolfe's corral gives has a smaller support
        A = np.array([[1.0, -1.0, 0.0, 0.0, 1.0, -1.0, 1.0],
                      [0.0, 0.0, 1.0, -1.0, 1.0, -1.0, 1.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
        y, w = solve(A, strict=True)
        assert_answer_checks(A, y, w, strict=True)
        assert np.flatnonzero(w <= numerics.STRICT_MARGIN).tolist() == [6]


class TestNearestPoint:
    def test_segment(self):
        # the nearest point of the segment from (1, 1) to (1, -1) is (1, 0)
        x, w = numerics.nearest_point(np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert np.allclose(x, [1.0, 0.0], atol=1e-15)
        assert np.allclose(w, [0.5, 0.5], atol=1e-15)

    def test_stops_at_a_separating_point(self):
        # (1, 1) already has a positive inner product with (1, 0): no
        # nearer point is needed for the certificate
        x, w = numerics.nearest_point(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert x.tolist() == [1.0, 1.0] and w.tolist() == [1.0, 0.0]

    def test_separates_or_reaches_zero(self, rng):
        # x = P w with w >= 0, sum 1, and x is 0 to within the kernel
        # identity or separates: P_j^T x > ZERO_TOL ||x|| for every column
        seen = set()
        for _ in range(40):
            P = unit_columns(rng.standard_normal((4, 9)) + rng.uniform(0.0, 1.0))
            x, w = numerics.nearest_point(P)
            assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(P @ w, x, atol=1e-14)
            at_zero = numerics.kernel_identity(P, w)
            if not at_zero:
                assert float((x @ P).min()) > numerics.ZERO_TOL * float(np.linalg.norm(x))
            seen.add(at_zero)
        assert seen == {True, False}


class TestHullCertificates:
    """Each certificate candidate of ``_hull`` answers a frame of its own,
    where the split of 1 does not: Wolfe's point x, the exact facet point of
    its corral, and that point with its entries at most ZERO_TOL set to 0."""

    @staticmethod
    def _unit_theta(vectors):
        return unit_diagram_matrix(make_frame(vectors)).data

    @pytest.mark.parametrize("vectors, first", [
        (tiny_row_frame(2, 1e-8), 0),
        (NEAR_PARALLEL_FRAME, 1),
        (tiny_row_frame(3, 1e-10), 2),
    ], ids=["wolfe-point", "facet-point", "zeroed-facet-point"])
    def test_each_candidate_answers_a_frame(self, vectors, first):
        P = self._unit_theta(vectors)
        assert numerics.split_of_one(P) == (None, None)
        x, w = numerics.nearest_point(P)
        facet = numerics._facet_point(P, w)
        candidates = [x, facet, np.where(np.abs(facet) <= numerics.ZERO_TOL, 0.0, facet)]
        clears = [numerics._clears(P, y) for y in candidates]
        assert clears.index(True) == first
        y, witness = numerics._hull(P)
        assert witness is None and np.array_equal(y, candidates[first])

    def test_facet_point_waits_for_wolfe_point(self, monkeypatch):
        def forbidden(P, w):
            raise AssertionError("Wolfe's point clears")

        monkeypatch.setattr(numerics, "_facet_point", forbidden)
        P = self._unit_theta(tiny_row_frame(2, 1e-8))
        y, _ = numerics._hull(P)
        assert np.array_equal(y, numerics.nearest_point(P)[0])

    def test_last_resort_is_a_positive_wolfe_point(self, monkeypatch):
        # no candidate clears ZERO_TOL and Wolfe's weights fail the kernel
        # identity: Wolfe's point x answers when every P_j^T x > 0, else the
        # solver answers neither way
        A = np.array([[1e-13, 2e-13, 3e-13], [1.0, -1.0, 1.0]])
        x = np.array([1.0, 0.0])
        monkeypatch.setattr(numerics, "split_of_one", lambda P: (None, None))
        monkeypatch.setattr(numerics, "nearest_point", lambda P: (x, np.array([1.0, 0.0, 0.0])))
        monkeypatch.setattr(numerics, "_facet_point", lambda P, w: x.copy())
        assert not numerics._clears(unit_columns(A), x)
        assert solve(A)[0] is x
        x *= -1.0
        with pytest.raises(InternalNumericError, match="nearest point passes neither"):
            solve(A)


class TestSplitRounds:
    def test_rounds_drop_the_forced_columns(self):
        # the kernel part of 1 is (1, 1, 0): not strictly positive, so the
        # first split answers neither way; its rounds drop column 2 and find
        # the kernel vector (1, 1) on the rest
        B = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        y, w = numerics.split_of_one(B)
        assert y is None
        assert w[2] == 0.0 and w[0] == pytest.approx(w[1]) and w[0] > 0.0


# -- against HiGHS -------------------------------------------------------------


@st.composite
def hull_problems(draw):
    """Homogeneous problems A, k x m: Gaussian or integer entries, half of
    them with a kernel vector planted on a random support (its last column
    balances the others), and exact and near-duplicate columns appended, so
    that infeasible, strict and forced-zero answers all occur."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 5))
    m = draw(st.integers(2, 2 * k + 4))
    if draw(st.booleans()):
        A = rng.standard_normal((k, m))
    else:
        A = rng.integers(-3, 4, (k, m)).astype(float)
    if draw(st.booleans()):
        support = np.flatnonzero(rng.random(m) < 0.6)
        if support.size >= 2:
            c = rng.uniform(0.2, 1.0, support.size)
            A[:, support[-1]] = -(A[:, support[:-1]] @ c[:-1]) / c[-1]
    copies = rng.integers(0, m, draw(st.integers(0, 3)))
    noise = draw(st.sampled_from([0.0, 1e-7, 1e-4]))
    near = A[:, copies] + noise * rng.standard_normal((k, copies.size))
    return np.hstack([A, near])


def _highs_gordan_margin(linprog, P):
    """max t with P^T y >= t and |y_i| <= 1: 0 when some x >= 0, sum 1,
    has P x = 0, and positive otherwise (Gordan's alternative)."""
    k, m = P.shape
    res = linprog(np.append(-1.0, np.zeros(k)),
                  A_ub=np.hstack([np.ones((m, 1)), -P.T]), b_ub=np.zeros(m),
                  bounds=[(None, 1.0)] + [(-1.0, 1.0)] * k, method="highs")
    assert res.status == 0
    return -res.fun


def _highs_entry_maxima(linprog, P):
    """max x_j over x >= 0, sum 1, P x = 0, for each j in turn, and whether
    the x that attains it passes the kernel identity (HiGHS meets P x = 0
    only to its own feasibility tolerance)."""
    k, m = P.shape
    A_eq = np.vstack([P, np.ones(m)])
    b_eq = np.append(np.zeros(k), 1.0)
    top, exact = [], []
    for j in range(m):
        res = linprog(-np.eye(m)[j], A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * m,
                      method="highs")
        assert res.status == 0
        top.append(-res.fun)
        exact.append(numerics.kernel_identity(P, np.maximum(res.x, 0.0)))
    return np.array(top), np.array(exact)


def _highs_forced_margins(linprog, P):
    """For each j in turn, max P_j^T y over P^T y >= 0 and |y_i| <= 1:
    positive exactly when x_j = 0 in every x >= 0 with P x = 0
    (Goldman-Tucker).  A y that HiGHS leaves below 0 on some column by more
    than rounding proves nothing, and its margin reads 0."""
    k, m = P.shape
    out = []
    for j in range(m):
        res = linprog(-P[:, j], A_ub=-P.T, b_ub=np.zeros(m), bounds=[(-1.0, 1.0)] * k,
                      method="highs")
        assert res.status == 0
        valid = float((res.x @ P).min()) >= -numerics.ZERO_TOL
        out.append(-res.fun if valid else 0.0)
    return np.array(out)


CLEAR = 1e-5    # a HiGHS margin or maximum at least this is clearly positive
ZERO = 1e-10    # and one at most this clearly 0


class TestHighsOracle:
    """solve_feasibility against scipy's HiGHS on drawn homogeneous
    problems: the same verdict where HiGHS's answer is clear, and with
    ``require_strict`` the same forced-zero set, which HiGHS finds by
    maximizing each entry in turn.  An entry is clearly free when its
    maximum is at least CLEAR at an x that passes the kernel identity, and
    clearly forced when its Goldman-Tucker margin is at least CLEAR; near
    duplicates 1e-7 apart leave some entries neither, and those draws are
    not judged."""

    @settings(derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(A=hull_problems(), strict=st.booleans())
    def test_agrees_with_highs(self, A, strict):
        linprog = pytest.importorskip("scipy.optimize").linprog
        y, w = solve(A, strict)
        assert_answer_checks(A, y, w, strict)
        P = unit_columns(A)
        margin = _highs_gordan_margin(linprog, P)
        assume(margin >= CLEAR or margin <= ZERO)
        assert (w is not None) == (margin <= ZERO)
        if strict and w is not None:
            top, exact = _highs_entry_maxima(linprog, P)
            free = (top >= CLEAR) & exact
            forced = _highs_forced_margins(linprog, P) >= CLEAR
            assume((free | forced).all())
            forced = np.flatnonzero(forced).tolist()
            assert np.flatnonzero(w <= numerics.STRICT_MARGIN).tolist() == forced
