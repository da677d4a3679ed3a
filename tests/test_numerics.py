import numpy as np
import pytest

from framescale import numerics
from framescale.errors import InternalNumericError, IterationLimitError, NonFiniteError
from paper_reference import linear_program


# The simplex kernel as it was before the in-place rank-1 pivot, with its
# constants written out: the reference that the kernel must match bit for
# bit, pivot for pivot.  A pivot log and the stall count as a parameter are
# added; the input checks are left out.  Its ratio test has since taken
# Harris's tolerances: ratios on max(rhs, 0), and after a pivot of positive
# step (the entering variable's new value), rhs drift in
# [-(1e-9 step + 1e-12), 0) set to 0; and a leftover artificial is set to 0
# before it is driven out of the basis.  Its tableau has since taken the
# layout that serves the plain and the strict question with one phase 1:
# the columns A, delta = A 1, the cap slack, the artificials and the rhs,
# and the rows A's, the cap row and the cost row.

def reference_pivot(T, basis, row, col, log):
    log.append((int(row), int(col)))
    T[row] = T[row] / T[row, col]
    piv = T[row].copy()
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, piv)
    T[row] = piv
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def reference_simplex_loop(T, basis, n_enterable, cap, stall, log):
    k = T.shape[0] - 1
    stalled = 0
    for _ in range(cap):
        rc = T[-1, :n_enterable]
        bland = stalled >= stall
        col = int(np.argmax(rc < -1e-9)) if bland else int(np.argmin(rc))
        if rc[col] >= -1e-9:
            return
        a = T[:k, col]
        rows = np.flatnonzero(a > 1e-9)
        if rows.size == 0:
            raise InternalNumericError("simplex column has no leaving row")
        ratios = np.maximum(T[rows, -1], 0.0) / a[rows]
        step = float(ratios.min())
        ties = rows[ratios <= step + 1e-12]
        row = ties[np.argmin(basis[ties])] if bland else ties[np.argmax(a[ties])]
        stalled = stalled + 1 if step <= 1e-12 else 0
        reference_pivot(T, basis, row, col, log)
        taken = T[row, -1]
        if taken > 0.0:
            rhs = T[:k, -1]
            rhs[(rhs < 0.0) & (rhs >= -(1e-9 * taken + 1e-12))] = 0.0
    raise IterationLimitError("simplex iteration cap exceeded")


def reference_linear_program(A, b, strict=False, stall=50, log=None):
    log = [] if log is None else log
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    k, nv = A.shape
    cap = 50 * (k + nv + k)
    top = 1.0 + float(np.abs(b).max(initial=0.0))

    row_sign = np.where(b < 0, -1.0, 1.0)
    A1 = A * row_sign[:, None]
    b1 = b * row_sign

    delta, slack, art = nv, nv + 1, nv + 2
    T = np.zeros((k + 2, nv + 2 + k + 1))
    T[:k, :nv] = A1
    T[:k, delta] = A1.sum(axis=1)
    T[:k, art:art + k] = np.eye(k)
    T[:k, -1] = b1
    T[k, delta] = 1.0
    T[k, slack] = 1.0
    T[k, -1] = top
    T[k + 1, :nv] = -A1.sum(axis=0)
    T[k + 1, -1] = -b1.sum()
    basis = np.array(list(range(art, art + k)) + [slack])

    reference_simplex_loop(T, basis, nv, cap, stall, log)
    p1_obj = -T[-1, -1]
    if p1_obj > 1e-9 * top:
        pi = 1.0 - T[-1, art:art + k]
        return numerics.LPResult(status="infeasible", dual=row_sign * pi)

    for i in np.flatnonzero(basis >= art):
        cols = np.flatnonzero(np.abs(T[i, :nv]) > 1e-9)
        if cols.size:
            T[i, -1] = 0.0
            reference_pivot(T, basis, i, cols[0], log)

    if strict:
        T[-1, :] = 0.0
        T[-1, delta] = -1.0
        reference_simplex_loop(T, basis, art, cap, stall, log)

    values = np.zeros(art)
    basic = basis < art
    values[basis[basic]] = T[:k + 1, -1][basic]
    x = values[:nv] + values[delta] if strict else values[:nv]
    return numerics.LPResult(status="optimal", x=x)


def assert_bitwise_equal(res, ref):
    assert res.status == ref.status
    for got, want in ((res.x, ref.x), (res.dual, ref.dual)):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def witness_margin(A, b, x):
    """The margin that the strict LP maximizes, read off its witness: the
    minimum unit-column entry, relative to their sum when b = 0."""
    unit = x * numerics.column_norms(np.asarray(A, dtype=float))
    return float(unit.min() if np.any(b) else unit.min() / unit.sum())


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
    def test_simple_optimum(self):
        # x1 + 2 x2 = 4, 3 x1 + 2 x2 = 6 has the one point (1, 1.5), so it is
        # the strict witness too
        res = linear_program([[1.0, 2.0], [3.0, 2.0]], [4.0, 6.0], strict=True)
        assert res.status == "optimal"
        assert np.allclose(res.x, [1.0, 1.5], atol=1e-9)

    def test_degenerate_vertex(self):
        # a redundant row keeps its artificial basic after phase 1; the
        # strict phase 2 must pivot around it to the centre (0.5, 0.5)
        res = linear_program([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], strict=True)
        assert res.status == "optimal"
        assert np.allclose(res.x, [0.5, 0.5], atol=1e-9)

    def test_unbounded(self):
        # x1 - x2 = 0 with x1 basic, minimizing -x2: x2 enters with no
        # leaving row, a ray, which the kernel's bounded LPs never have
        T = np.array([[1.0, -1.0, 0.0], [0.0, -1.0, 0.0]])
        with pytest.raises(InternalNumericError, match="no leaving row"):
            numerics._simplex_loop(T, np.array([0]), 2, 10)

    def test_infeasible_farkas(self):
        # x1 + x2 = -1 has no nonnegative solution
        A = np.array([[1.0, 1.0]])
        b = np.array([-1.0])
        res = linear_program(A, b)
        assert res.status == "infeasible"
        y = res.dual
        assert float(y @ b) > 1e-9
        assert float((y @ A).max()) <= 1e-9

    def test_farkas_on_random_infeasible(self, rng):
        for _ in range(10):
            A = np.abs(rng.standard_normal((3, 4)))
            b = -np.abs(rng.standard_normal(3)) - 0.1
            res = linear_program(A, b)
            assert res.status == "infeasible"
            y = res.dual
            assert float(y @ b) > 0
            assert float((y @ A).max()) <= 1e-8


class TestSolveFeasibility:
    def test_homogeneous_witness_normalized(self):
        A = np.array([[1.0, -1.0, 0.0]])
        out = numerics.solve_feasibility(
            numerics.FeasibilityProblem(A=A, b=np.zeros(1))
        )
        assert out.feasible
        assert out.witness.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(A @ out.witness).max() < 1e-9

    def test_homogeneous_certificate_strictly_separates(self):
        # columns strictly inside a half-space: kernel meets the positive
        # orthant only at zero
        A = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, -0.2]])
        out = numerics.solve_feasibility(
            numerics.FeasibilityProblem(A=A, b=np.zeros(2))
        )
        assert not out.feasible
        assert float((out.certificate @ A).min()) > 0.0

    def test_inhomogeneous_witness(self):
        A = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([2.0, 0.0])
        out = numerics.solve_feasibility(numerics.FeasibilityProblem(A=A, b=b))
        assert out.feasible
        assert np.allclose(out.witness, [1.0, 1.0], atol=1e-9)

    def test_strict_success(self):
        A = np.array([[1.0, -1.0]])
        out = numerics.solve_feasibility(
            numerics.FeasibilityProblem(A=A, b=np.zeros(1), require_strict=True)
        )
        assert out.feasible
        assert witness_margin(A, np.zeros(1), out.witness) > 1e-9
        assert out.witness.min() > 1e-9

    def test_strict_failure_keeps_margin(self):
        # feasible only with x2 = 0: a witness, but no strict margin
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 0.0])
        out = numerics.solve_feasibility(
            numerics.FeasibilityProblem(A=A, b=b, require_strict=True)
        )
        assert out.feasible
        assert out.certificate is None
        assert out.witness.min() >= 0.0
        assert np.abs(A @ out.witness - b).max() <= 1e-12
        assert witness_margin(A, b, out.witness) <= 1e-9


class TestHighsOracle:
    """solve_feasibility against scipy's HiGHS on random small systems."""

    @staticmethod
    def _random_system(rng, homogeneous):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(k + 1, 3 * k + 4))
        A = rng.standard_normal((k, m))
        if homogeneous:
            b = np.zeros(k)
        elif rng.random() < 0.6:
            b = A @ (rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.7))
        else:
            b = rng.standard_normal(k)
        if rng.random() < 0.3:  # x_m = 0 on every solution: feasible at best, never strict
            A = np.vstack([A, np.eye(m)[-1]])
            b = np.append(b, 0.0)
        return A, b

    @staticmethod
    def _highs_margin(linprog, A, b):
        """None when A x = b (plus sum x = 1 if b = 0) has no x >= 0, else
        max delta <= 1 + max|b| with x >= delta, as framescale's strict LP."""
        k, m = A.shape
        if not b.any():
            A, b = np.vstack([A, np.ones(m)]), np.append(b, 1.0)
        cap = 1.0 + float(np.abs(b).max())
        res = linprog(np.append(-1.0, np.zeros(m)),
                      A_ub=np.hstack([np.ones((m, 1)), -np.eye(m)]), b_ub=np.zeros(m),
                      A_eq=np.hstack([np.zeros((len(b), 1)), A]), b_eq=b,
                      bounds=[(0.0, cap)] + [(0.0, None)] * m, method="highs")
        assert res.status in (0, 2)
        return None if res.status == 2 else -res.fun

    def test_agrees_with_highs(self, rng):
        linprog = pytest.importorskip("scipy.optimize").linprog
        decided = {(hom, strict, feasible): 0 for hom in (True, False)
                   for strict in (True, False) for feasible in (True, False)}
        for trial in range(160):
            hom = trial % 2 == 0
            A, b = self._random_system(rng, hom)
            margin = self._highs_margin(linprog, A, b)
            for strict in (False, True):
                if strict and margin is not None and 1e-12 < margin < 1e-6:
                    continue  # too close to the strict threshold to call
                out = numerics.solve_feasibility(
                    numerics.FeasibilityProblem(A=A, b=b, require_strict=strict))
                expected = margin is not None and (not strict or margin > 1e-6)
                assert out.feasible == (margin is not None)
                assert (out.feasible and (
                    not strict or witness_margin(A, b, out.witness) > 1e-9)) == expected
                decided[(hom, strict, expected)] += 1
                if out.feasible:
                    x = out.witness
                    assert x.min() >= 0.0
                    assert np.abs(A @ x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())
                    if hom:
                        assert x.sum() == pytest.approx(1.0, abs=1e-9)
                else:
                    y = out.certificate
                    if hom:
                        assert float((y @ A).min()) > 0.0
                    else:
                        assert float((y @ A).max()) <= 1e-8 and float(y @ b) > 0.0
        assert min(decided.values()) >= 5, decided

    def test_agrees_with_highs_under_bland(self, rng, monkeypatch):
        # the Bland fallback prices every pivot: its own path, same answers
        monkeypatch.setattr(numerics, "_STALL", 0)
        self.test_agrees_with_highs(rng)


class TestReferenceKernel:
    """The one LP that solve_feasibility builds, plain or strict, and the
    same LP through ``paper_reference.linear_program``, against the
    reference kernel above: the same pivot sequence and a bitwise-equal
    LPResult."""

    @staticmethod
    def _problems(rng, count):
        """(A, b) pairs: random and integer-valued, homogeneous, feasible
        and mostly infeasible right-hand sides, with repeated columns, zero
        rhs entries and a repeated row mixed in."""
        for trial in range(count):
            k = int(rng.integers(2, 6))
            m = int(rng.integers(k + 1, 3 * k + 4))
            if trial % 3 == 0:  # integer entries: many exact ratio ties
                A = rng.integers(-3, 4, (k, m)).astype(float)
            else:
                A = rng.standard_normal((k, m))
            if trial % 4 == 1:
                A = np.hstack([A, A[:, rng.integers(0, m, 3)]])
            kind = trial % 4
            if kind == 0:
                b = np.zeros(k)
            elif kind == 1:
                b = A @ (rng.uniform(0.0, 1.0, A.shape[1]) * (rng.random(A.shape[1]) < 0.6))
            elif kind == 2:
                b = rng.standard_normal(k)
            else:  # row 0 vanishes on the support of x: a zero rhs entry
                x = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.5)
                A[0] = np.where(x > 0.0, 0.0, np.abs(A[0]))
                b = A @ x
            if trial % 5 == 2:
                A, b = np.vstack([A, A[-1]]), np.append(b, b[-1])
            yield A, b

    @pytest.mark.parametrize("stall", [50, 0])
    def test_matches_reference(self, rng, monkeypatch, stall):
        monkeypatch.setattr(numerics, "_STALL", stall)
        pivots = []
        kernel_pivot = numerics._pivot

        def logged_pivot(T, basis, row, col):
            pivots.append((int(row), int(col)))
            kernel_pivot(T, basis, row, col)

        monkeypatch.setattr(numerics, "_pivot", logged_pivot)
        solved = []
        kernel = numerics._linear_program

        def recorded(A, b, strict):
            inputs = (A.copy(), b.copy(), strict)
            res = kernel(A, b, strict)
            solved.append((inputs, res, list(pivots)))
            return res

        monkeypatch.setattr(numerics, "_linear_program", recorded)
        seen = set()
        for A, b in self._problems(rng, 120):
            for strict in (False, True):
                pivots.clear()
                solved.clear()
                try:
                    numerics.solve_feasibility(
                        numerics.FeasibilityProblem(A=A, b=b, require_strict=strict))
                except InternalNumericError:
                    pass  # a failed self-check after the LP; the LP is compared below
                (inputs, res, used), = solved
                log = []
                ref = reference_linear_program(*inputs, stall=stall, log=log)
                assert used == log
                assert_bitwise_equal(res, ref)
                pivots.clear()
                assert_bitwise_equal(linear_program(*inputs), ref)
                assert pivots == log
                seen.add((strict, res.status))
        assert seen == {(s, st) for s in (False, True) for st in ("optimal", "infeasible")}


class TestSharedPhaseOne:
    """The strict LP is phase 2 of the plain one: on the same system both
    take the same phase-1 pivots, and an infeasible system gets the same
    certificate, bit for bit."""

    @staticmethod
    def _problems(rng, count):
        # homogeneous systems; every other one has its columns in an open
        # half-space (turned by a random rotation), so it is infeasible
        for trial in range(count):
            k = int(rng.integers(2, 7))
            m = int(rng.integers(k + 1, 3 * k + 4))
            A = rng.standard_normal((k, m))
            if trial % 2:
                A[0] = np.abs(A[0]) + 0.05
                A = np.linalg.qr(rng.standard_normal((k, k)))[0] @ A
            if trial % 3 == 0:  # a repeated column
                A = np.hstack([A, A[:, :1]])
            yield A

    @pytest.mark.parametrize("stall", [50, 0])
    def test_strict_shares_phase_one(self, rng, monkeypatch, stall):
        monkeypatch.setattr(numerics, "_STALL", stall)
        pivots = []
        kernel_pivot = numerics._pivot

        def logged_pivot(T, basis, row, col):
            pivots.append((int(row), int(col)))
            kernel_pivot(T, basis, row, col)

        monkeypatch.setattr(numerics, "_pivot", logged_pivot)
        infeasible = 0
        for A in self._problems(rng, 160):
            runs = []
            for strict in (False, True):
                pivots.clear()
                out = numerics.solve_feasibility(numerics.FeasibilityProblem(
                    A=A, b=np.zeros(A.shape[0]), require_strict=strict))
                runs.append((out, list(pivots)))
            (plain, plain_pivots), (strict, strict_pivots) = runs
            assert plain.feasible == strict.feasible
            assert strict_pivots[:len(plain_pivots)] == plain_pivots
            if not plain.feasible:
                infeasible += 1
                assert strict_pivots == plain_pivots
                assert strict.certificate.tobytes() == plain.certificate.tobytes()
        assert infeasible >= 60
