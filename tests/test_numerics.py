import numpy as np
import pytest

from framescale import numerics
from framescale.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NonSymmetricError,
)


class TestSymmetricEigen:
    def test_matches_numpy_on_random_symmetric(self, rng):
        for n in (1, 2, 3, 5, 8):
            A = rng.standard_normal((n, n))
            A = A + A.T
            spec = numerics.symmetric_eigen(A)
            expected = np.sort(np.linalg.eigvalsh(A))[::-1]
            assert np.allclose(spec.eigenvalues, expected, atol=1e-10)
            # eigenvectors orthonormal and reconstructing
            Q = spec.eigenvectors
            assert np.allclose(Q.T @ Q, np.eye(n), atol=1e-12)
            assert np.allclose(spec.reconstruct(), A, atol=1e-10)

    def test_descending_order(self):
        spec = numerics.symmetric_eigen(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [3.0, 2.0, 1.0])

    def test_deterministic(self, rng):
        A = rng.standard_normal((4, 4))
        A = A @ A.T
        s1 = numerics.symmetric_eigen(A)
        s2 = numerics.symmetric_eigen(A)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NonSymmetricError):
            numerics.symmetric_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            numerics.symmetric_eigen([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            numerics.symmetric_eigen(np.ones((2, 3)))


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
        A = rng.standard_normal((2, 5))
        N = numerics.nullspace_basis(A)
        assert N.shape == (5, 3)
        assert np.abs(A @ N).max() < 1e-9
        assert np.allclose(N.T @ N, np.eye(3), atol=1e-10)

    def test_nullspace_full_rank_empty(self, rng):
        A = rng.standard_normal((5, 3))
        assert numerics.nullspace_basis(A).shape == (3, 0)


class TestLinearProgram:
    def test_simple_optimum(self):
        # max x1 + x2 s.t. x1 + 2 x2 = 4, 3 x1 + 2 x2 = 6  -> x = (1, 1.5)
        A = [[1.0, 2.0], [3.0, 2.0]]
        b = [4.0, 6.0]
        res = numerics.linear_program(A, b, [1.0, 1.0], maximize=True)
        assert res.status == "optimal"
        assert np.allclose(res.x, [1.0, 1.5], atol=1e-9)

    def test_degenerate_vertex(self):
        # redundant rows must not break phase 2
        A = [[1.0, 1.0], [2.0, 2.0]]
        b = [1.0, 2.0]
        res = numerics.linear_program(A, b, [1.0, 0.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_unbounded(self):
        res = numerics.linear_program([[1.0, -1.0]], [0.0], [-1.0, 0.0])
        assert res.status == "unbounded"

    def test_infeasible_farkas(self):
        # x1 + x2 = -1 has no nonnegative solution
        A = np.array([[1.0, 1.0]])
        b = np.array([-1.0])
        res = numerics.linear_program(A, b)
        assert res.status == "infeasible"
        y = res.dual
        assert float(y @ b) > 1e-9
        assert float((y @ A).max()) <= 1e-9

    def test_farkas_on_random_infeasible(self, rng):
        for _ in range(10):
            A = np.abs(rng.standard_normal((3, 4)))
            b = -np.abs(rng.standard_normal(3)) - 0.1
            res = numerics.linear_program(A, b)
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
        assert out.strict_margin > 1e-9
        assert out.witness.min() > 1e-9

    def test_strict_failure_keeps_margin(self):
        # feasible only with x2 = 0: relaxed feasible, strictly infeasible
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 0.0])
        out = numerics.solve_feasibility(
            numerics.FeasibilityProblem(A=A, b=b, require_strict=True)
        )
        assert not out.feasible
        assert out.certificate is None
        assert out.witness is None
        assert out.strict_margin is not None
        assert out.strict_margin <= 1e-9


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
                assert out.feasible == expected
                decided[(hom, strict, expected)] += 1
                if out.feasible:
                    x = out.witness
                    assert x.min() >= 0.0
                    assert np.abs(A @ x - b).max() <= 1e-8 * (1.0 + np.abs(b).max())
                    if hom:
                        assert x.sum() == pytest.approx(1.0, abs=1e-9)
                elif out.certificate is not None:
                    y = out.certificate
                    if hom:
                        assert float((y @ A).min()) > 0.0
                    else:
                        assert float((y @ A).max()) <= 1e-8 and float(y @ b) > 0.0
                else:
                    assert strict and margin is not None
        assert min(decided.values()) >= 5, decided
