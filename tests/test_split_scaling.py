import numpy as np
import pytest

from framescale import (
    decide_scalable,
    find_V_element,
    find_W_element,
    intersection_scalability,
    is_in_V,
    is_in_W,
    make_frame,
)
from framescale.frame_core import apply_scaling, is_tight
from framescale.errors import DimensionMismatchError, FramescaleError
from framescale.scalability import independent_rows
from conftest import angles_frame, doubled_hadamard_frame, random_unit_frame


class EmptyWError(FramescaleError):
    """The normalized-scalability set W is empty."""


def _w_constraints(F):
    return np.ascontiguousarray(F.synthesis ** 2), np.ones(F.n)


def _w_vertices(F, count):
    """Distinct W elements obtained by maximizing single coordinates, with
    scipy's HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    A, b = _w_constraints(F)
    found = []
    for i in range(min(count, F.m)):
        cost = np.zeros(F.m)
        cost[i] = -1.0
        res = linprog(cost, A_eq=A, b_eq=b, bounds=(0.0, None), method="highs")
        if res.status != 0:
            continue
        a = np.clip(res.x, 0.0, None)
        if not any(np.allclose(a, prev, atol=1e-10) for prev in found):
            found.append(a)
    return found


def W_geometry_check(F, samples=3) -> bool:
    """Verify the convexity of W and the per-row decomposition of each
    witness as c_j u_j^2 plus a vector orthogonal to u_j^2, with
    c_j ||u_j^2||^2 = 1."""
    base = find_W_element(F)
    if not base.member:
        raise EmptyWError("W is empty, nothing to verify")
    witnesses = _w_vertices(F, samples) or [base.a]
    for a in witnesses:
        if not is_in_W(F, a).member:
            return False
        for usq in F.synthesis ** 2:
            nsq = float(usq @ usq)
            cj = 1.0 / nsq
            v = a - cj * usq
            if abs(float(v @ usq)) > 1e-8 * nsq:
                return False
    for a in witnesses:
        for b in witnesses:
            for lam in (0.25, 0.5, 0.75):
                if not is_in_W(F, lam * a + (1.0 - lam) * b).member:
                    return False
    return True


def verify_projection_basis(F, a, coeff_tol=1e-6) -> bool:
    """Check the support-projection characterization of a W witness: project
    the squared rows onto the support of ``a``; every projected row outside a
    maximal independent subset must be an affine combination (coefficients
    summing to 1) of the independent ones."""
    assert is_in_W(F, a).member, "witness is not in W"
    support = np.flatnonzero(np.asarray(a) > 1e-9)
    mask = np.zeros(F.m)
    mask[support] = 1.0
    projected = _w_constraints(F)[0] * mask
    J = independent_rows(projected)
    basismat = projected[J]
    for j in range(F.n):
        if j in J:
            continue
        coeffs = np.linalg.lstsq(basismat.T, projected[j], rcond=None)[0]
        resid = float(np.linalg.norm(basismat.T @ coeffs - projected[j]))
        if resid > 1e-8 * max(float(np.abs(projected).max()), 1.0):
            return False
        if abs(float(coeffs.sum()) - 1.0) > coeff_tol:
            return False
    return True


class TestMembership:
    def test_w_membership_explicit(self):
        F = make_frame(np.eye(2))
        assert is_in_W(F, [1.0, 1.0]).member
        assert not is_in_W(F, [1.0, 2.0]).member
        assert not is_in_W(F, [-1.0, 1.0]).member

    def test_v_membership_explicit(self):
        F = make_frame([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        # cross-product row is (0, 0, 1): any weight supported off vector 3
        assert is_in_V(F, [1.0, 2.0, 0.0]).member
        assert not is_in_V(F, [1.0, 1.0, 1.0]).member
        assert not is_in_V(F, [1.0, 1.0, -1.0]).member

    @pytest.mark.parametrize("s", [1.0, 1e-3, 1e-6])
    def test_v_membership_at_small_scale(self, s):
        # the cross term of (0, 1, 0) is 0.48 s^2, nonzero at every scale
        F = make_frame(s * np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]]))
        assert not is_in_V(F, [0.0, 1.0, 0.0]).member
        assert is_in_V(F, [1.0, 0.0, 1.0]).member

    def test_zero_vector_in_v(self):
        F = make_frame(np.eye(3))
        assert is_in_V(F, np.zeros(3)).member

    def test_wrong_length(self):
        F = make_frame(np.eye(2))
        with pytest.raises(DimensionMismatchError):
            is_in_W(F, [1.0])


class TestWSet:
    def test_w_element_verified_when_found(self, rng):
        found = 0
        for _ in range(5):
            F = random_unit_frame(rng, 3, 5)
            out = find_W_element(F)
            if out.member:
                found += 1
                assert is_in_W(F, out.a).member
        assert found > 0

    def test_w_nonempty_for_unit_tight_frames(self):
        # unit-norm tight frames admit the uniform weight n/m
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        assert is_in_W(F, [2.0 / 3.0] * 3).member
        assert find_W_element(F).member

    def test_w_empty_for_doubled_hadamard(self):
        # squared rows are proportional: <a, u1^2> = 1 and <a, u2^2> = 1
        # cannot hold together once the second row is doubled
        assert not find_W_element(doubled_hadamard_frame()).member

    def test_geometry_check(self, rng):
        F = random_unit_frame(rng, 2, 4)
        assert W_geometry_check(F)

    def test_geometry_check_empty_w(self):
        with pytest.raises(EmptyWError):
            W_geometry_check(doubled_hadamard_frame())

    def test_projection_basis(self, rng):
        F = random_unit_frame(rng, 3, 6)
        out = find_W_element(F)
        assert verify_projection_basis(F, out.a)


class TestVSet:
    def test_nontrivial_element_for_orthogonal_rows(self):
        # synthesis rows orthogonal: uniform weights lie in V
        F = make_frame(np.eye(3))
        out = find_V_element(F)
        assert out.member
        assert is_in_V(F, out.a).member
        assert out.a.sum() > 1e-9

    def test_eigenbasis_rotation_gives_v_element(self, rng):
        # expressing any frame in the eigenbasis of its frame operator makes
        # the synthesis rows orthogonal, so uniform weights enter V
        for _ in range(5):
            F = random_unit_frame(rng, 3, 5)
            S = F.synthesis @ F.synthesis.T
            _, Q = np.linalg.eigh(S)
            G = make_frame((Q.T @ F.synthesis).T)
            out = find_V_element(G)
            assert out.member
            assert is_in_V(G, out.a).member

    def test_trivial_v_for_quadrant_frame(self):
        F = make_frame([[1.0, 0.1], [0.9, 0.5], [0.5, 1.0]])
        assert not find_V_element(F).member


class TestIntersection:
    def test_parseval_weights(self):
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        r = intersection_scalability(F)
        assert r.scalable
        a = r.scalars_a
        scaled = apply_scaling(F, a)
        t = is_tight(scaled)
        assert t.tight
        assert t.bound == pytest.approx(1.0, abs=1e-8)
        # the raw witness is in both W and V
        assert is_in_W(F, a * a).member
        assert is_in_V(F, a * a).member

    def test_weights_match_general_normalization(self):
        F = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)
        r = intersection_scalability(F)
        assert r.weights_c.sum() == pytest.approx(1.0, abs=1e-9)

    def test_not_scalable_certified(self):
        F = make_frame([[1.0, 0.1], [0.9, 0.5], [0.5, 1.0]])
        r = intersection_scalability(F)
        assert not r.scalable
        assert r.certificate_y is not None

    def test_agrees_with_general_test(self, rng):
        disagreements = 0
        for _ in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n, 9))
            F = random_unit_frame(rng, n, m)
            if intersection_scalability(F).scalable != decide_scalable(F).scalable:
                disagreements += 1
        assert disagreements == 0


class TestLine:
    """In R^1 there are no row pairs: W is {a >= 0 : sum_k a_k x_k^2 = 1}
    and V is the whole nonnegative orthant."""

    F = make_frame([[2.0], [-0.5], [3.0]])

    def test_w_and_v_elements(self):
        w, v = find_W_element(self.F), find_V_element(self.F)
        assert w.member and v.member
        assert is_in_W(self.F, w.a).member
        assert v.a.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("a", [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 7.0, 1e-3],
                                   [1e6, 1e-6, 0.0]])
    def test_every_nonnegative_weight_in_v(self, a):
        assert is_in_V(self.F, a).member
        assert not is_in_V(self.F, [-1.0] + a[1:]).member

    @pytest.mark.parametrize("strict", [False, True])
    def test_intersection_gives_parseval_scalars(self, strict):
        r = intersection_scalability(self.F, strict=strict)
        assert r.scalable
        t = is_tight(apply_scaling(self.F, r.scalars_a))
        assert t.tight
        assert t.bound == pytest.approx(1.0, abs=1e-8)
