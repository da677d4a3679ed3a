import numpy as np
import pytest

from framescale import (
    canonical_dual,
    find_V_element,
    find_W_element,
    frame_from_synthesis,
    intersection_scalability,
    is_in_V,
    is_in_W,
    make_frame,
    numerics,
)
from framescale.diagram import reduced_diagram_matrix
from framescale.frame_core import apply_scaling, is_tight
from framescale.errors import DimensionMismatchError, FramescaleError
from framescale.scalability import independent_rows
from conftest import (
    angles_frame,
    bench_corpus,
    block_split,
    count_nearest,
    doubled_hadamard_frame,
    open_cone_frame,
    random_unit_frame,
    split_answer,
    wolfe_decide,
)


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
            if intersection_scalability(F).scalable != wolfe_decide(F).scalable:
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

    @pytest.mark.parametrize("reverse", [False, True])
    def test_intersection_gives_parseval_scalars(self, reverse):
        F = make_frame(self.F.vectors()[::-1]) if reverse else self.F
        r = intersection_scalability(F)
        assert r.scalable
        t = is_tight(apply_scaling(F, r.scalars_a))
        assert t.tight
        assert t.bound == pytest.approx(1.0, abs=1e-8)


def _blocks(F):
    """The rows of theta that make up the W block (the n-1 square
    differences) and the V block (the pair products)."""
    return {"W": slice(F.n - 1), "V": slice(F.n - 1, None)}


def _lift_rows(F, block):
    """The block's own rows on X: the X∘X differences x_1^2 - x_j^2 for W,
    the products X[i]∘X[j] for V."""
    X = F.synthesis
    if block == "W":
        squares = X * X
        return squares[0] - squares[1:]
    i, j = np.triu_indices(F.n, 1)
    return X[i] * X[j]


def _drawn_frames():
    rng = np.random.default_rng(2718)
    frames = {}
    for n, m in [(2, 3), (2, 6), (3, 4), (3, 7), (3, 12), (4, 5), (4, 9), (4, 16),
                 (5, 6), (5, 11), (6, 7), (6, 12), (6, 24), (8, 9), (8, 30)]:
        frames[f"random-unit-n{n}-m{m}"] = random_unit_frame(rng, n, m)
    for n, m in [(2, 4), (3, 5), (3, 8), (4, 7), (5, 9)]:
        # small integer entries: singular Gram matrices, zero rows and ties
        while True:
            X = rng.integers(-2, 3, size=(n, m)).astype(float)
            if np.abs(X).sum(axis=0).min() > 0 and np.linalg.matrix_rank(X) == n:
                break
        frames[f"integer-n{n}-m{m}"] = frame_from_synthesis(X)
    for n, m in [(2, 5), (3, 7), (3, 10)]:
        frames[f"open-cone-n{n}-m{m}"] = open_cone_frame(rng, n, m)
    frames["zero-w-row"] = make_frame([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])
    return frames


def _corpus_frames():
    """Frames of the benchmark corpus's not-scalable families: the planted
    certificate, random unit vectors (mostly not scalable), hadamard-doubled,
    and the canonical dual of P1."""
    corpus = bench_corpus()
    if corpus is None:
        return {}
    rng = np.random.default_rng(31)
    frames = {}
    for n, m in [(2, 3), (3, 6), (4, 8), (6, 7), (6, 16), (8, 36), (10, 20)]:
        for family in ("not-scalable", "random-unit"):
            build = corpus._BUILDERS[family][0]
            frames[f"{family}-n{n}-m{m}"] = make_frame(build(rng, n, m))
    for n in (2, 4, 8):
        frames[f"hadamard-doubled-n{n}"] = make_frame(corpus.hadamard_doubled(n))
        frames[f"p1-dual-n{n}"] = canonical_dual(make_frame(corpus.p1(n)))
    return frames


CERTIFICATE_FRAMES = {**_drawn_frames(), **_corpus_frames()}
FINDERS = {"W": find_W_element, "V": find_V_element}


class TestBlockSplit:
    """W and V are asked of the hull solver, which first splits 1 on the
    block's own unit columns; Wolfe's nearest point runs only when the split
    answers neither way, and the verdict is the same either way."""

    @pytest.mark.parametrize("name", sorted(CERTIFICATE_FRAMES))
    def test_split_first_answers_like_the_lp(self, monkeypatch, name):
        X = CERTIFICATE_FRAMES[name].synthesis
        nearest = count_nearest(monkeypatch)
        first, answers = {}, {}
        for block, find in FINDERS.items():
            F = frame_from_synthesis(X)
            runs = len(nearest)
            first[block] = find(F)
            answers[block] = split_answer(F, block)
            assert len(nearest) - runs == (0 if answers[block] else 1), block
            if answers[block] == "member":
                assert first[block].member, block
        monkeypatch.setattr(numerics, "split_of_one", lambda B: (None, None))
        for block, find in FINDERS.items():
            nearest_only = find(frame_from_synthesis(X))
            assert first[block].member == nearest_only.member, block
            if not first[block].member:
                assert first[block].a is None, block
            elif answers[block] is None:
                assert first[block].a.tobytes() == nearest_only.a.tobytes(), block

    def test_split_answers_clear_their_margins(self):
        # both Gram branches answer: B B^T for W and V, B^T B for a V block
        # with more rows than vectors (n = 6, m = 7: 15 products); every
        # certificate separates the block's own rows on X, and every kernel
        # vector is strictly positive and gives a point the solver confirms
        answered = set()
        for F in CERTIFICATE_FRAMES.values():
            for block, rows in _blocks(F).items():
                y, c = block_split(F, rows, rounds=False)
                theta = reduced_diagram_matrix(F)[rows]
                norms = numerics.column_norms(theta)
                B = theta / norms
                if y is not None:
                    assert float((y @ B).min()) > numerics.ZERO_TOL * float(np.abs(y).max())
                    assert float((y @ _lift_rows(F, block)).min()) > 0.0
                    assert not FINDERS[block](F).member
                    answered.add(("certificate", block, B.shape[1] >= B.shape[0]))
                elif c is not None:
                    w = c * norms
                    assert float(w.min()) > numerics.STRICT_MARGIN * float(w.sum())
                    if split_answer(F, block) == "member":
                        assert FINDERS[block](F).member
                        answered.add(("kernel", block, B.shape[1] >= B.shape[0]))
        assert {("certificate", "W", True), ("certificate", "V", True),
                ("certificate", "V", False), ("kernel", "W", True),
                ("kernel", "V", True)} <= answered

    def test_frame_in_r1_takes_the_lp(self, monkeypatch):
        F = TestLine.F
        assert [block_split(F, rows) for rows in _blocks(F).values()] == [(None, None)] * 2
        nearest = count_nearest(monkeypatch)
        assert find_W_element(F).member and find_V_element(F).member
        assert len(nearest) == 2

    def test_zero_block_is_answered_by_the_split(self, monkeypatch):
        # x_1^2 = x_2^2 for every vector: the W block is 0, so 1 lies in its
        # kernel, and its point is the W element; no nearest point runs
        F = CERTIFICATE_FRAMES["zero-w-row"]
        y, c = block_split(F, _blocks(F)["W"])
        assert y is None and c is not None
        nearest = count_nearest(monkeypatch)
        found = find_W_element(F)
        assert found.member and nearest == []
        assert np.allclose((F.synthesis ** 2) @ found.a, 1.0, rtol=0, atol=1e-12)
