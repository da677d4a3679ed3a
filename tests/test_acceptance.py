"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line on success; tolerances are stated inline.
Verdict oracles are independent of the library code: dense simplex-grid
search (exact branch-and-bound over the 1/200 grid), the doubled-angle
gap criterion, and closed-form trigonometric formulas.
"""

import numpy as np
import pytest

from framescale import (
    alternate_dual_from_scaling,
    canonical_dual,
    canonical_dual_scalable,
    cofactor_scaling,
    codim2_scaling,
    decide,
    diagram_inner_identity_check,
    diagram_vector,
    find_V_element,
    find_W_element,
    frame_potential,
    hull_certificate_check,
    intersection_scalability,
    is_dual,
    make_frame,
    p1_counterexample,
    sylvester_hadamard,
)
from framescale.cli import main
from framescale.diagram import FULL
from framescale.frame_core import apply_scaling, frame_from_synthesis, is_tight
from conftest import angles_frame, random_scalable_frame, random_unit_frame, wolfe_decide
from paper_reference import cofactor_pencil


EXAMPLE_FRAME = make_frame([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]])


# ---------------------------------------------------------------------------
# independent oracles for criterion 9


def quadrant_oracle(F):
    """Scalable iff the doubled angles leave no circular gap wider than pi
    (equivalently: no open quadrant contains all vectors after sign flips)."""
    X = F.synthesis
    ang = np.sort(np.mod(2.0 * np.arctan2(X[1], X[0]), 2.0 * np.pi))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    return float(gaps.max()) <= np.pi + 1e-9


def grid_oracle(F, pitch=200, tol=1e-3):
    """Dense search over simplex weights with coordinates k_i / pitch:
    scalable iff some grid point makes both tightness functionals
    sum_i c_i cos(2 phi_i) and sum_i c_i sin(2 phi_i) at most tol in absolute
    value.  Exact: branch-and-bound enumerates the full grid, pruning only
    branches whose entire weight range provably violates a linear bound, and
    the last two coordinates are resolved by interval arithmetic."""
    X = F.synthesis
    phi = np.arctan2(X[1], X[0])
    v = np.vstack([np.cos(2 * phi), np.sin(2 * phi)])  # 2 x m
    m = v.shape[1]
    T = tol * pitch
    # pruning functionals: the two real ones plus rotated probes
    dirs = [(np.cos(a), np.sin(a)) for a in np.linspace(0, np.pi, 8, endpoint=False)]
    probes = [y1 * v[0] + y2 * v[1] for y1, y2 in dirs]
    bound = T * np.sqrt(2.0)
    suff_min = [np.minimum.accumulate(p[::-1])[::-1] for p in probes]
    suff_max = [np.maximum.accumulate(p[::-1])[::-1] for p in probes]

    def tail_feasible(i, r, sums):
        # exact interval solve for the last two coordinates
        if i == m - 1:
            return all(abs(s + r * v[d, i]) <= T for d, s in enumerate(sums[:2]))
        a0, b0 = v[0, i], v[0, i + 1]
        a1, b1 = v[1, i], v[1, i + 1]
        lo, hi = 0.0, float(r)
        for s, a, b in ((sums[0], a0, b0), (sums[1], a1, b1)):
            const = s + r * b
            slope = a - b
            if abs(slope) < 1e-15:
                if abs(const) > T:
                    return False
                continue
            k1 = (-T - const) / slope
            k2 = (T - const) / slope
            lo = max(lo, min(k1, k2))
            hi = min(hi, max(k1, k2))
        return np.ceil(lo - 1e-9) <= np.floor(hi + 1e-9)

    def dfs(i, r, sums):
        if i >= m - 2:
            return tail_feasible(i, r, sums)
        for d, p in enumerate(probes):
            s = sums[0] * dirs[d][0] + sums[1] * dirs[d][1]
            if s + r * suff_min[d][i] > bound or s + r * suff_max[d][i] < -bound:
                return False
        for k in range(r, -1, -1):
            if dfs(i + 1, r - k, (sums[0] + k * v[0, i], sums[1] + k * v[1, i])):
                return True
        return False

    if m == 1:
        return abs(v[0, 0]) <= tol and abs(v[1, 0]) <= tol
    return dfs(0, pitch, (0.0, 0.0))


def corpus_40():
    """Fixed 40-frame corpus (n=2, m <= 5, unit-norm).  Scalable members are
    built from orthogonal pairs, duplicated vectors, and zero-weight extras,
    so each admits an exactly grid-representable scaling."""
    h = np.pi / 2
    scalable = [
        (0.0, h),
        (0.3, 0.3 + h),
        (1.0, 1.0 + h),
        (0.8, 0.8 + h),
        (0.0, h, 0.7),
        (0.0, h, 2.0),
        (0.4, 0.4 + h, 1.9),
        (0.0, 0.0, h),
        (0.5, 0.5, 0.5 + h),
        (0.0, h, np.pi),
        (0.0, h, 1.0, 1.0 + h),
        (0.2, 0.2 + h, 1.4, 1.4 + h),
        (0.0, 0.0, h, h),
        (0.0, h, 0.6, 2.2),
        (0.1, 0.1 + h, 0.9, 2.6),
        (0.0, 0.0, 0.0, h),
        (0.0, h, 1.0, 1.0 + h, 2.3),
        (0.0, 0.0, h, 0.8, 0.8 + h),
        (0.3, 0.3 + h, 1.1, 1.1 + h, 0.7),
        (0.0, 0.0, h, h, 1.3),
    ]
    not_scalable = [
        (0.1, 0.3),
        (1.0, 1.2),
        (0.3, 0.5),
        (0.2, 0.9),
        (0.6, 1.1),
        (0.1, 0.5, 0.9),
        (0.2, 0.6, 1.1),
        (2.0, 2.4, 2.8),
        (0.05, 0.6, 1.1),
        (2.2, 2.6, 3.0),
        (0.25, 0.65, 1.05),
        (0.1, 0.4, 0.8, 1.2),
        (0.5, 0.7, 0.9, 1.3),
        (0.0, 0.3, 0.6, 1.0),
        (0.9, 1.0, 1.4, 1.5),
        (1.1, 1.25, 1.4, 1.55),
        (0.1, 0.2, 0.3, 0.4, 0.5),
        (1.2, 1.5, 1.8, 2.1, 2.4),
        (0.15, 0.45, 0.75, 1.05, 1.35),
        (0.45, 0.55, 0.95, 1.2, 1.3),
    ]
    return [angles_frame(*a) for a in scalable + not_scalable]


# ---------------------------------------------------------------------------


def test_criterion_1_frame_operator_regression():
    X = EXAMPLE_FRAME.synthesis
    S = X @ X.T
    assert np.abs(S - [[6.0, 5.0], [5.0, 6.0]]).max() <= 1e-12
    S_inv = np.linalg.inv(S)
    assert np.abs(S_inv - np.array([[6.0, -5.0], [-5.0, 6.0]]) / 11.0).max() <= 1e-12
    dual = canonical_dual(EXAMPLE_FRAME).synthesis
    expected = np.array([[7.0, -4.0, 1.0], [-4.0, 7.0, 1.0]]) / 11.0
    assert np.abs(dual - expected).max() <= 1e-12
    print("ACCEPTANCE 1: PASS - S, S^-1 and canonical dual match to 1e-12")


def test_criterion_2_scalability_verdicts():
    r = decide(EXAMPLE_FRAME)
    assert not r.scalable
    assert hull_certificate_check(EXAMPLE_FRAME, r.certificate_y)

    disagreements = 0
    checked = 0
    grid = np.linspace(0.0, np.pi, 25)
    half = np.pi / 2
    for ti, t in enumerate(grid):
        for p in grid[ti:]:
            if (abs(np.sin(t)) < 1e-12 and abs(np.sin(p)) < 1e-12):
                continue  # collinear triple, not a frame
            F = angles_frame(0.0, t, p)
            expected = (t <= half + 1e-12
                        and half - 1e-12 <= p <= t + half + 1e-12)
            if decide(F).scalable != expected:
                disagreements += 1
            checked += 1
    assert checked > 300
    assert disagreements == 0
    print("ACCEPTANCE 2: PASS - certified non-scalable example; 25x25 angle "
          f"grid ({checked} frames) matches the closed-form region, "
          "0 disagreements at 1e-8")


def test_criterion_3_cofactor_formula():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        t = rng.uniform(0.05, np.pi / 2 - 0.05)
        p = rng.uniform(np.pi / 2 + 0.05, np.pi - 0.05)
        report, _ = cofactor_scaling(angles_frame(0.0, t, p))
        expected = np.array([np.sin(2 * (p - t)), -np.sin(2 * p), np.sin(2 * t)])
        scale = report.cofactor_vector[0] / expected[0]
        rel = np.abs(report.cofactor_vector - scale * expected).max() / np.abs(
            scale * expected
        ).max()
        worst = max(worst, float(rel))
    assert worst <= 1e-8
    print(f"ACCEPTANCE 3: PASS - 50 cofactor vectors match the closed form, "
          f"worst relative error {worst:.2e} <= 1e-8")


def test_criterion_4_codim2():
    deg = np.pi / 180.0
    a, b, g = 30 * deg, 100 * deg, 110 * deg
    F = angles_frame(0.0, a, b, g)
    r = codim2_scaling(F)
    assert r.verdict == "strictly_scalable"
    assert is_tight(apply_scaling(F, r.scalars_a), 1e-8).tight

    R = np.array([[1.0, np.cos(2 * a), np.cos(2 * b), np.cos(2 * g)],
                  [0.0, np.sin(2 * a), np.sin(2 * b), np.sin(2 * g)]])
    xi1, xi2 = cofactor_pencil(R, [0, 0, 1, 0], [0, 0, 0, 1])
    worst = 0.0
    for t in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
        A = np.cos(t) * xi1 + np.sin(t) * xi2
        expected = np.array(
            [np.sin(t) * np.sin(2 * b - 2 * a) + np.cos(t) * np.sin(2 * a - 2 * g),
             np.cos(t) * np.sin(2 * g) - np.sin(t) * np.sin(2 * b),
             np.sin(t) * np.sin(2 * a),
             -np.cos(t) * np.sin(2 * a)])
        worst = max(worst, float(np.abs(A - expected).max()))
    assert worst <= 1e-10
    print("ACCEPTANCE 4: PASS - 4-vector frame strictly scalable, scaling is "
          f"tight at 1e-8; parametric cofactors match at 20 samples "
          f"(worst {worst:.2e} <= 1e-10)")


def test_criterion_5_diagram_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in range(2, 9):
        xs = rng.standard_normal((1000, n))
        ys = rng.standard_normal((1000, n))
        for x, y in zip(xs, ys):
            resid = diagram_inner_identity_check(x, y)
            scale = 1.0 + float(x @ x) * float(y @ y)
            worst = max(worst, resid / scale)
            assert resid <= 1e-9 * scale
        for x in xs[:50]:
            d = diagram_vector(x, FULL)
            assert abs(np.linalg.norm(d) - float(x @ x)) <= 1e-9 * (1 + x @ x)
    print("ACCEPTANCE 5: PASS - inner-product identity over 1000 pairs per "
          f"n in 2..8 (worst scaled residual {worst:.2e} <= 1e-9); "
          "norm identity to 1e-9")


def test_criterion_6_frame_potential():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 13))
        F = random_unit_frame(rng, n, m)
        assert frame_potential(F) >= m * m / n - 1e-9
    tight_frames = [
        make_frame(np.eye(3)),
        make_frame(np.eye(5)),
        angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3),
        make_frame((sylvester_hadamard(4) / 2.0).T),
    ]
    for F in tight_frames:
        assert abs(frame_potential(F) - F.m ** 2 / F.n) <= 1e-7
    print("ACCEPTANCE 6: PASS - potential >= m^2/n - 1e-9 on 200 random "
          "unit-norm frames; equality within 1e-7 on tight constructions")


def test_criterion_7_w_v_decomposition():
    H = sylvester_hadamard(2).copy()
    H[-1] *= 2.0
    assert not find_W_element(make_frame(H.T)).member

    rng = np.random.default_rng(7)
    for _ in range(10):
        F = random_unit_frame(rng, 3, 5)
        S = F.synthesis @ F.synthesis.T
        _, Q = np.linalg.eigh(S)
        G = make_frame((Q.T @ F.synthesis).T)
        assert find_V_element(G).member

    disagreements = 0
    for _ in range(500):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 9))
        F = random_unit_frame(rng, n, m)
        if intersection_scalability(F).scalable != wolfe_decide(F).scalable:
            disagreements += 1
    assert disagreements == 0
    print("ACCEPTANCE 7: PASS - doubled-row frame has empty W; eigenbasis "
          "frames give nontrivial V; 500 random frames, 0 verdict "
          "disagreements")


def test_criterion_8_dual_scalability():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n, 9))
        F, d = random_scalable_frame(rng, n, m)
        pair = alternate_dual_from_scaling(F, d)
        assert is_dual(pair.primal, pair.dual)
        rescaled = frame_from_synthesis(pair.dual.synthesis / d)
        t = is_tight(rescaled)
        assert t.tight and abs(t.bound - 1.0) <= 1e-8

    rep = canonical_dual_scalable(EXAMPLE_FRAME)
    assert rep.feasible
    assert np.allclose(rep.weights_c, [1.0, 1.0, 56.0], atol=1e-7)
    scaled_dual = apply_scaling(canonical_dual(EXAMPLE_FRAME), rep.scalars_a)
    assert is_tight(frame_from_synthesis(scaled_dual.synthesis)).tight

    P = p1_counterexample(4)
    assert decide(P).scalable
    assert not canonical_dual_scalable(P).feasible
    print("ACCEPTANCE 8: PASS - 100 alternate duals verified Parseval; "
          "c=(1,1,56) recovered; counterexample dual certified non-scalable")


def test_criterion_9_oracle_equivalence():
    frames = corpus_40()
    assert len(frames) == 40
    mismatches = []
    for i, F in enumerate(frames):
        verdicts = (wolfe_decide(F).scalable, intersection_scalability(F).scalable,
                    grid_oracle(F), quadrant_oracle(F))
        if len(set(verdicts)) != 1:
            mismatches.append((i, verdicts))
    assert mismatches == []
    print("ACCEPTANCE 9: PASS - 40-frame corpus: the hull solver's Wolfe path, "
          "intersection_scalability, 1/200 grid search and quadrant criterion "
          "agree exactly")


def test_criterion_10_deterministic_reports(tmp_path, capsys):
    docs = {
        "example.frame": "n 2\nm 3\nname example\n2 1\n1 2\n1 1\n",
        "mb.frame": ("n 2\nm 3\nname mb\n1 0\n"
                     "-0.5 0.86602540378443871\n-0.5 -0.86602540378443871\n"),
        "quad.frame": "n 2\nm 3\n1 0.1\n0.9 0.5\n0.5 1\n",
        "pair.frame": "n 2\nm 2\n1 0\n0 1\n",
    }
    paths = []
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    runs = []
    for _ in range(2):
        assert main(["analyze", *paths, "--json"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]
    assert runs[0].count('"tool"') == len(docs)
    print("ACCEPTANCE 10: PASS - repeated analyses of four paths are byte-identical")
