"""The per-frame cache: each derived quantity is computed once per frame, and
a frame whose cache is warm answers every route exactly as a fresh one.  One
report solves each LP question once."""

import dataclasses

import numpy as np
import pytest

from framescale import (
    canonical_dual,
    canonical_dual_scalable,
    codim2_scaling,
    cofactor_scaling,
    decide_scalable,
    find_V_element,
    find_W_element,
    frame_from_synthesis,
    intersection_scalability,
    make_frame,
    numerics,
    p1_counterexample,
)
from framescale import diagram, frame_core
from framescale.cli import build_report, main
from framescale.diagram import reduced_diagram_matrix, reduced_size, unit_diagram_matrix
from framescale.framedoc import document_from_frame, format_frame_document
from framescale.scalability import NOT_SCALABLE
from conftest import (
    angles_frame,
    doubled_hadamard_frame,
    random_scalable_frame,
    random_unit_frame,
    rescaled_harmonic_frame,
    two_block_frame,
)

DEG = np.pi / 180
FRAMES = {
    "mb": lambda rng: angles_frame(0.0, 120 * DEG, 240 * DEG),
    "p1": lambda rng: p1_counterexample(4),
    "hadamard-doubled": lambda rng: doubled_hadamard_frame(),
    "corank-1": lambda rng: random_scalable_frame(rng, 3, reduced_size(3) + 1)[0],
    "corank-1-unit": lambda rng: random_unit_frame(rng, 3, reduced_size(3) + 1),
    "corank-2": lambda rng: random_scalable_frame(rng, 3, reduced_size(3) + 2)[0],
    # sign-rejected, and not scalable with both rows of mixed sign
    "not-scalable": lambda rng: make_frame([[1.0, 0.1], [0.9, 0.5], [0.5, 1.0]]),
    "not-scalable-lp": lambda rng: angles_frame(-15 * DEG, 22.5 * DEG, 60 * DEG),
    "strict": lambda rng: rescaled_harmonic_frame(rng, 3, 8),
    "two-block": lambda rng: two_block_frame(rng, 4, 11),
}


def _frame(name):
    return FRAMES[name](np.random.default_rng(7))


def _routes(F):
    """Every route that applies to F, by name."""
    routes = {
        "decide": lambda G: decide_scalable(G),
        "decide-strict": lambda G: decide_scalable(G, strict=True),
        "intersection": lambda G: intersection_scalability(G),
        "intersection-strict": lambda G: intersection_scalability(G, strict=True),
        "W": find_W_element,
        "V": find_V_element,
        "dual": canonical_dual_scalable,
    }
    corank = numerics.nullspace_basis(reduced_diagram_matrix(F)).shape[1]
    if corank == 1:
        routes["cofactor"] = cofactor_scaling
    if corank == 2:
        routes["codim2"] = codim2_scaling
    return routes


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(FRAMES))
@pytest.mark.parametrize("reverse", [False, True])
def test_warm_frame_answers_like_a_fresh_one(name, reverse):
    F = _frame(name)
    routes = _routes(frame_from_synthesis(F.synthesis))
    order = sorted(routes, reverse=reverse)
    for route in order:
        warm = frame_from_synthesis(F.synthesis)
        for other in order:
            if other != route:
                routes[other](warm)
        fresh = frame_from_synthesis(F.synthesis)
        assert _same(routes[route](warm), routes[route](fresh)), route


def _count(monkeypatch, module, attr, when=lambda *args, **kwargs: True):
    """Calls of ``module.attr`` whose arguments satisfy ``when``."""
    calls = []
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        if when(*args, **kwargs):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_report_computes_each_quantity_once(monkeypatch, name):
    F = _frame(name)
    theta = reduced_diagram_matrix(F)
    dual = canonical_dual(F).dual.synthesis
    builds = {
        "theta": _count(monkeypatch, diagram, "_reduced_diagram_matrix"),
        "S": _count(monkeypatch, frame_core, "_frame_operator"),
    }
    plain_theta_lps = _count(
        monkeypatch, numerics, "solve_feasibility",
        lambda p: not p.require_strict and np.array_equal(p.A, theta))
    build_report(document_from_frame(F, name=name), 1e-8)
    # theta is built once per synthesis: the frame's and its canonical dual's
    theta_builds = [G.synthesis for (G,) in builds.pop("theta")]
    assert len(theta_builds) == 2
    assert np.array_equal(theta_builds[0], F.synthesis)
    assert np.array_equal(theta_builds[1], dual)
    assert {k: len(v) for k, v in builds.items()} == {"S": 1}
    assert len(plain_theta_lps) <= 1


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_report_factors_x_once(monkeypatch, name):
    # the one thin SVD of X gives the spanning test, the frame bounds, the
    # canonical dual with its own SVD, and S^{-1/2}
    F = _frame(name)
    dual = canonical_dual(F).dual.synthesis
    svds = _count(monkeypatch, np.linalg, "svd")
    eighs = _count(monkeypatch, np.linalg, "eigh")
    build_report(document_from_frame(F, name=name), 1e-8)
    assert [np.array_equal(A, F.synthesis) for (A, *_) in svds] == [True]
    assert not any(np.array_equal(A, dual) for (A, *_) in svds)
    assert eighs == []


@pytest.mark.parametrize("name, svds", [("corank-1", 1), ("corank-1-unit", 1),
                                        ("corank-2", 1), ("strict", 0)])
def test_scale_auto_takes_at_most_one_svd_of_theta(tmp_path, monkeypatch, capsys, name, svds):
    # "strict" has m = 8 > d + 2 = 7, so its corank is at least 3 unmeasured;
    # the corank is measured on theta's unit-norm columns
    F = _frame(name)
    theta = unit_diagram_matrix(F).data
    path = tmp_path / "frame.txt"
    path.write_text(format_frame_document(document_from_frame(F)))
    theta_svds = _count(monkeypatch, np.linalg, "svd",
                        lambda A, *args, **kwargs: np.array_equal(A, theta))
    assert main(["scale", "--method", "auto", str(path)]) in (0, 1)
    assert len(theta_svds) == svds


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_report_asks_each_question_once(monkeypatch, name):
    # one theta LP decides scalability, strict or not; W and V are read from
    # its answer, so their LPs run only on frames that are not scalable, and
    # W∩V never runs
    F = _frame(name)
    theta = reduced_diagram_matrix(F)
    X = F.synthesis
    i, j = np.triu_indices(F.n, 1)
    squares, products = X * X, X[i] * X[j]
    systems = {
        "theta": theta,
        "W": squares,
        "V": products,
        "WV": np.vstack([squares, products]),
    }
    calls = _count(monkeypatch, numerics, "solve_feasibility")
    rep = build_report(document_from_frame(F, name=name), 1e-8)
    solved = [next((k for k, A in systems.items() if np.array_equal(p.A, A)), "other")
              for (p,) in calls]
    verdict = rep["scalability"]["verdict"]
    assert solved.count("WV") == 0
    assert solved.count("theta") <= 1
    if verdict == NOT_SCALABLE:
        assert solved.count("W") == solved.count("V") == 1
    else:
        assert "W" not in solved and "V" not in solved


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_report_split_points_hold(name):
    F = _frame(name)
    X = F.synthesis
    sp = build_report(document_from_frame(F, name=name), 1e-8)["split"]
    scalable = sp["intersection_verdict"] != NOT_SCALABLE
    assert sp["w_nonempty"] == (sp["w_element"] is not None)
    assert sp["v_nontrivial"] == (sp["v_element"] is not None)
    if scalable:
        assert sp["w_nonempty"] and sp["v_nontrivial"]
    if sp["w_element"] is not None:
        a = np.array(sp["w_element"])
        assert a.min() >= 0 and np.allclose((X * X) @ a, 1.0, rtol=0, atol=1e-9)
    if sp["v_element"] is not None:
        a = np.array(sp["v_element"])
        S = (X * a) @ X.T
        assert a.min() >= 0 and a.sum() > 0
        assert np.abs(S - np.diag(np.diag(S))).max() <= 1e-9 * np.abs(S).max()
    if scalable:
        a = np.array(sp["parseval_scalars"])
        Xa = X * a
        assert np.abs(Xa @ Xa.T - np.eye(F.n)).max() <= 1e-9
    else:
        assert sp["parseval_scalars"] is None
