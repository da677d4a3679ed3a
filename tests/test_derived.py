"""The per-frame cache: each derived quantity is computed once per frame, and
a frame whose cache is warm answers every route exactly as a fresh one.  One
report solves each LP question once."""

import dataclasses

import numpy as np
import pytest

from framescale import (
    Frame,
    apply_scaling,
    canonical_dual,
    canonical_dual_scalable,
    codim2_scaling,
    cofactor_scaling,
    decide,
    find_V_element,
    find_W_element,
    frame_from_synthesis,
    frame_operator,
    intersection_scalability,
    make_frame,
    numerics,
    p1_counterexample,
)
from framescale import cli, diagram, frame_core
from framescale.cli import build_report, main
from framescale.diagram import reduced_diagram_matrix, reduced_size, unit_diagram_matrix
from framescale.framedoc import document_from_frame
from framescale.scalability import (
    METHOD_FEASIBILITY,
    NOT_SCALABLE,
    theta_kernel,
)
from conftest import (
    angles_frame,
    split_answer,
    count_nearest,
    doubled_hadamard_frame,
    frame_file,
    printed_line,
    random_scalable_frame,
    random_unit_frame,
    rescaled_harmonic_frame,
    route_lines,
    two_block_frame,
)
from test_lp_regressions import FORCED_ZERO_FRAME

DEG = np.pi / 180
FRAMES = {
    "mb": lambda rng: angles_frame(0.0, 120 * DEG, 240 * DEG),
    "p1": lambda rng: p1_counterexample(4),
    "hadamard-doubled": lambda rng: doubled_hadamard_frame(),
    "corank-1": lambda rng: random_scalable_frame(rng, 3, reduced_size(3) + 1)[0],
    "corank-1-unit": lambda rng: random_unit_frame(rng, 3, reduced_size(3) + 1),
    "corank-2": lambda rng: random_scalable_frame(rng, 3, reduced_size(3) + 2)[0],
    # a one-signed row, and not scalable with both rows of mixed sign
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
        "decide": decide,
        "intersection": intersection_scalability,
        "W": find_W_element,
        "V": find_V_element,
        "dual": canonical_dual_scalable,
    }
    corank = theta_kernel(frame_from_synthesis(F.synthesis)).shape[1]
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


@pytest.mark.parametrize("view", [False, True])
def test_a_directly_built_frame_cannot_go_stale(view):
    # the cache holds values derived from the synthesis, so the array a
    # Frame is built on becomes read-only, and a view is copied: a write
    # cannot leave S, the bounds or the verdict of the old vectors on the
    # frame
    X = np.array([[1.0, 0.0, 1.0, 5.0], [0.0, 1.0, 1.0, 5.0]])
    given = X[:, :3] if view else X[:, :3].copy()
    F = Frame(synthesis=given)
    frame_operator(F)
    decide(F)
    if view:
        X[1, 2] = -7.0
    else:
        with pytest.raises(ValueError):
            given[1, 2] = -7.0
    assert np.array_equal(F.synthesis, [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    fresh = frame_from_synthesis(F.synthesis)
    assert _same(frame_operator(F), frame_operator(fresh))
    assert _same(decide(F), decide(fresh))


def _arrays(value):
    """The ndarrays of a value kept on a frame: the value itself, or the
    fields of a namedtuple or dataclass."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif not isinstance(value, tuple):
        value = [value]
    return [a for a in value if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_derived_values_are_read_only(monkeypatch, name):
    # every array kept on a frame, on its canonical dual and on a scaled
    # frame, after a full report on each frame: a write raises instead of
    # changing a value that later calls read
    F = _frame(name)
    scaled = apply_scaling(F, np.linspace(1.0, 2.0, F.m))
    frames = [F, scaled]
    for G in (F, scaled):
        monkeypatch.setattr(cli, "frame_from_document", lambda doc, G=G: G)
        build_report(document_from_frame(G, name=name), 1e-8)
        frames.append(canonical_dual(G))
    for G in frames:
        arrays = [a for value in G._derived.values() for a in _arrays(value)]
        assert arrays
        for a in arrays + [G.synthesis]:
            with pytest.raises(ValueError):
                a[...] = 0.0


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


def _solves(monkeypatch):
    """Calls of ``numerics.solve_feasibility``, each as (problem, the number
    of ``numerics.nearest_point`` runs it took): the solver runs Wolfe's
    nearest point only when its own split of 1 does not answer."""
    calls = []
    nearest = _count(monkeypatch, numerics, "nearest_point")
    solve = numerics.solve_feasibility

    def counted(p):
        before = len(nearest)
        out = solve(p)
        calls.append((p, len(nearest) - before))
        return out

    monkeypatch.setattr(numerics, "solve_feasibility", counted)
    return calls


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_report_computes_each_quantity_once(monkeypatch, name):
    F = _frame(name)
    theta = reduced_diagram_matrix(F)
    dual = canonical_dual(F).synthesis
    # a derived value is built by its function's __wrapped__, on a miss only
    builds = {
        "theta": _count(monkeypatch, diagram.reduced_diagram_matrix, "__wrapped__"),
        "norms": _count(monkeypatch, frame_core.column_norms, "__wrapped__"),
        "S": _count(monkeypatch, frame_core.frame_operator_matrix, "__wrapped__"),
        "bounds": _count(monkeypatch, frame_core.frame_operator, "__wrapped__"),
    }
    unit_theta = unit_diagram_matrix(F).data
    plain_theta_lps = _count(
        monkeypatch, numerics, "solve_feasibility",
        lambda p: not p.require_strict and np.array_equal(p.A, unit_theta))
    build_report(document_from_frame(F, name=name), 1e-8)
    # theta is built once per synthesis: the frame's and its canonical dual's
    theta_builds = [G.synthesis for (G,) in builds.pop("theta")]
    assert len(theta_builds) == 2
    assert np.array_equal(theta_builds[0], F.synthesis)
    assert np.array_equal(theta_builds[1], dual)
    # X's column norms, S and the bounds once each, all of the frame: the
    # dual takes no spanning test and no QR
    assert {k: len(v) for k, v in builds.items()} == {"norms": 1, "S": 1, "bounds": 1}
    assert all(np.array_equal(G.synthesis, F.synthesis)
               for (G,) in builds["norms"] + builds["S"])
    assert len(plain_theta_lps) <= 1


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_report_factors_x_once(monkeypatch, name):
    # one QR of X, its vectors sorted by decreasing norm, gives the frame
    # bounds from one singular-value call on R^{-1} and R stacked, and the
    # canonical dual; X itself takes no SVD.  The spanning test of the frame
    # reads only the singular values of X / ||x_i||; the dual's spanning
    # follows from the reconstruction identity X Y^T = I, so it takes none.
    # No unit theta is factored: only the hull solver factors a matrix, the
    # unit columns of a support, fewer than m, of a block of theta in its
    # support rounds, and their differences for a facet point
    F = _frame(name)
    qr = frame_core.synthesis_qr(F)
    qrs = _count(monkeypatch, np.linalg, "qr")
    factored = _count(monkeypatch, np.linalg, "svd",
                      lambda A, *args, **kwargs: kwargs.get("compute_uv", True))
    values = _count(monkeypatch, np.linalg, "svd",
                    lambda A, *args, **kwargs: not kwargs.get("compute_uv", True))
    eighs = _count(monkeypatch, np.linalg, "eigh")
    build_report(document_from_frame(F, name=name), 1e-8)
    order = np.argsort(-np.linalg.norm(F.synthesis, axis=0), kind="stable")
    assert len(qrs) == 1 and np.array_equal(qrs[0][0], F.synthesis[:, order].T)
    supports = [A for (A, *_) in factored if A.shape[1] < F.m]
    assert all(A.shape[0] <= reduced_size(F.n) for A in supports)
    assert [A for (A, *_) in factored if A.shape[1] >= F.m] == []
    # the unit X, then R^{-1} and R in one call
    assert [A.shape for (A, *_) in values] == [F.synthesis.shape, (2, F.n, F.n)]
    assert np.array_equal(values[0][0], F.synthesis / numerics.column_norms(F.synthesis))
    assert np.array_equal(values[1][0], np.stack((qr.R_inv, qr.R)))
    assert eighs == []


@pytest.mark.parametrize("name, rounds", [("corank-1", 0), ("corank-1-unit", 0),
                                          ("corank-2", 0), ("strict", 0), ("p1", 1)])
def test_scale_auto_takes_at_most_one_svd_of_theta(tmp_path, monkeypatch, capsys, name, rounds):
    # scale asks the hull solver theta's question once, and its split of 1
    # answers it with no run of Wolfe's nearest point: in the first round on
    # every frame here but p1, in later rounds on p1; the solver does not
    # factor the unit theta, whatever its corank.
    # Only spanning tests read singular values: X is never factored, and the
    # scaled frame keeps X's spanning decision unless a weight is 0, as some
    # of p1's are
    F = _frame(name)
    theta = unit_diagram_matrix(F).data
    factored = _count(monkeypatch, np.linalg, "svd",
                      lambda A, *args, **kwargs: kwargs.get("compute_uv", True))
    spans = _count(monkeypatch, np.linalg, "svd",
                   lambda A, *args, **kwargs: not kwargs.get("compute_uv", True))
    hulls = _count(monkeypatch, numerics, "solve_feasibility")
    splits = _count(monkeypatch, numerics, "_split")
    nearest = count_nearest(monkeypatch)
    assert main(["scale", "--method", "auto", frame_file(tmp_path, F)]) in (0, 1)
    assert not any(np.array_equal(A, theta) for (A, *_) in factored)
    assert [np.array_equal(p.A, theta) for (p,) in hulls] == [True]
    assert (len(splits) > 1, nearest) == (bool(rounds), [])
    unit = F.synthesis / np.linalg.norm(F.synthesis, axis=0)
    retests = int("0" in capsys.readouterr().out.split())
    assert len(spans) == 1 + retests
    assert np.allclose(spans[0][0], unit, rtol=0, atol=1e-15)


def test_lp_route_forms_theta_column_norms_once_per_unit_matrix(monkeypatch):
    # the frame's unit theta divides by theta's column norms once, and the
    # hull solver asks its question of those unit columns as they are; its
    # unit-column weights go to the answer, which forms c from the same norms
    F = make_frame(FORCED_ZERO_FRAME)
    theta = reduced_diagram_matrix(F)
    norms = _count(monkeypatch, numerics, "column_norms",
                   lambda A: A.shape == theta.shape and np.array_equal(A, theta))
    [line] = route_lines(frame_from_synthesis(F.synthesis), "lp")
    assert not line.startswith("not scalable")
    assert theta.shape == (5, 6)
    assert len(norms) == 1


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_report_forms_each_column_norm_once(monkeypatch, name):
    # one report divides each matrix it asks the hull solver about by its
    # column norms exactly once: theta of the frame and of its canonical
    # dual, and the W and V blocks of a frame that is not scalable; the
    # solver itself forms none
    F = _frame(name)
    dual = canonical_dual(F)
    theta = reduced_diagram_matrix(F)
    wanted = {"theta": theta, "dual": reduced_diagram_matrix(dual),
              "W": theta[:F.n - 1], "V": theta[F.n - 1:]}
    calls = _count(monkeypatch, numerics, "column_norms")
    solves = _solves(monkeypatch)
    rep = build_report(document_from_frame(F, name=name), 1e-8)
    args = [A for (A,) in calls]
    keys = [(A.shape, A.tobytes()) for A in args]
    assert len(set(keys)) == len(keys)
    formed = [k for k, B in wanted.items()
              if any(A.shape == B.shape and np.array_equal(A, B) for A in args)]
    scalable = rep["scalability"]["verdict"] != NOT_SCALABLE
    assert formed == ["theta", "dual"] + ([] if scalable else ["W", "V"])
    assert len(solves) == len(formed)


# name: (frame, exit code of ``scale``, its corank, 1 where the split of 1
# answers ``scale`` only in a later round)
KERNEL_ROUTE_FRAMES = {
    "corank-1": (lambda: _frame("corank-1"), 0, 1, 0),
    "corank-1-unit": (lambda: _frame("corank-1-unit"), 1, 1, 0),
    "corank-1-quadrant": (lambda: make_frame([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]), 1, 1, 0),
    "corank-2": (lambda: _frame("corank-2"), 0, 2, 0),
    # every product x_1 x_2 is positive: the split of 1 answers first
    "corank-2-quadrant": (lambda: angles_frame(0.2, 0.7, 1.2, 1.4), 1, 2, 0),
    # the first split answers neither way: a later round does
    "corank-1-p1": (lambda: _frame("p1"), 0, 1, 1),
    "corank-2-dual": (lambda: canonical_dual(_frame("corank-2")), 0, 2, 1),
}


@pytest.mark.parametrize("name", sorted(KERNEL_ROUTE_FRAMES))
def test_scale_auto_answers_corank_1_and_2_without_an_lp(tmp_path, monkeypatch, capsys, name):
    # scale takes no SVD of theta on unit-norm columns and asks the hull
    # solver theta's question once, which its split of 1 answers, in a later
    # round where the table says so, with no run of Wolfe's nearest point;
    # the paper's cofactor and codim-2 routes, asked directly on a fresh
    # frame, answer alike from that one SVD, certificates included, with no
    # hull solve
    build, code, corank, rounds = KERNEL_ROUTE_FRAMES[name]
    F = build()
    theta = unit_diagram_matrix(F).data
    path = frame_file(tmp_path, F)
    route = {1: "cofactor", 2: "codim2"}[corank]
    for method, svds, solved, later in (("auto", 0, 1, rounds), (route, 1, 0, 0)):
        theta_svds = _count(monkeypatch, np.linalg, "svd",
                            lambda A, *args, **kwargs: np.array_equal(A, theta))
        solves = _count(monkeypatch, numerics, "solve_feasibility")
        splits = _count(monkeypatch, numerics, "_split")
        nearest = count_nearest(monkeypatch)
        if method == "auto":
            assert main(["scale", path]) == code
            [line] = capsys.readouterr().out.splitlines()
        else:
            [line] = route_lines(frame_from_synthesis(F.synthesis), method)
        assert line.startswith("not scalable; certificate y:") == (code == 1)
        # one split of theta per solve, and more where a later round answers
        assert (len(theta_svds), len(solves), len(splits) > solved, nearest) == (
            svds, solved, bool(later), []), method


POLICY_FRAMES = {name: (lambda name=name: _frame(name)) for name in FRAMES}
POLICY_FRAMES.update({name: build for name, (build, *_) in KERNEL_ROUTE_FRAMES.items()})


def _split_lps(F):
    """The W and V blocks on which a report on F runs the nearest point when
    F is not scalable: those whose block the solver's split of 1 does not
    answer."""
    return [block for block in "WV" if split_answer(F, block) is None]


def _block(p, G):
    """Which row block of G's theta the feasibility problem p asks about, on
    the block's own unit columns: "theta" (every row), "W" (the n-1 square
    differences) or "V" (the pair products), when p is homogeneous; else
    None."""
    if p.b.any():
        return None
    theta = reduced_diagram_matrix(G)
    blocks = {"theta": slice(None), "W": slice(G.n - 1), "V": slice(G.n - 1, None)}
    return next((k for k, rows in blocks.items()
                 if np.array_equal(p.A, theta[rows] / numerics.column_norms(theta[rows]))),
                None)


@pytest.mark.parametrize("name", sorted(POLICY_FRAMES))
def test_every_command_answers_with_decide(tmp_path, monkeypatch, capsys, name):
    # analyze, scale --method auto|split and the canonical-dual check take
    # one route policy, and every hull question they ask is homogeneous on a
    # row block of theta: theta's own when the split of 1 does not answer,
    # then the W and V ones of a frame that is not scalable, each running the
    # nearest point when the solver's split of 1 on its block does not
    # answer.  No unit theta is factored
    F = POLICY_FRAMES[name]()
    path = frame_file(tmp_path, F)
    command_solves = _solves(monkeypatch)
    answer = decide(frame_from_synthesis(F.synthesis))
    for strict in ([], ["--strict"]):
        code = main(["scale", path] + strict)
        assert code == (0 if answer.scalable else 1)
        assert capsys.readouterr().out.splitlines()[-1] == printed_line(answer)
        code = main(["scale", "--method", "split", path] + strict)
        assert code == (0 if answer.scalable else 1)
        assert ("certificate y:" in capsys.readouterr().out) == (not answer.scalable)
    assert all(_block(p, F) == "theta" for p, _ in command_solves)

    want = decide(frame_from_synthesis(F.synthesis))
    dual = canonical_dual(F)
    thetas = [unit_diagram_matrix(G).data for G in (F, dual)]
    svds = _count(monkeypatch, np.linalg, "svd",
                  lambda A, *args, **kwargs: any(np.array_equal(A, t) for t in thetas))
    solves = _solves(monkeypatch)
    got = build_report(document_from_frame(F, name=name), 1e-8)["scalability"]

    def listed(a):
        return None if a is None else a.tolist()

    assert got == {
        "verdict": want.verdict,
        "method": want.method,
        "weights_c": listed(want.weights_c),
        "scalars_a": listed(want.scalars_a),
        "certificate_y": listed(want.certificate_y),
        "reject_row": None,
        "near_zero": want.near_zero,
    }
    assert svds == []
    blocks = [_block(p, F) or ("dual" if _block(p, dual) == "theta" else None)
              for p, _ in solves]
    assert None not in blocks
    frame_blocks = [b for b in blocks if b != "dual"]
    assert frame_blocks == (["theta"] * (want.method == METHOD_FEASIBILITY)
                            + ([] if want.scalable else ["W", "V"]))
    runs = [b for b, (_, n) in zip(blocks, solves) if b in ("W", "V") and n]
    assert runs == ([] if want.scalable else _split_lps(F))


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_report_asks_each_question_once(monkeypatch, name):
    # every hull question of the report is homogeneous on a row block of
    # theta, the frame's or its dual's; at most one of theta decides
    # scalability, strict or not; W and V are read from its answer, so they
    # are asked only on frames that are not scalable, once each, and run the
    # nearest point only when the solver's split of 1 on their block does
    # not answer
    F = _frame(name)
    dual = canonical_dual(F)
    calls = _solves(monkeypatch)
    rep = build_report(document_from_frame(F, name=name), 1e-8)
    solved = [_block(p, F) or ("dual" if _block(p, dual) == "theta" else None)
              for p, _ in calls]
    verdict = rep["scalability"]["verdict"]
    assert None not in solved
    assert solved.count("theta") <= 1 and solved.count("dual") <= 1
    if verdict == NOT_SCALABLE:
        assert [solved.count(k) for k in "WV"] == [1, 1]
        nearest = [k for k, (_, runs) in zip(solved, calls) if k in "WV" and runs]
        assert nearest == _split_lps(F)
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
