"""The checks that guard each computed answer, forced to fail one at a time.

Every answer is re-checked against the identity it must satisfy, and a
failed check is an ``InternalNumericError``.  Where the error reaches the
command line, ``framescale`` exits 3 with one ``numeric failure:`` line;
no route catches it.  No corpus frame fails a check, so each test breaks
one input of its check with monkeypatch."""

import dataclasses

import numpy as np
import pytest

from framescale import alternate_dual_from_scaling, duals, numerics
from framescale import cli, scalability, split_scaling
from framescale.cli import main
from framescale.errors import InternalNumericError
from framescale.frame_core import Tightness, frame_from_synthesis, make_frame
from framescale.scalability import METHOD_FEASIBILITY, decide
from conftest import angles_frame, frame_file

MB = angles_frame(0.0, 2 * np.pi / 3, 4 * np.pi / 3)  # tight, so scalable
# not scalable, but sum_i a_i x_i x_i^T has a constant diagonal for some
# a > 0: W is not empty
NOT_SCALABLE = make_frame([[1.0, 0.1], [0.9, 0.5], [0.5, 1.0]])
# S = diag(3e6, 3): an error that the S^2 identity, against max |S^2| = 9e12,
# cannot see shows in the Parseval identity of the dual, against 1
ILL_CONDITIONED = make_frame([[1e3, 0.0], [0.0, 1.0], [1e3, 1.0], [1e3, -1.0]])
CORANK_2 = make_frame([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0], [-1.0, 1.0]])
# scalable, but the split of 1 on its theta answers neither way: ``scale``
# asks the hull solver's nearest point
SPLIT_OPEN = make_frame([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])


def _run(tmp_path, capsys, F, *command):
    """(exit code, stderr) of ``framescale <command> <file of F>``."""
    code = main([*command, frame_file(tmp_path, F)])
    return code, capsys.readouterr().err


def _numeric_failure(message):
    return f"numeric failure: {message}\n"


def test_scale_rechecks_tightness(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_tight", lambda F: Tightness(tight=False))
    assert _run(tmp_path, capsys, MB, "scale") == (
        3, _numeric_failure("reported scaling does not make the frame tight"))


def test_canonical_dual_rechecks_reconstruction(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(duals, "is_dual", lambda F, G: False)
    assert _run(tmp_path, capsys, MB, "dual") == (
        3, _numeric_failure("canonical dual fails the reconstruction identity"))


def test_alternate_dual_rechecks_reconstruction(monkeypatch):
    a = np.full(3, np.sqrt(2 / 3))  # MB's Parseval scaling
    alternate_dual_from_scaling(MB, a)
    monkeypatch.setattr(duals, "is_dual", lambda F, G: False)
    with pytest.raises(InternalNumericError, match="alternate dual fails the reconstruction"):
        alternate_dual_from_scaling(MB, a)


def _change_dual_weights(monkeypatch, change):
    """``duals.decide`` with the weights c of a scalable dual replaced by
    ``change(c, unit)``, for unit = sum_i c_i ||z_i||^2 / n, the scale that
    the report divides c by."""
    decide_dual = duals.decide

    def changed(G):
        result = decide_dual(G)
        c = result.weights_c
        unit = float(c @ (G.synthesis ** 2).sum(axis=0)) / G.n
        return dataclasses.replace(result, weights_c=change(c, unit))

    monkeypatch.setattr(duals, "decide", changed)


def test_dual_scaling_rechecks_the_s2_identity(tmp_path, capsys, monkeypatch):
    assert _run(tmp_path, capsys, ILL_CONDITIONED, "dual", "--check-scalable")[0] == 0
    # 0.1% more weight on x_1 = (1e3, 0) moves the largest entry of S^2
    _change_dual_weights(monkeypatch, lambda c, unit: c * [1.001, 1.0, 1.0, 1.0])
    assert _run(tmp_path, capsys, ILL_CONDITIONED, "dual", "--check-scalable") == (
        3, _numeric_failure("dual-scaling weights fail the S^2 identity"))


def test_dual_scaling_rechecks_the_parseval_identity(tmp_path, capsys, monkeypatch):
    # weight moved from z_4 to z_3, of equal norms, changes only the
    # off-diagonal entry of sum_i c_i z_i z_i^T, by 0.1 * 2 / 9e3, and the
    # one of sum_i c_i x_i x_i^T by 0.1 * 2e3, far below 1e-7 * 9e12
    _change_dual_weights(monkeypatch, lambda c, unit: c + unit * np.array([0, 0, 0.1, -0.1]))
    assert _run(tmp_path, capsys, ILL_CONDITIONED, "dual", "--check-scalable") == (
        3, _numeric_failure("scaled canonical dual fails the Parseval identity"))


def _doubled_w_point(monkeypatch):
    w_point = split_scaling.w_point
    monkeypatch.setattr(split_scaling, "w_point", lambda F, c: 2.0 * w_point(F, c))


def test_block_element_rechecks_its_point(tmp_path, capsys, monkeypatch):
    # on a frame that is not scalable, analyze asks W on its own block
    _doubled_w_point(monkeypatch)
    assert _run(tmp_path, capsys, NOT_SCALABLE, "analyze", "--json") == (
        3, _numeric_failure("kernel vector of the block fails is_in_W"))


def test_intersection_points_recheck_w_and_v(tmp_path, capsys, monkeypatch):
    # on a scalable frame, analyze reads W and V off the weights of decide
    _doubled_w_point(monkeypatch)
    assert _run(tmp_path, capsys, MB, "analyze", "--json") == (
        3, _numeric_failure("reported weights fail the W or V identities"))


def test_solver_rejects_an_answer_of_neither_kind(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(numerics, "_hull", lambda P: (None, None))
    assert _run(tmp_path, capsys, SPLIT_OPEN, "scale") == (
        3, _numeric_failure("nearest point passes neither the kernel identity "
                            "nor the hull sign test"))


def test_solver_rechecks_its_witness(tmp_path, capsys, monkeypatch):
    # all weight on one column: theta's first column is not 0
    monkeypatch.setattr(numerics, "_hull", lambda P: (None, np.eye(P.shape[1])[0]))
    assert _run(tmp_path, capsys, SPLIT_OPEN, "scale") == (
        3, _numeric_failure("hull witness fails the kernel identity"))


def test_codim2_rechecks_the_sign_of_its_weights(monkeypatch):
    # the route has no command: it is asked directly, on a fresh frame
    assert scalability.codim2_scaling(frame_from_synthesis(CORANK_2.synthesis)).scalable
    # the opposite of the bisector of the feasible arc: every weight negated
    feasible_arc = scalability._feasible_arc

    def opposite(*args, **kwargs):
        t, width = feasible_arc(*args, **kwargs)
        return t + np.pi, width

    monkeypatch.setattr(scalability, "_feasible_arc", opposite)
    with pytest.raises(InternalNumericError,
                       match="^codim-2 direction produced a negative weight$"):
        scalability.codim2_scaling(frame_from_synthesis(CORANK_2.synthesis))


def test_projection_that_fails_its_check_is_a_numeric_failure(tmp_path, capsys, monkeypatch):
    # every product x_1 x_2 is positive: the hull solver's split of 1 gives
    # the certificate, and a failed check is not handed on
    F = make_frame([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    assert decide(F).method == METHOD_FEASIBILITY
    monkeypatch.setattr(scalability, "hull_certificate_check", lambda F, y: False)
    assert _run(tmp_path, capsys, F, "analyze", "--json") == (
        3, _numeric_failure("feasibility certificate fails the hull certificate check"))


def test_nearest_point_stops_at_an_affinely_dependent_corral(monkeypatch):
    # the hull of these unit columns misses 0; the second minor cycle finds
    # its corral affinely dependent, and Wolfe's loop keeps the point it has
    rng = np.random.default_rng(3)
    P = rng.standard_normal((3, 9)) + np.array([[2.0], [0.0], [0.0]])
    P /= numerics.column_norms(P)
    x, w = numerics.nearest_point(P)
    minor_cycles = numerics._minor_cycles
    calls = []

    def dependent(*args):
        calls.append(args)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        return minor_cycles(*args)

    monkeypatch.setattr(numerics, "_minor_cycles", dependent)
    stopped, weights = numerics.nearest_point(P)
    assert len(calls) == 2
    assert weights.min() >= 0.0 and np.isclose(weights.sum(), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(P @ weights, stopped, rtol=0, atol=1e-12)
    assert np.linalg.norm(stopped) >= np.linalg.norm(x) - 1e-12

