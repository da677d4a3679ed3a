"""Frames on which the simplex, the LP solver that the hull solver
replaced, used to end in a numeric failure: a negative witness entry, a
large witness residual, a failed hull sign test, or the iteration cap.
Each must now get its verdict from the general test, the W/V intersection
(plain and strict) and the full report.  In the n = 8, m = 80 frame the
plain LP ran into a long stretch of degenerate pivots, where pricing fell
back to Bland's rule.  The strict W/V intersection of the n = 4, m = 11
frame, when it was an LP of its own, had a margin at zero and a witness
entry just below -1e-12: that witness must be discarded as not strict
before it is checked for sign."""

import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from framescale import (
    canonical_dual,
    canonical_dual_scalable,
    decide,
    intersection_scalability,
    make_frame,
    numerics,
)
from framescale.cli import build_report, main
from framescale.frame_core import apply_scaling, is_tight
from framescale.framedoc import document_from_frame
from framescale.errors import InternalNumericError, NotSpanningError
from framescale.scalability import codim2_scaling, cofactor_scaling, hull_certificate_check
from framescale.diagram import unit_diagram_matrix
from framescale.scalability import (
    METHOD_FEASIBILITY,
    NOT_SCALABLE,
    SCALABLE,
    STRICTLY_SCALABLE,
)
from conftest import (
    NEAR_PARALLEL_FRAME,
    frame_file,
    random_scalable_frame,
    rescaled_harmonic_frame,
    route_lines,
    tiny_row_frame,
    two_block_frame,
    wolfe_decide,
)

# scalable, but not strictly: the frame 021-not-strict-n4-m11 of the
# benchmark corpus analyze-grid, seed 7
NOT_STRICT_N4_M11 = [
    [0.072790562239664694, 0.31249858930493785, -0.14867667568926896, -0.06126024662714509],
    [0.21776974051744413, 0.69314100983710947, 0.26147303308706171, 0.048966708853048768],
    [0.11108526208701151, 0.29192282291520044, 0.31347779116616814, 0.084199389260937285],
    [-0.042961371981020485, -0.3185324448271874, 0.47947303101862887, 0.16496477344018431],
    [0.00058417613123407368, 0.070426694517277927, -0.19960125761868133, -0.065733296904524993],
    [0.18555392361816872, -0.047780832922962577, -0.043119557288747175, 0.081390530582292994],
    [-1.1234565157883554, 0.33775512193326857, -0.059297667485085394, 0.53194607548290707],
    [-0.24660976719967317, 0.11306175333499599, -0.27032039014131753, 0.93977930159032441],
    [0.11021979475003385, -0.024018564391645205, -0.054459501609315078, 0.14061404374801909],
    [-0.4215397437614285, 0.10534829089289588, 0.11911203216557689, -0.25256352192284065],
    [0.73045162929184415, -0.60714275601200962, -0.2643593824036396, 0.16712931526873931],
]

CASES = [
    pytest.param(lambda rng: rescaled_harmonic_frame(rng, 8, 32), 0, STRICTLY_SCALABLE,
                 id="harmonic-n8-m32"),
    pytest.param(lambda rng: rescaled_harmonic_frame(rng, 6, 21), 0, STRICTLY_SCALABLE,
                 id="harmonic-n6-m21"),
    pytest.param(lambda rng: two_block_frame(rng, 6, 16), 6, SCALABLE,
                 id="two-block-n6-m16"),
    pytest.param(lambda rng: random_scalable_frame(rng, 8, 80)[0], 2, STRICTLY_SCALABLE,
                 id="scalable-n8-m80"),
    pytest.param(lambda rng: make_frame(NOT_STRICT_N4_M11), 0, SCALABLE,
                 id="not-strict-n4-m11"),
]


def _assert_tightens(F, result):
    assert is_tight(apply_scaling(F, result.scalars_a)).tight


@pytest.mark.parametrize("build,seed,expected", CASES)
def test_frame_is_decided(build, seed, expected):
    F = build(np.random.default_rng(seed))

    for result in (decide(F), intersection_scalability(F)):
        assert result.verdict == expected
        _assert_tightens(F, result)

    report = build_report(document_from_frame(F, name="regression"), 1e-8)
    assert report["scalability"]["verdict"] == expected
    assert report["split"]["intersection_verdict"] == SCALABLE



# Valid frames that used to end in exit 3.  Each must now get a checked
# answer (exit 0 or 1) from the command that failed on it.

# integer vectors (2,2), (2,2), (1,0), (1,0), (-2,2), (1,1) times per-vector
# scales 10^U(-4,4): phase 1 of the plain LP of its canonical dual skipped a
# row whose entry was below the pivot threshold and drove it to -5.5e-11
CLAMP_FRAME = [
    [24.930069787295281, 24.930069787295281],
    [0.028795439121672654, 0.028795439121672654],
    [0.00021271013904769289, 0.0],
    [0.00013558794678123515, 0.0],
    [-641.49298163968456, 641.49298163968456],
    [2004.6779718925357, 2004.6779718925357],
]

# the frame 021-not-strict-n4-m11 of analyze-grid, seed 10: phase 1 of the
# plain W/V LP pivoted on a row whose rhs was -4.3e-15 of rounding noise
SPLIT_FRAME = [
    [-0.093057471359697941, -0.16604781648172887, 0.51953784559218363, 0.40237838021753292],
    [-0.059587585568753432, -0.14005005717776114, 0.22762792559503078, -0.12401945391514159],
    [-0.05242403736026581, -0.091721517221197618, 0.29835672625929899, 0.24729752037882619],
    [-0.056088580053765859, -0.1145340247360087, 0.26812505562961542, 0.078966868832203732],
    [0.06358102395058679, 0.17396193344005173, -0.16648712587412803, 0.40990254662968645],
    [0.48629528280941653, -0.23210922650362031, -0.0037676809682835261, 0.021545968634443323],
    [-0.049880119989275697, -0.4169524149451227, -0.21698115438525598, 0.096561265410616576],
    [0.055499609665404272, 0.20328716149876222, 0.11288811207361628, -0.049032465179860291],
    [0.3821616999496979, -0.0083939666593047749, 0.082855875413747032, -0.022062719646787694],
    [-0.29644981978331159, -0.043418408535117657, -0.088896438544354611, 0.028303363638856358],
    [-0.11930085491106329, 0.63805097522190601, 0.74114063364862703, -0.17137333570534122],
]

# strictly scalable with a smallest unit-column weight of about 2e-8: phase 1
# of the strict LP declared it infeasible with a Farkas row that is no
# certificate
SMALL_MARGIN_FRAME = [[1.0, 2.0], [0.00970761980799541, -0.004853809765014522],
                      [0.0, -44.698600038634424]]

# corank 2 with two kernel rows in opposite directions: the widest gap
# between the normal angles is pi in exact arithmetic, and the computed
# angles carry rounding of the size the near-duplicate pair allows
CODIM2_BOUNDARY_FRAME = [[-9879.111235623666, 9879.111235623666],
                         [-0.9999989633906269, -1.9999979267812538],
                         [277.39566883985776, 277.39566883985776],
                         [-9879.110638513028, 9879.111235623666]]

# corank 2, scalable but not strictly: phase 1 of the strict LP left an
# artificial at 2.3e-17 in the basis, and driving it out on a pivot element
# of -8.7e-8 made the margin -2.7e-10
DRIVE_OUT_FRAME = [[-1.0, 0.0, 0.0], [-1.0, 0.0, 5e-08], [0.0, -1.0, 0.0],
                   [-1.0, 0.0, 0.0], [1.0, -1.0, -1.0], [0.0, 0.0, -1.0]]

# near-duplicate corank-1 frames: vector 1 is vector 0 plus -7.1e-8 in its
# last entry.  The plain and strict LPs of the second ended with a witness
# entry below -1e-12; the strict LP of the first does so too when the drift
# window is keyed to the smallest ratio: a pivot tied within ZERO_TOL with a
# degenerate one moved its entering variable by 3e-17, and a later pivot on
# an entry of 3.8e-8 turned the -1e-17 drift that it left into -2.8e-10
NEAR_DUPLICATE_FRAMES = {
    "first": [[-1.0, 1.0, 0.0], [-1.0, 1.0, -7.0710678118654758e-08], [2.0, -1.0, -1.0],
              [-1.0, -1.0, 2.0], [-1.0, 0.0, 0.0], [-1.0, -1.0, -1.0]],
    "second": [[-1.0, 1.0, 0.0], [-1.0, 1.0, -7.0710678118654758e-08], [1.0, -2.0, -1.0],
               [-1.0, -1.0, 2.0], [-1.0, 0.0, 0.0], [-1.0, -1.0, -1.0]],
}


def _run(tmp_path, capsys, vectors, *args):
    """The exit code and the (out, err) pair of the command ``args`` on a
    frame file of ``vectors``."""
    command, *options = args
    path = frame_file(tmp_path, make_frame(vectors))
    return main([command, path, *options]), capsys.readouterr()


def _lp(vectors, strict=False):
    """The lines ``scale`` would print for the answer of the hull solver's
    Wolfe path on a frame of ``vectors`` (``route_lines``), with --strict if
    ``strict``; the rows and loops named ``lp`` ask it."""
    return route_lines(make_frame(vectors), "lp", strict)


def _printed_certificate(text):
    return [float(v) for v in text.split("certificate y:")[1].split()]


def test_clamp_frame_analyze(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, CLAMP_FRAME, "analyze", "--json")
    assert code == 0, out.err
    report = json.loads(out.out)
    assert report["scalability"]["verdict"] == SCALABLE
    assert report["dual"]["dual_scalable"] is True
    F = make_frame(CLAMP_FRAME)
    assert is_tight(apply_scaling(F, report["scalability"]["scalars_a"])).tight


def test_clamp_frame_dual_check_scalable(tmp_path, capsys):
    # cmd_dual re-checks that the weights make the dual tight
    code, out = _run(tmp_path, capsys, CLAMP_FRAME, "dual", "--check-scalable")
    assert code == 0, out.err
    assert "dual scalable; weights c:" in out.out


def test_split_frame_seed10(tmp_path, capsys):
    # cmd_scale re-checks that the printed scalars make the frame tight
    code, out = _run(tmp_path, capsys, SPLIT_FRAME, "scale", "--method", "split")
    assert code == 0, out.err
    assert intersection_scalability(make_frame(SPLIT_FRAME)).verdict == SCALABLE


@pytest.mark.parametrize("args", [("analyze", "--json"), "lp",
                                  ("scale", "--method", "split", "--strict")],
                         ids=["analyze", "lp-strict", "split-strict"])
def test_strict_lp_small_margin(tmp_path, capsys, args):
    if args == "lp":
        lines = _lp(SMALL_MARGIN_FRAME, strict=True)
        assert not lines[-1].startswith("not scalable")
        assert "scalable, but not strictly" not in lines
    else:
        code, out = _run(tmp_path, capsys, SMALL_MARGIN_FRAME, *args)
        assert code == 0, out.err
        assert "not strictly" not in out.out
    F = make_frame(SMALL_MARGIN_FRAME)
    _, cofactor = cofactor_scaling(F)
    assert decide(F).verdict == cofactor.verdict == STRICTLY_SCALABLE
    if args[0] == "analyze":
        assert json.loads(out.out)["scalability"]["verdict"] == STRICTLY_SCALABLE


def test_codim2_boundary(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, CODIM2_BOUNDARY_FRAME, "scale")
    assert code == 0, out.err
    F = make_frame(CODIM2_BOUNDARY_FRAME)
    assert codim2_scaling(F).verdict == decide(F).verdict == SCALABLE


@pytest.mark.parametrize("args", [("analyze", "--json"), "lp"], ids=["analyze", "lp-strict"])
def test_strict_lp_drives_out_artificials_at_zero(tmp_path, capsys, args):
    if args == "lp":
        assert not _lp(DRIVE_OUT_FRAME, strict=True)[-1].startswith("not scalable")
    else:
        code, out = _run(tmp_path, capsys, DRIVE_OUT_FRAME, *args)
        assert code == 0, out.err
    F = make_frame(DRIVE_OUT_FRAME)
    assert codim2_scaling(F).verdict == decide(F).verdict == SCALABLE


@pytest.mark.parametrize("name", sorted(NEAR_DUPLICATE_FRAMES))
@pytest.mark.parametrize("args", [("analyze", "--json"), "lp"], ids=["analyze", "lp-strict"])
def test_near_duplicate_lp_witness_stays_nonnegative(tmp_path, capsys, args, name):
    if args == "lp":
        assert not _lp(NEAR_DUPLICATE_FRAMES[name], strict=True)[-1].startswith("not scalable")
    else:
        code, out = _run(tmp_path, capsys, NEAR_DUPLICATE_FRAMES[name], *args)
        assert code == 0, out.err
    F = make_frame(NEAR_DUPLICATE_FRAMES[name])
    assert decide(F).verdict == SCALABLE


# near-duplicate corank-1 frames whose cofactor answer fails its kernel
# identity: the kernel entry of the near-duplicate pair is below the sign
# threshold, which scales with s_1/s_r, but theta c is then left above
# RESIDUAL_TOL, which does not.  ``scale`` used to end them in exit 3
COFACTOR_FALLBACK_FRAMES = {
    "n3-m6": NEAR_DUPLICATE_FRAMES["second"],
    "n2-m3": [[-1.0, 1.1920929e-14], [0.0, -1.0], [-1.0, 1e-7]],
}


@pytest.mark.parametrize("name", sorted(COFACTOR_FALLBACK_FRAMES))
def test_near_duplicate_cofactor_falls_back_to_the_lp(tmp_path, capsys, name):
    vectors = COFACTOR_FALLBACK_FRAMES[name]
    with pytest.raises(InternalNumericError, match="kernel identity"):
        cofactor_scaling(make_frame(vectors))
    code, out = _run(tmp_path, capsys, vectors, "scale")
    assert code == 0, out.err
    assert (out.out.splitlines(), out.err) == (_lp(vectors), "")
    code, out = _run(tmp_path, capsys, vectors, "analyze", "--json")
    assert code == 0, out.err


def test_near_parallel_frame_is_not_scalable_on_every_route(tmp_path, capsys):
    F = make_frame(NEAR_PARALLEL_FRAME)
    code, out = _run(tmp_path, capsys, NEAR_PARALLEL_FRAME, "analyze", "--json")
    assert code == 0, out.err
    s = json.loads(out.out)["scalability"]
    assert (s["verdict"], s["method"]) == (NOT_SCALABLE, METHOD_FEASIBILITY)
    assert hull_certificate_check(F, s["certificate_y"])
    for method in ("auto", "lp", "split", "cofactor"):
        if method in ("auto", "split"):
            code, out = _run(tmp_path, capsys, NEAR_PARALLEL_FRAME, "scale", "--method", method)
            assert code == 1, (method, out.err)
            [line] = out.out.splitlines()
        else:
            [line] = route_lines(make_frame(NEAR_PARALLEL_FRAME), method)
        assert line.startswith("not scalable; certificate y: "), method
        assert hull_certificate_check(F, _printed_certificate(line)), method


# a near-duplicate pair, (0, -20, -10) and (0, -20, -9.999998881966011): the
# Farkas row of the W∩V LP, when the split route had one of its own, failed
# its sign test, with entries of y.theta^ up to 1e16, and ``scale --method
# split`` ended in exit 3.  The route now answers with ``decide``, whose
# certificate passes the hull test
SPLIT_NEAR_DUPLICATE_FRAME = [[0.0, -20.0, -10.0], [-1.0, 0.0, 0.0], [-1.0, 0.0, 1.0],
                              [-1.0, 2.0, 0.0], [1.0, 1.0, -1.0],
                              [0.0, -20.0, -9.999998881966011], [-1.0, 0.0, 0.0]]


def test_split_near_duplicate_takes_the_certificate_of_the_split(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, SPLIT_NEAR_DUPLICATE_FRAME, "scale", "--method", "split")
    assert code == 1, out.err
    F = make_frame(SPLIT_NEAR_DUPLICATE_FRAME)
    assert hull_certificate_check(F, _printed_certificate(out.out))
    assert intersection_scalability(F).verdict == NOT_SCALABLE
    code, out = _run(tmp_path, capsys, SPLIT_NEAR_DUPLICATE_FRAME, "scale")
    assert code == 1, out.err


def test_near_parallel_split_route_agrees_with_scale(tmp_path, capsys):
    # the W∩V LP of the split route used to accept weights here, as the plain
    # LP does, and print 1 1 0; the route now answers with ``decide``
    code, out = _run(tmp_path, capsys, NEAR_PARALLEL_FRAME, "scale", "--method", "split")
    assert code == 1, out.err
    assert hull_certificate_check(make_frame(NEAR_PARALLEL_FRAME), _printed_certificate(out.out))
    assert (code, out) == _run(tmp_path, capsys, NEAR_PARALLEL_FRAME, "scale")


# a drawn frame (seed 11, per-vector scales 10^U(-8, 8)) whose canonical dual
# has no scaling: the dual's S^2 system needs c_4 = tr S, about 218, on its
# off-diagonal, which then overshoots the diagonal of the small eigenvalue.
# The certificate is the facet point of Wolfe's corral on the dual, whose
# second entry, -5.2e-19, is exact; when the hull solver set it to 0, no
# certificate cleared, Wolfe's weights passed their residual check with c_4
# about 14.3, and ``dual --check-scalable`` printed "dual scalable"
DRAWN_DUAL_FRAME = [[-0.7098161036691746, 0.7098161036691746],
                    [7.460273914600694e-07, -7.460273914600694e-07],
                    [-2.866057452023323, -2.866057452023323],
                    [10.002639224416038, 10.002639224416038],
                    [-0.11127963624041412, 0.11127964292393336]]


def test_drawn_frame_dual_is_not_scalable(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, DRAWN_DUAL_FRAME, "dual", "--check-scalable")
    assert code == 0, out.err
    assert out.out.splitlines()[-1] == "dual not scalable"
    code, out = _run(tmp_path, capsys, DRAWN_DUAL_FRAME, "analyze", "--json")
    assert code == 0, out.err
    assert json.loads(out.out)["dual"]["dual_scalable"] is False
    F = make_frame(DRAWN_DUAL_FRAME)
    dual = canonical_dual(F).dual
    assert hull_certificate_check(dual, canonical_dual_scalable(F).certificate_y)
    # HiGHS finds no c >= 0, sum 1, with theta^ c = 0 on the dual's unit theta
    linprog = pytest.importorskip("scipy.optimize").linprog
    P = unit_diagram_matrix(dual).data
    k, m = P.shape
    res = linprog(np.zeros(m), A_eq=np.vstack([P, np.ones(m)]), b_eq=np.eye(k + 1)[k],
                  bounds=(0.0, None), method="highs")
    assert res.status == 2, res.message


def test_near_duplicate_lp_route_prints_a_certificate():
    # the simplex's Farkas row on this frame failed the strict sign test, and
    # ``scale --method lp`` ended in exit 3 with or without --strict; the
    # hull solver's certificate separates with min theta^^T y about 0.065
    F = make_frame(SPLIT_NEAR_DUPLICATE_FRAME)
    for strict in (False, True):
        [line] = _lp(SPLIT_NEAR_DUPLICATE_FRAME, strict)
        assert line.startswith("not scalable; certificate y: ")
        assert hull_certificate_check(F, _printed_certificate(line))


# theta column norms below the normal float range: 1e-312 for the tiny
# vector of the first frame, 8e-312 for the first vector of the second, and
# 1e-320 for the 1e-160 vector of the last two.  A weight w_i / ||theta_i||
# on them used to overflow: most commands ended in exit 3 ("reported weights
# are not finite"), and whether ``scale`` did depended on the order of the
# vectors.  Now each command answers alike on every order; the Parseval
# weights of ``analyze`` and ``scale --method split`` leave the float range
# (exit 2), and the canonical dual of the 1e-160 pair is still a numeric
# failure (exit 3)
RANGE_FRAMES = {
    "tiny-vector": [[1.0, 0.0], [0.0, 1.0], [1e-156, 0.0]],
    "pair": [[-2e-156, -2e-156], [-2.0, 2.0], [1.0, 2.0]],
    "subnormal-square": [[1e-160, 0.0], [0.0, 1.0]],
    "subnormal-square-3": [[1e-160, 0.0], [0.0, 1.0], [1.0, 1.0]],
}
RANGE_COMMANDS = [("scale",), ("scale", "--strict"), "lp", ("scale", "--method", "split"),
                  ("analyze", "--json"), ("dual", "--check-scalable")]


@pytest.mark.parametrize("name", sorted(RANGE_FRAMES))
def test_range_frames_answer_alike_in_every_order(tmp_path, capsys, name):
    # "lp" asks the hull solver alone: its verdict stands for scale's exit
    # code, and an error of it fails the test
    for args in RANGE_COMMANDS:
        codes = set()
        for order in itertools.permutations(RANGE_FRAMES[name]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if args == "lp":
                    lines, err = _lp(order), ""
                    code = int(lines[-1].startswith("not scalable"))
                else:
                    code, (out, err) = _run(tmp_path, capsys, order, *args)
                    lines = out.splitlines()
            codes.add(code)
            if code == 0 and args[0] in ("scale", "lp"):
                scalars = [float(v) for v in lines[-1].split()]
                assert is_tight(apply_scaling(make_frame(order), scalars)).tight, (order, args)
        assert len(codes) == 1, (args, codes)
        exempt = name == "subnormal-square" and args[0] == "dual"
        assert codes != {3} or exempt, (args, err)


# the frames of RANGE_FRAMES whose theta column norms are subnormal.  The
# division w_i / ||theta_i|| used to warn, so that with warnings as errors
# the commands ended in a traceback, which for ``scale`` read as exit 1,
# "not scalable"; now each command exits alike with and without warnings as
# errors, and only the Parseval weights of ``analyze`` leave the float range
SUBNORMAL_NORM_COMMANDS = {("scale",): 0, ("scale", "--strict"): 0, ("analyze", "--json"): 2}


@pytest.mark.parametrize("name", ["pair", "tiny-vector"])
def test_overflowing_weights_exit_the_same_with_warnings_as_errors(tmp_path, capsys, name):
    for args, expected in SUBNORMAL_NORM_COMMANDS.items():
        code, _ = _run(tmp_path, capsys, RANGE_FRAMES[name], *args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict_code, out = _run(tmp_path, capsys, RANGE_FRAMES[name], *args)
        assert strict_code == code == expected, (args, out.err)
        if expected == 2:
            assert out.err == "error: Parseval weights leave the float range\n"


def test_overflowing_weights_are_shifted_into_range(tmp_path, capsys):
    # w_i / ||theta_i|| overflows on the tiny vector; the codim-2 route used
    # to raise "not finite" there and ``scale`` fell through to the LP, which
    # weighted the tiny vector 0.  Shifted by one power of two, the weights
    # keep their ratios and the tiny vector gets its positive scalar
    F = make_frame(RANGE_FRAMES["tiny-vector"])
    for result in (codim2_scaling(F), decide(F)):
        assert result.verdict == STRICTLY_SCALABLE
        np.testing.assert_allclose(result.scalars_a, [1e-156, 2 ** 0.5 * 1e-156, 1.0])
    for strict in ((), ("--strict",)):
        code, out = _run(tmp_path, capsys, RANGE_FRAMES["tiny-vector"], "scale", *strict)
        assert code == 0, out.err
        assert out.out == "9.99999999999e-157 1.41421356237e-156 1\n"


# the (1, 2) product row of theta is nonzero only at vector 2, about -4e-8
# on unit columns, so every kernel vector gives that vector weight 0.  The
# split of 1 on all of theta has a strictly positive kernel part that passes
# the kernel identity to within RESIDUAL_TOL by leaning on a row-space
# direction of singular value about 4e-8, which leaves room for a
# certificate that clears ZERO_TOL; decide took it and called the frame
# strictly scalable
FORCED_ZERO_FRAME = [[-1.0, 0.0, 0.0], [1.0, 0.0, -1.0], [-1.0, 2.5e-8, 0.0],
                     [0.0, 0.0, -1.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]]


def test_split_kernel_part_that_leaves_a_margin_is_not_taken(tmp_path, capsys):
    F = make_frame(FORCED_ZERO_FRAME)
    for result in (decide(F), codim2_scaling(F)):
        assert (result.verdict, result.near_zero) == (SCALABLE, [2])
    code, out = _run(tmp_path, capsys, FORCED_ZERO_FRAME, "scale", "--strict")
    assert code == 0, out.err
    assert out.out.splitlines()[0] == "scalable, but not strictly"


# corank 2, and every kernel vector gives vector 5 weight 0: its row of the
# codim-2 kernel basis has length about 2.4e-9, within the accuracy of that
# basis of 0 (about 5.5e-5, s_1/s_r about 7.5e7).  The codim-2 route
# judged no angle there but kept the bisector's entry, 6.9e-10, and called
# the frame strictly scalable
CODIM2_FORCED_ZERO_FRAME = [[0.0, -2.0, -1.0], [1.0, 0.0, -1.0], [1.0, 0.0, 1.0],
                            [-1.0, 2.0, 0.0], [2.0, 2.0, -2.0],
                            [0.0, -2.0, -0.9999997763932023], [1.0, 0.0, -1.0]]


def test_codim2_entry_within_the_kernel_accuracy_of_0_gets_weight_0():
    F = make_frame(CODIM2_FORCED_ZERO_FRAME)
    result = codim2_scaling(F)
    assert (result.verdict, result.near_zero) == (SCALABLE, [5])
    _assert_tightens(F, result)
    assert route_lines(F, "codim2", strict=True)[0] == "scalable, but not strictly"


# when decide took the codim-2 route on the frame above it answered
# "strictly scalable", against the hull solver's forced zero on vector 5,
# which the solver's Wolfe path finds alone too
def test_decide_agrees_with_the_hull_solver_on_strictness(tmp_path, capsys):
    F = make_frame(CODIM2_FORCED_ZERO_FRAME)
    for result in (decide(F), wolfe_decide(F)):
        assert (result.verdict, result.near_zero) == (SCALABLE, [5])
        _assert_tightens(F, result)
    code, out = _run(tmp_path, capsys, CODIM2_FORCED_ZERO_FRAME, "scale", "--strict")
    assert code == 0, out.err
    assert out.out.splitlines()[0] == "scalable, but not strictly"


@pytest.mark.parametrize("name, code", [("first-quadrant", 1), ("harmonic", 0)])
def test_lp_route_runs_no_nearest_point_where_the_split_answers(tmp_path, capsys, monkeypatch,
                                                               name, code):
    # the hull solver splits 1 first: its certificate, and a strictly
    # positive kernel part that passes the rank rule, answer ``scale`` with
    # no Wolfe run, plain and strict
    frames = {"first-quadrant": [[np.cos(t), np.sin(t)] for t in (0.2, 0.7, 1.2, 1.4)],
              "harmonic": rescaled_harmonic_frame(np.random.default_rng(5), 3, 8).synthesis.T}

    def forbidden(P):
        raise AssertionError("the split of 1 answers this frame")

    monkeypatch.setattr(numerics, "nearest_point", forbidden)
    for options in ((), ("--strict",)):
        got, out = _run(tmp_path, capsys, frames[name], "scale", *options)
        assert got == code, out.err
        assert out.out.splitlines()[-1].startswith("not scalable; certificate y:") == (code == 1)


@pytest.mark.parametrize("n, t", [(2, 1e-9), (2, 1e-12), (3, 1e-10), (3, 1e-11)])
def test_one_signed_row_of_small_entries_is_not_scalable(tmp_path, capsys, n, t):
    # entries above ZERO_TOL give a certificate that clears ZERO_TOL, which
    # the split's kernel part, the kernel routes' kernel vector (n = 3,
    # t = 1e-10: corank 1, the rank reads the row as 0) and Wolfe's witness
    # (n = 2, m = 5 > d + 2) all leave room for; they used to answer
    # "scalable" after the one-signed-row shortcut left the route policy,
    # and ``scale --method lp``, which took Wolfe's weights first, still did
    vectors = tiny_row_frame(n, t)
    F = make_frame(vectors)
    for result in (decide(F), wolfe_decide(F)):
        assert not result.scalable
        assert hull_certificate_check(F, result.certificate_y)
    code, out = _run(tmp_path, capsys, vectors, "scale")
    assert code == 1 and "certificate y:" in out.out
    for strict in (False, True):
        [line] = _lp(vectors, strict)
        assert line.startswith("not scalable; certificate y: ")
        assert hull_certificate_check(F, _printed_certificate(line))


def test_one_signed_row_below_zero_tol_is_zero():
    # entries of about 2e-13 on unit columns count as 0: strictly scalable
    F = make_frame(tiny_row_frame(2, 1e-13))
    assert decide(F).verdict == STRICTLY_SCALABLE


@pytest.mark.parametrize("angle", [np.pi / 8, np.pi / 4, 1.0])
def test_one_signed_row_of_small_entries_is_rotated(angle):
    # in the plane the certificate is the normal of Wolfe's corral, which
    # does not depend on the basis
    Q = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    F = make_frame(np.array(tiny_row_frame(2, 1e-9)) @ Q.T)
    assert not decide(F).scalable


# every vector has x_1 = 1 and 0 < x_2 < 6e-9, or x_2 = -1 and -5e-9 < x_1 < 0:
# the x_1 x_2 products are all positive, 2e-9 to 5e-9 on unit columns.  Wolfe's
# weights fail the kernel identity and Wolfe's point the sign test, so the hull
# solver's route, when it took the weights before any certificate, ended
# ``scale --method lp`` in exit 3
ONE_SIGNED_N3_M7_FRAME = [
    [-4.234350014819077e-09, -1.0, -0.21032156163919988],
    [-4.278721444276376e-09, -1.0, -0.8108784207935715],
    [1.0, 5.365372268876912e-09, 0.5369925285480005],
    [1.0, 3.2802222789981183e-09, -0.4283280557705522],
    [-4.340034995770814e-09, -1.0, 1.2298039648332277],
    [1.0, 5.304338590174582e-09, 0.6295019471906916],
    [-4.227040040275075e-09, -1.0, 0.6458011615773666],
]


def test_one_signed_n3_m7_frame_is_certified_by_the_lp_route():
    F = make_frame(ONE_SIGNED_N3_M7_FRAME)
    for strict in (False, True):
        [line] = _lp(ONE_SIGNED_N3_M7_FRAME, strict)
        assert line.startswith("not scalable; certificate y: ")
        assert hull_certificate_check(F, _printed_certificate(line))


@st.composite
def one_signed_frames(draw):
    """Gaussian vectors in R^2 to R^4, m = n + 2 to n + 5, each with one of
    x_1, x_2 set to +-1 and the other to a t of the same sign, a ~ U(1, 3)
    per vector and t = 10^U(-13.5, -7) per frame: every product x_1 x_2 is
    positive, and below about 1e-12 the tolerance reads it as 0."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n + 2, n + 5))
    t = 10.0 ** draw(st.floats(-13.5, -7.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((m, n))
    rows, big = np.arange(m), rng.integers(0, 2, m)
    sign = rng.choice([-1.0, 1.0], m)
    X[rows, big] = sign
    X[rows, 1 - big] = sign * rng.uniform(1.0, 3.0, m) * t
    return X


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(X=one_signed_frames())
def test_lp_route_agrees_with_scale_on_one_signed_rows(tmp_path, capsys, X):
    # the hull solver's route tries the certificate before Wolfe's weights,
    # as every other route does; when it took the weights first it called
    # some of these frames scalable, and ended one in exit 3.  Each call
    # rewrites the frame file and reads its own output
    try:
        make_frame(X)
    except NotSpanningError:
        assume(False)
    code, out = _run(tmp_path, capsys, X, "scale")
    assert code in (0, 1), out.err
    assert _lp(X)[-1].startswith("not scalable") == (code == 1)
