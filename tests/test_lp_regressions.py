"""Frames on which the simplex used to end in a numeric failure: a negative
witness entry, a large witness residual, a failed hull sign test, or the
iteration cap.  Each must now get its verdict from the general test, the W/V
intersection (plain and strict) and the full report.  The n = 8, m = 80
frame also runs into a long stretch of degenerate pivots in the plain LP,
where pricing falls back to Bland's rule.  The strict W/V intersection of
the n = 4, m = 11 frame has a margin at zero and a witness entry just below
-1e-12: that witness must be discarded as not strict before it is checked
for sign."""

import numpy as np
import pytest

from framescale import decide_scalable, intersection_scalability, make_frame
from framescale.cli import build_report
from framescale.frame_core import apply_scaling, is_tight
from framescale.framedoc import document_from_frame
from framescale.scalability import SCALABLE, STRICTLY_SCALABLE
from conftest import random_scalable_frame, rescaled_harmonic_frame, two_block_frame

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

    strict = decide_scalable(F, strict=True)
    assert strict.verdict == expected
    _assert_tightens(F, strict)

    inter = intersection_scalability(F)
    assert inter.verdict == SCALABLE
    _assert_tightens(F, inter)

    inter_strict = intersection_scalability(F, strict=True)
    assert inter_strict.verdict == expected
    _assert_tightens(F, inter_strict)

    report = build_report(document_from_frame(F, name="regression"), 1e-8)
    assert report["scalability"]["verdict"] == expected
    assert report["split"]["intersection_verdict"] == SCALABLE

