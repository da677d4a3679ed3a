"""Frames on which the simplex used to end in a numeric failure: a negative
witness entry, a large witness residual, a failed hull sign test, or the
iteration cap.  Each must now get its verdict from the general test, the W/V
intersection and the full report.  The n = 8, m = 80 frame also runs into a
long stretch of degenerate pivots in the plain LP, where pricing falls back
to Bland's rule."""

import numpy as np
import pytest

from framescale import decide_scalable, intersection_scalability
from framescale.cli import build_report
from framescale.frame_core import apply_scaling, is_tight
from framescale.framedoc import document_from_frame
from framescale.scalability import SCALABLE, STRICTLY_SCALABLE
from conftest import random_scalable_frame, rescaled_harmonic_frame, two_block_frame

CASES = [
    pytest.param(lambda rng: rescaled_harmonic_frame(rng, 8, 32), 0, STRICTLY_SCALABLE,
                 id="harmonic-n8-m32"),
    pytest.param(lambda rng: rescaled_harmonic_frame(rng, 6, 21), 0, STRICTLY_SCALABLE,
                 id="harmonic-n6-m21"),
    pytest.param(lambda rng: two_block_frame(rng, 6, 16), 6, SCALABLE,
                 id="two-block-n6-m16"),
    pytest.param(lambda rng: random_scalable_frame(rng, 8, 80)[0], 2, STRICTLY_SCALABLE,
                 id="scalable-n8-m80"),
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

    report = build_report(document_from_frame(F, name="regression"), 1e-8)
    assert report["scalability"]["verdict"] == expected
    assert report["split"]["intersection_verdict"] == SCALABLE
