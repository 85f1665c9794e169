import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointseg import (
    InvalidInputError,
    LabelMask,
    SoftPrediction,
    central_bias_filter,
    dsc,
    evaluate,
    hard_mask,
    hd95,
)

from oracles import dsc_oracle, hd95_oracle, hd95_pairwise


def mask(arr, K=2):
    return LabelMask(np.asarray(arr, dtype=np.int64), K)


# hard decode


def test_hard_mask_tie_prefers_smaller_id():
    pred = SoftPrediction(np.full((3, 2, 2), 1.0 / 3.0))
    assert not hard_mask(pred).classes.any()


def test_hard_mask_argmax():
    probs = np.zeros((3, 1, 1))
    probs[:, 0, 0] = (0.4, 0.35, 0.25)
    assert hard_mask(SoftPrediction(probs)).classes[0, 0] == 0


# DSC


def test_dsc_hand_value():
    p = mask([[1, 1, 0], [1, 1, 0]])
    g = mask([[1, 1, 1], [0, 1, 1]])
    # |P|=4, |G|=5, |P and G|=3 -> 6/9
    assert dsc(p, g, 1) == pytest.approx(2 * 3 / 9)


def test_dsc_conventions():
    empty = mask(np.zeros((3, 3), dtype=int))
    full = mask(np.ones((3, 3), dtype=int))
    assert dsc(empty, empty, 1) == 1.0
    assert dsc(full, empty, 1) == 0.0
    assert dsc(full, full, 1) == 1.0
    with pytest.raises(InvalidInputError):
        dsc(mask(np.zeros((2, 2), dtype=int)), mask(np.zeros((3, 3), dtype=int)), 1)


# HD95


def test_hd95_identical_regions_zero():
    m = mask([[0, 1, 1], [0, 1, 0]])
    assert hd95(m, m, 1) == 0.0


def test_hd95_one_empty_uses_diagonal():
    empty = mask(np.zeros((3, 4), dtype=int))
    some = mask(np.pad(np.ones((1, 1), dtype=int), ((0, 2), (0, 3))))
    assert hd95(empty, some, 1) == pytest.approx(math.hypot(3, 4))
    assert hd95(empty, empty, 1) == 0.0


def test_hd95_shifted_single_pixel():
    a = np.zeros((8, 8), dtype=int)
    b = np.zeros((8, 8), dtype=int)
    a[2, 2] = 1
    b[2, 7] = 1
    assert hd95(mask(a), mask(b), 1) == pytest.approx(5.0)


@given(st.integers(0, 1000))
def test_metrics_match_bruteforce_oracles(seed):
    rng = np.random.default_rng(seed)
    H, W = int(rng.integers(2, 17)), int(rng.integers(2, 17))
    p = rng.integers(0, 3, size=(H, W))
    g = rng.integers(0, 3, size=(H, W))
    for k in (1, 2):
        assert abs(dsc(mask(p, 3), mask(g, 3), k) - dsc_oracle(p, g, k)) <= 1e-9
        assert abs(hd95(mask(p, 3), mask(g, 3), k) - hd95_oracle(p, g, k)) <= 1e-9


@given(st.integers(0, 1000))
def test_hd95_equals_pairwise_float_distances(seed):
    # The nearest squared distance's sqrt is exactly the nearest distance, so
    # eval.json keeps its bytes. A noisy prediction against a box, as an
    # untrained model's against a ground truth, gives boundaries of unequal
    # size and distances up to the grid's diagonal.
    rng = np.random.default_rng(seed)
    H, W = int(rng.integers(2, 41)), int(rng.integers(2, 41))
    p = (rng.random((H, W)) < rng.uniform(0.0, 0.5)).astype(np.int64)
    g = np.zeros((H, W), dtype=np.int64)
    r0, c0 = int(rng.integers(0, H)), int(rng.integers(0, W))
    g[r0 : int(rng.integers(r0, H)) + 1, c0 : int(rng.integers(c0, W)) + 1] = 1
    assert hd95(mask(p), mask(g), 1) == hd95_pairwise(p, g, 1)
    assert hd95(mask(g), mask(p), 1) == hd95_pairwise(g, p, 1)


# central-bias filter


def test_central_bias_filter_zeroes_bands():
    classes = np.ones((4, 10), dtype=int)
    out = central_bias_filter(mask(classes), 3)
    assert not out.classes[:, :3].any()
    assert not out.classes[:, 7:].any()
    assert out.classes[:, 3:7].all()


def test_central_bias_filter_identity_and_validation():
    m = mask(np.ones((4, 6), dtype=int))
    assert central_bias_filter(m, 0) is m
    with pytest.raises(InvalidInputError):
        central_bias_filter(m, -1)


def test_central_bias_filter_rejects_a_width_that_covers_the_grid():
    # Bands of half the width or more would blank every column and score DSC 0.
    m = mask(np.ones((2, 5), dtype=int))
    assert central_bias_filter(m, 2).classes[:, 2].all()
    for width in (3, 5):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 2.5\) on 5 columns"):
            central_bias_filter(m, width)
    with pytest.raises(InvalidInputError):
        central_bias_filter(mask(np.ones((2, 4), dtype=int)), 2)


# aggregated evaluation


def test_evaluate_perfect_predictions():
    rng = np.random.default_rng(0)
    gts = [mask(rng.integers(0, 3, size=(6, 6)), 3) for _ in range(4)]
    report = evaluate(gts, gts)
    assert report.dsc_average == 1.0
    assert report.hd95_average == 0.0
    assert all(v == 1.0 for v in report.per_class_dsc.values())


def test_evaluate_foreground_only_averages():
    g = np.zeros((4, 4), dtype=int)
    g[:2] = 1
    g[2:, :2] = 2
    p = g.copy()
    p[0, 0] = 0  # one class-1 pixel missed
    report = evaluate([mask(p, 3)], [mask(g, 3)])
    d1 = 2 * 7 / (7 + 8)
    assert report.per_class_dsc[1] == pytest.approx(d1)
    assert report.per_class_dsc[2] == 1.0
    assert report.dsc_average == pytest.approx((d1 + 1.0) / 2)
    assert 0 not in report.per_class_dsc


def test_evaluate_skips_images_without_the_class():
    g1 = np.zeros((3, 3), dtype=int)
    g1[0, 0] = 1
    g2 = np.zeros((3, 3), dtype=int)  # class 1 absent here
    p = [mask(g1, 2), mask(np.zeros((3, 3), dtype=int), 2)]
    report = evaluate(p, [mask(g1, 2), mask(g2, 2)])
    assert report.per_class_dsc[1] == 1.0  # the miss-free image is the only one counted


def test_evaluate_validation():
    g = mask(np.ones((2, 2), dtype=int))
    with pytest.raises(InvalidInputError):
        evaluate([g], [])
    with pytest.raises(InvalidInputError):
        evaluate([g], [mask(np.ones((2, 2), dtype=int), 3)])
    all_bg = mask(np.zeros((2, 2), dtype=int))
    with pytest.raises(InvalidInputError):
        evaluate([all_bg], [all_bg])  # no foreground anywhere


def test_evaluate_nothing_is_an_input_error():
    with pytest.raises(InvalidInputError, match="nothing to evaluate"):
        evaluate([], [])


def test_evaluate_report_serialization():
    rng = np.random.default_rng(1)
    gts = [mask(rng.integers(0, 3, size=(5, 5)), 3) for _ in range(2)]
    preds = [mask(rng.integers(0, 3, size=(5, 5)), 3) for _ in range(2)]
    report = evaluate(preds, gts)
    data = json.loads(report.to_json())
    assert set(data) >= {"per_class_dsc", "per_class_hd95", "dsc_average", "hd95_average"}
    table = report.format_table()
    assert "DSC" in table and "HD95" in table and "average" in table


def test_evaluate_applies_bias_filter_before_scoring():
    g = np.zeros((4, 8), dtype=int)
    g[:, 3:5] = 1
    p = g.copy()
    p[:, 0] = 1  # spurious left-edge band
    unfiltered = evaluate([mask(p)], [mask(g)])
    filtered = evaluate([mask(p)], [mask(g)], central_bias_width=2)
    assert filtered.dsc_average == 1.0
    assert unfiltered.dsc_average < 1.0


BAD_METRIC_INPUTS = {
    "hd95-shapes": (lambda: hd95(mask([[0, 1]]), mask([[0], [1]]), 1),
                    "prediction and ground truth shapes differ"),
}


@pytest.mark.parametrize("case", sorted(BAD_METRIC_INPUTS))
def test_bad_metric_input_raises_naming_what_is_wrong(case):
    call, message = BAD_METRIC_INPUTS[case]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()
