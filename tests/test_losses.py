import math
import os
import pathlib
import platform
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pointseg.losses
from pointseg import (
    Image,
    InvalidConfigError,
    InvalidInputError,
    LogitField,
    LossSettings,
    PointAnnotation,
    SoftPrediction,
    cv_loss,
    finite_diff_grad,
    ms_data_term,
    partial_cross_entropy,
    softmax,
    softmax_backward,
    total_loss,
    tv_term,
    variance_map,
)
from pointseg.gradcheck import fd_noise_floor
from pointseg.grids import _trusted
from pointseg.losses import (
    MODES,
    _cv_batch,
    _cv_index,
    _mean_stats,
    _ms_value,
    _pce_value,
    _smooth_tv,
    _variance_rows,
)

from oracles import (
    bit_equal,
    cv_loss_stacked,
    cv_oracle,
    ms_data_term_afresh,
    pce_oracle,
    per_probe,
    total_loss_grads_oracle,
    tv_term_whole,
)


def uniform_pred(K, H, W):
    return SoftPrediction(np.full((K, H, W), 1.0 / K))


# partial cross-entropy


def test_pce_uniform_k4_is_ln4():
    pred = uniform_pred(4, 2, 2)
    ann = PointAnnotation(((0, 1, 2),), 4)
    value, grad = partial_cross_entropy(pred, ann)
    assert abs(value - math.log(4.0)) <= 1e-9
    assert grad[2, 0, 1] == pytest.approx(-4.0)
    other = grad.copy()
    other[2, 0, 1] = 0.0
    assert not other.any()


def test_pce_empty_annotation_is_zero():
    value, grad = partial_cross_entropy(uniform_pred(3, 2, 2), PointAnnotation((), 3))
    assert value == 0.0
    assert not grad.any()


def test_pce_clamps_vanishing_probability():
    probs = np.zeros((2, 1, 2))
    probs[0, 0, 0] = 1.0
    probs[1, 0, 1] = 1.0
    pred = SoftPrediction(probs)
    ann = PointAnnotation(((0, 0, 1),), 2)  # class 1 where its probability is 0
    value, grad = partial_cross_entropy(pred, ann)
    assert value == pytest.approx(-math.log(1e-12))
    assert not grad.any()  # below the clamp, the loss is locally flat


def test_pce_value_complex_step_is_the_unclamped_derivative():
    # The complex-step oracle's pce: Im(value) / h is the derivative along D,
    # -sum D/P over the unclamped points; a clamped point is flat, so its
    # imaginary part must not survive the clamp.
    rng = np.random.default_rng(0)
    probs = softmax(LogitField(rng.normal(size=(3, 2, 3)))).probabilities.copy()
    probs[:, 0, 0] = (1.0, 0.0, 0.0)
    ann = PointAnnotation(((0, 0, 1), (0, 2, 0), (1, 1, 2)), 3)
    D = rng.normal(size=probs.shape)
    h = 1e-20
    value = _pce_value([_trusted(SoftPrediction, probs + 1j * h * D)], [ann])
    expected = -(D[0, 0, 2] / probs[0, 0, 2] + D[2, 1, 1] / probs[2, 1, 1])
    assert value.imag / h == pytest.approx(expected, rel=1e-14)


def _distinct_points(rng, K, H, W):
    flat = rng.choice(H * W, size=K, replace=False)
    return tuple((int(i // W), int(i % W), k) for k, i in enumerate(flat))


@given(st.integers(0, 500))
def test_pce_matches_oracle_and_gradient(seed):
    rng = np.random.default_rng(seed)
    K, H, W = 3, 3, 4
    pred = softmax(LogitField(rng.normal(size=(K, H, W))))
    points = _distinct_points(rng, K, H, W)
    ann = PointAnnotation(points, K)
    value, grad = partial_cross_entropy(pred, ann)
    assert value == pytest.approx(pce_oracle(pred.probabilities, points), abs=1e-12)
    for r, c, k in points:
        assert grad[k, r, c] == pytest.approx(-1.0 / pred.probabilities[k, r, c])


def test_point_annotation_validation():
    with pytest.raises(InvalidInputError):
        PointAnnotation(((0, 0, 5),), 3)  # class out of range
    with pytest.raises(InvalidInputError):
        PointAnnotation(((0, 0, 1), (1, 1, 1)), 3)  # duplicate class
    with pytest.raises(InvalidInputError):
        PointAnnotation(((0, 0, 1), (0, 0, 2)), 3)  # duplicate pixel


# class means and variance maps


def test_class_means_hard_assignment():
    image = Image(np.array([[0.0, 1.0]]))
    pred = SoftPrediction(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    means = _mean_stats(image, pred)[2]
    assert means[0] == pytest.approx(0.0, abs=1e-7)
    assert means[1] == pytest.approx(1.0, abs=1e-7)


def test_class_means_zero_mass_class():
    image = Image(np.array([[0.3, 0.7]]))
    pred = SoftPrediction(np.array([[[1.0, 1.0]], [[0.0, 0.0]]]))
    assert _mean_stats(image, pred)[2][1] == 0.0


def test_variance_map_values():
    image = Image(np.array([[1.0, 0.5]]))
    pred = SoftPrediction(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    means = _mean_stats(image, pred)[2]
    z = variance_map(image, pred, 0)
    assert z.shape == (1, 2)
    assert z[0, 0] == pytest.approx((1.0 - means[0]) ** 2, abs=1e-9)
    assert z[0, 1] == 0.0
    with pytest.raises(InvalidInputError):
        variance_map(image, pred, 5)


# Mumford-Shah data term


def test_ms_uniform_half_case():
    image = Image(np.array([[0.0, 1.0]]))
    value, _ = ms_data_term(image, uniform_pred(2, 1, 2))
    assert abs(value - 0.5) <= 1e-7


def test_ms_constant_image_is_zero():
    value, _ = ms_data_term(Image(np.full((3, 3), 0.4)), uniform_pred(2, 3, 3))
    assert value <= 1e-12


def test_ms_hard_per_pixel_assignment_is_zero():
    image = Image(np.array([[0.0, 1.0]]))
    pred = SoftPrediction(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    value, _ = ms_data_term(image, pred)
    assert value <= 1e-7


def test_ms_freeze_means_changes_gradient():
    rng = np.random.default_rng(3)
    image = Image(rng.random((4, 4)))
    pred = softmax(LogitField(rng.normal(size=(2, 4, 4))))
    _, chained = ms_data_term(image, pred, freeze_means=False)
    _, frozen = ms_data_term(image, pred, freeze_means=True)
    assert np.abs(chained - frozen).max() > 0.0


# total variation


# A lone nonconstant map cannot satisfy the simplex constraint, so the
# hand-counted single-map examples live inside a complementary two-class
# prediction; the mirror class contributes the identical count.


def test_tv_two_vertical_jumps():
    step = np.array([[0.0, 0.0], [1.0, 1.0]])
    pred = SoftPrediction(np.stack([step, 1.0 - step]))
    value, _ = tv_term(pred)
    assert abs(value - 2.0 * 2) <= 1e-9


def test_tv_one_by_three_bump():
    bump = np.array([[0.0, 1.0, 0.0]])
    pred = SoftPrediction(np.stack([bump, 1.0 - bump]))
    value, _ = tv_term(pred)
    assert abs(value - 2.0 * 2) <= 1e-9


def test_tv_constant_is_zero():
    value, grad = tv_term(uniform_pred(3, 4, 5))
    assert value == 0.0
    assert not grad.any()


def test_tv_smooth_value_overestimates_slightly():
    rng = np.random.default_rng(1)
    pred = softmax(LogitField(rng.normal(size=(2, 4, 4))))
    exact = tv_term(pred)[0]
    smooth = _smooth_tv(pred.probabilities)
    assert smooth >= exact
    assert smooth - exact <= 1e-4


def _hard_with_negative_zeros(K, H, W, seed):
    # One-hot probabilities: wide flat regions whose differences are exactly
    # zero, with every zero entry stored as -0.0 in a checkerboard.
    rng = np.random.default_rng(seed)
    labels = np.repeat(rng.integers(0, K, size=(H, 1)), W, axis=1)
    labels[: H // 2, : W // 2] = rng.integers(0, K)
    probs = (np.arange(K)[:, None, None] == labels).astype(float)
    checker = (np.indices((K, H, W)).sum(axis=0) % 2).astype(bool)
    probs[(probs == 0.0) & checker] = -0.0
    return SoftPrediction(probs)


TERM_SHAPES = [(2, 1, 5), (3, 4, 1), (2, 1, 1), (2, 3, 4), (3, 5, 6)]


@pytest.mark.parametrize("shape", TERM_SHAPES)
def test_tv_term_equals_whole_array_reference_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    for pred in (softmax(LogitField(rng.normal(size=shape))), _hard_with_negative_zeros(*shape, 3),
                 uniform_pred(*shape)):
        value, grad = tv_term(pred)
        want_value, want_grad = tv_term_whole(pred.probabilities)
        assert value.hex() == want_value.hex()
        assert bit_equal(grad, want_grad)
        # A column-major grid has the same gradient; its value's sum may round
        # in another order.
        value_f, grad_f = tv_term(SoftPrediction(np.asfortranarray(pred.probabilities)))
        assert value_f == pytest.approx(value, rel=1e-12, abs=1e-15)
        assert bit_equal(grad_f, grad)


@pytest.mark.parametrize("shape", TERM_SHAPES)
def test_ms_data_term_equals_afresh_reference_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    for pred in (softmax(LogitField(rng.normal(size=shape))), _hard_with_negative_zeros(*shape, 4)):
        for image in (Image(rng.random(shape[1:])), Image(np.zeros(shape[1:]))):
            for freeze in (False, True):
                value, grad = ms_data_term(image, pred, freeze)
                want_value, want_grad = ms_data_term_afresh(image.intensities, pred.probabilities,
                                                            freeze)
                assert value.hex() == want_value.hex()
                assert bit_equal(grad, want_grad)


# cosine similarity and anchor terms


def test_cosine_conventions():
    # Rows a, b and a zero row, one class each of three images: S is the
    # cosine matrix cv_loss contrasts.
    Z = np.zeros((3, 4))
    Z[0, 0] = 0.5
    Z[1, 3] = 0.3
    S = _cv_batch(Z, _cv_index([(0,), (0,), (0,)], {(0, 0): 1}), tau=1.0)[1][2]
    assert S[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert S[0, 1] == 0.0
    assert S[2, 1] == 0.0
    assert S[2, 2] == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_value_steps_equal_full_values_bit_for_bit(seed):
    # Gradient checks difference the value steps alone; the full functions
    # must report the very same value.
    rng = np.random.default_rng(seed)
    K, H, W = 3, int(rng.integers(1, 6)), int(rng.integers(2, 6))
    image = Image(rng.random((H, W)))
    pred = softmax(LogitField(3.0 * rng.normal(size=(K, H, W))))
    # Class 1 at pixel (0, 0) has probability 0, below the log clamp.
    probs = pred.probabilities.copy()
    probs[:, 0, 0] = (1.0, 0.0, 0.0)
    clamped = SoftPrediction(probs)
    ann = PointAnnotation(((0, 0, 1), (H - 1, W - 1, 2)), K)
    assert _pce_value([clamped], [ann]).hex() == partial_cross_entropy(clamped, ann)[0].hex()
    for freeze in (False, True):
        assert _ms_value(image, pred)[0].hex() == ms_data_term(image, pred, freeze)[0].hex()
    # cv_loss sorts and dedupes each present set before its value step runs.
    images = [image, Image(rng.random((H, W)))]
    preds = [pred, softmax(LogitField(3.0 * rng.normal(size=(K, H, W))))]
    plan = {(0, 0): 1, (0, 2): 1, (1, 2): 0}
    cv = cv_loss(images, preds, [(2, 0, 0), (1, 2, 0)], plan, 0.07, 0.3)
    assert _cv_steps(images, preds, [(0, 2), (0, 1, 2)], plan, 0.07).hex() == cv[0].hex()


def _cv_steps(images, preds, present, plan, tau):
    # cv_loss's value as its three steps compose it, for sorted present sets.
    parts = [_variance_rows(im, p, classes) for im, p, classes in zip(images, preds, present)]
    return _cv_batch(_stacked(parts), _cv_index(present, plan), tau)[0]


def _stacked(parts):
    # The batch matrix Z from every image's _variance_rows, in image order.
    return np.concatenate([rows for _, rows, _ in parts])


# contrastive variance loss


def _orthogonal_batch():
    # Same image and prediction used twice: variance maps are identical
    # across images for the same class, and the two classes occupy disjoint
    # rows with intensity spread inside each, so their maps are orthogonal.
    # The spreads are wide enough that the cosine's 1e-12 zero-vector guard
    # perturbs the self-similarity by far less than the 1e-9 tolerance.
    image = Image(np.array([[0.0, 1.0], [0.1, 0.9]]))
    top = np.array([[1.0, 1.0], [0.0, 0.0]])
    pred = SoftPrediction(np.stack([top, 1.0 - top]))
    plan = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0}
    return [image, image], [pred, pred], [(0, 1), (0, 1)], plan


def test_cv_hand_value_four_anchors():
    images, preds, present, plan = _orthogonal_batch()
    res = cv_loss(images, preds, present, plan, tau=1.0, lambda_cv=1.0)
    # each anchor: -log(e / (e + 1)); the sum is 4 * ln(1 + 1/e) = 1.25304...
    assert abs(res[0] - 4.0 * math.log(1.0 + math.exp(-1.0))) <= 1e-9
    assert len(plan) == 4


def test_cv_empty_plan_contributes_nothing():
    images, preds, present, _ = _orthogonal_batch()
    res = cv_loss(images, preds, present, {}, tau=0.07, lambda_cv=0.3)
    assert res[0] == 0.0
    assert all(not g.any() for g in res[1])


def test_cv_two_images_one_shared_class_no_negatives():
    rng = np.random.default_rng(5)
    images = [Image(rng.random((3, 3))) for _ in range(2)]
    preds = [softmax(LogitField(rng.normal(size=(2, 3, 3)))) for _ in range(2)]
    plan = {(0, 1): 1, (1, 1): 0}
    res = cv_loss(images, preds, [(1,), (1,)], plan, tau=1.0, lambda_cv=1.0)
    assert abs(res[0]) <= 1e-9


def test_cv_plan_validation():
    images, preds, present, _ = _orthogonal_batch()
    with pytest.raises(InvalidInputError):
        cv_loss(images, preds, present, {(0, 0): 0}, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        cv_loss(images, preds, [(0,), (0,)], {(0, 1): 1}, 1.0, 1.0)
    with pytest.raises(InvalidInputError, match="must align"):
        cv_loss(images, preds[:1], present, {}, 1.0, 1.0)
    wide = softmax(LogitField(np.zeros((2, 2, 3))))
    with pytest.raises(InvalidInputError, match="share one H x W"):
        cv_loss(images, [preds[0], wide], present, {}, 1.0, 1.0)
    with pytest.raises(InvalidInputError, match="present class 2 outside range for image 1"):
        cv_loss(images, preds, [(0, 1), (0, 2)], {}, 1.0, 1.0)
    with pytest.raises(InvalidConfigError):
        cv_loss(images, preds, present, {}, -1.0, 1.0)
    with pytest.raises(InvalidConfigError):
        cv_loss(images, preds, present, {}, 0.0, 1.0)


def test_cv_tiny_temperature_stays_finite():
    rng = np.random.default_rng(3)
    images = [Image(rng.random((4, 4))) for _ in range(3)]
    preds = [softmax(LogitField(rng.normal(size=(2, 4, 4)))) for _ in range(3)]
    plan = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 0, (2, 0): 0, (2, 1): 1}
    with np.errstate(over="raise", invalid="raise"):
        res = cv_loss(images, preds, [(0, 1)] * 3, plan, 1e-4, 1.0)
    assert math.isfinite(res[0])
    assert all(np.all(np.isfinite(g)) for g in res[1])


def _drawn_cv_batch(seed, present, H=3, W=4):
    # 3-class H x W images and predictions, and a plan pairing about 80% of the
    # anchors that have a partner; the rng goes on for further draws.
    rng = np.random.default_rng(seed)
    K = 3
    images = [Image(rng.random((H, W))) for _ in present]
    preds = [softmax(LogitField(2.0 * rng.normal(size=(K, H, W)))) for _ in present]
    partners = {}
    for n, classes in enumerate(present):
        for k in sorted(classes):
            others = [m for m, other in enumerate(present) if m != n and k in other]
            if others and rng.random() < 0.8:
                partners[(n, k)] = others[int(rng.integers(len(others)))]
    return rng, images, preds, partners


PARTIAL_CV_BATCHES = [
    dict(seed=0, present=[{0, 1}, set(), {1, 2}], tau=0.07),  # an image with no class
    dict(seed=1, present=[{1}, {1}], tau=1e-4),  # anchors without negatives
    dict(seed=2, present=[{0, 2}, {0, 1, 2}, {2}], tau=1.0),  # partial present sets
]


@given(
    seed=st.integers(0, 1 << 16),
    present=st.lists(st.sets(st.integers(0, 2)), min_size=1, max_size=4),
    tau=st.sampled_from([1e-4, 0.07, 1.0]),
)
@example(**PARTIAL_CV_BATCHES[0])
@example(**PARTIAL_CV_BATCHES[1])
@example(**PARTIAL_CV_BATCHES[2])
def test_cv_matches_per_anchor_oracle(seed, present, tau):
    rng, images, preds, partners = _drawn_cv_batch(seed, present)
    K, H, W = preds[0].probabilities.shape
    res = cv_loss(images, preds, present, partners, tau, 0.3)
    value = cv_oracle([im.intensities for im in images],
                      [p.probabilities for p in preds], present, partners, tau)
    assert res[0] == pytest.approx(value, rel=1e-9, abs=1e-9)
    # The value step the finite-difference checks evaluate is cv_loss's own value.
    # It is the batch step over each image's variance rows and the plan's
    # index; with one image moved, the other images' kept rows and the same
    # index give the moved batch's value.
    sorted_present = [tuple(sorted(classes)) for classes in present]
    index = _cv_index(sorted_present, partners)
    assert (index is None) == (not partners)
    if index is not None:
        parts = [_variance_rows(im, p, c) for im, p, c in zip(images, preds, sorted_present)]
        assert _cv_batch(_stacked(parts), index, tau)[0].hex() == res[0].hex()
        preds[0] = softmax(LogitField(2.0 * rng.normal(size=(K, H, W))))
        parts[0] = _variance_rows(images[0], preds[0], sorted_present[0])
        moved = cv_loss(images, preds, present, partners, tau, 0.3)[0]
        assert _cv_steps(images, preds, sorted_present, partners, tau).hex() == moved.hex()
        assert _cv_batch(_stacked(parts), index, tau)[0].hex() == moved.hex()


@pytest.mark.parametrize("batch", PARTIAL_CV_BATCHES + [dict(seed=3, present=[{0}, {1}, {2}], tau=0.07)],
                         ids=["no-class", "no-negatives", "partial", "empty-plan"])
def test_cv_loss_into_out_adds_what_a_zero_start_call_returns(batch):
    # _objective_grads passes mu * TV's gradients as out; cv must add into them
    # exactly its own gradients, leave absent classes as they were and return out.
    _, images, preds, plan = _drawn_cv_batch(batch["seed"], batch["present"])
    assert bool(plan) == (batch["seed"] != 3)
    value, zero_start = cv_loss(images, preds, batch["present"], plan, batch["tau"], 0.3)
    rng = np.random.default_rng(batch["seed"])
    before = [rng.normal(size=p.probabilities.shape) for p in preds]
    out = [b.copy() for b in before]
    got_value, got = cv_loss(images, preds, batch["present"], plan, batch["tau"], 0.3, out=out)
    assert got is out and got_value == value
    for n, (b, g, z) in enumerate(zip(before, got, zero_start)):
        assert bit_equal(g, b + z)
        for k in set(range(3)) - set(batch["present"][n]):
            assert bit_equal(g[k], b[k])


@pytest.mark.parametrize("batch", PARTIAL_CV_BATCHES, ids=["no-class", "no-negatives", "partial"])
def test_cv_gradient_matches_finite_differences_on_partial_batches(batch):
    seed, present, tau = batch["seed"], batch["present"], batch["tau"]
    _, images, preds, plan = _drawn_cv_batch(seed, present)
    res = cv_loss(images, preds, present, plan, tau, 1.0)
    sorted_present = [tuple(sorted(classes)) for classes in present]
    index = _cv_index(sorted_present, plan)
    assert index is not None
    parts = [_variance_rows(im, p, c) for im, p, c in zip(images, preds, sorted_present)]
    compared = 0
    for n, pred in enumerate(preds):
        def value(probs, n=n):
            moved = list(parts)
            moved[n] = _variance_rows(images[n], _trusted(SoftPrediction, probs), sorted_present[n])
            return _cv_batch(_stacked(moved), index, tau)[0]

        analytic = res[1][n]
        fd = finite_diff_grad(per_probe(value), pred.probabilities)
        absent = [k for k in range(pred.num_classes) if k not in present[n]]
        assert not analytic[absent].any() and not fd[absent].any()
        scale = np.maximum(np.abs(analytic), np.abs(fd))
        mask = (scale > 1e-7) & (np.abs(analytic - fd) > fd_noise_floor(value(pred.probabilities)))
        compared += int((scale > 1e-7).sum())
        assert (np.abs(analytic - fd)[mask] / scale[mask]).max(initial=0.0) <= 1e-4
    # Anchors without negatives contrast nothing: their loss is flat.
    assert compared > 0 or seed == 1


def _assert_cv_equals_stacked_reference(images, preds, present, partners, tau):
    sorted_present = [tuple(sorted(set(classes))) for classes in present]
    for freeze in (False, True):
        res = cv_loss(images, preds, present, partners, tau, 0.3, freeze_means=freeze)
        value, grads = cv_loss_stacked([im.intensities for im in images],
                                       [p.probabilities for p in preds], sorted_present,
                                       partners, tau, 0.3, freeze)
        assert float(res[0]).hex() == float(value).hex()
        assert all(bit_equal(got, want) for got, want in zip(res[1], grads))


@pytest.mark.parametrize("batch", PARTIAL_CV_BATCHES, ids=["no-class", "no-negatives", "partial"])
def test_cv_loss_equals_stacked_reference_bit_for_bit_on_partial_batches(batch):
    _, images, preds, partners = _drawn_cv_batch(batch["seed"], batch["present"])
    _assert_cv_equals_stacked_reference(images, preds, batch["present"], partners, batch["tau"])


@pytest.mark.parametrize("shape", TERM_SHAPES)
def test_cv_loss_equals_stacked_reference_bit_for_bit_on_flat_and_thin_grids(shape):
    # Three images: a soft one, a hard one with negative zeros, and a hard one
    # on a zero image, whose variance maps are all zero (zero-norm rows).
    # Anchors (1, 1) and (2, K - 1) have no partner; image 2's one row is a
    # positive and a candidate only.
    K, H, W = shape
    rng = np.random.default_rng(sum(shape))
    images = [Image(rng.random((H, W))), Image(rng.random((H, W))), Image(np.zeros((H, W)))]
    preds = [softmax(LogitField(rng.normal(size=shape))), _hard_with_negative_zeros(K, H, W, 5),
             _hard_with_negative_zeros(K, H, W, 6)]
    present = [tuple(range(K)), (1, 0), (K - 1,)]
    partners = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (0, K - 1): 2}
    _assert_cv_equals_stacked_reference(images, preds, present, partners, 0.07)


@pytest.mark.parametrize("seed", [2, 5])
def test_cv_loss_is_independent_of_the_plans_insertion_order(seed):
    # Four 3-class images, every anchor paired. Summed in insertion order,
    # these plans' reversed copies moved the contrastive value's last bit.
    rng = np.random.default_rng(seed)
    K, H, W, N = 3, 4, 5, 4
    images = [Image(rng.random((H, W))) for _ in range(N)]
    preds = [softmax(LogitField(2.0 * rng.normal(size=(K, H, W)))) for _ in range(N)]
    plan = {(n, k): int(rng.choice([m for m in range(N) if m != n]))
            for n in range(N) for k in range(K)}
    reversed_plan = dict(reversed(plan.items()))
    assert reversed_plan == plan and list(reversed_plan) != list(plan)
    present = [tuple(range(K))] * N
    a = cv_loss(images, preds, present, plan, 0.07, 0.3)
    b = cv_loss(images, preds, present, reversed_plan, 0.07, 0.3)
    assert a[0].hex() == b[0].hex()
    assert all(bit_equal(x, y) for x, y in zip(a[1], b[1]))


def _cv_scratch_batch(seed, present, H, W):
    # A _drawn_cv_batch as cv_loss's positional arguments before tau, image 0's
    # prediction one-hot with negative zeros.
    _, images, preds, partners = _drawn_cv_batch(seed, present, H, W)
    preds[0] = _hard_with_negative_zeros(3, H, W, seed)
    return images, preds, present, partners


def _assert_cv_equals_reference(got, batch):
    images, preds, present, partners = batch
    want = cv_loss_stacked([im.intensities for im in images], [p.probabilities for p in preds],
                           [tuple(sorted(c)) for c in present], partners, 0.07, 0.3, False)
    assert float(got[0]).hex() == float(want[0]).hex()
    assert len(got[1]) == len(want[1])
    assert all(bit_equal(g, w) for g, w in zip(got[1], want[1]))


def test_cv_loss_reused_scratch_cannot_be_seen_in_its_results():
    # cv_loss keeps Z, the deviations and dZ between calls: a call with fewer
    # rows takes a prefix of the held block, one on another grid a new block.
    # Each result equals the stacked reference, signs of zero included, and a
    # gradient it returned is the caller's to overwrite.
    a = _cv_scratch_batch(3, [{0, 1, 2}] * 4, 6, 5)
    fewer = _cv_scratch_batch(4, [{0, 2}, {2}, {0, 1}], 6, 5)
    other_grid = _cv_scratch_batch(5, [{0, 1, 2}] * 5, 4, 7)
    blocks = []
    for batch in (a, fewer, other_grid, a):
        got = cv_loss(*batch, 0.07, 0.3)
        _assert_cv_equals_reference(got, batch)
        blocks.append(pointseg.losses._CV_SCRATCH.block)
        for grad in got[1]:
            grad.fill(np.nan)
    assert blocks[1] is blocks[0] and blocks[2] is not blocks[1] and blocks[3] is not blocks[2]


def test_cv_loss_in_threads_at_once_gives_each_its_serial_bits():
    # Every batch fills a block of one shape, so a scratch shared across
    # threads would hand a call another thread's rows; a short switch interval
    # makes the four threads interleave inside the calls.
    batches = [_cv_scratch_batch(seed, [{0, 1, 2}] * 4, 24, 24) for seed in (6, 7, 8, 9)]

    def calls(batch):
        return [cv_loss(*batch, 0.07, 0.3) for _ in range(8)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(batches)) as pool:
            runs = list(pool.map(calls, batches, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for batch, results in zip(batches, runs):
        for got in results:
            _assert_cv_equals_reference(got, batch)


_GLIBC_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts minor page faults under glibc's allocator")


def _faults_per_iteration(model_kind, train_count, batch_size, iterations=8):
    """Minor page faults of each of `iterations` pce+cv iterations on 64x64
    synth images, in a fresh process, counted between calls of assemble_batch."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = (
        "import resource\n"
        "import pointseg.train as train\n"
        "from pointseg import SynthSpec, TrainConfig, generate_annotations, synth_generate, train_loop\n"
        f"samples = generate_annotations(synth_generate(SynthSpec(train_count={train_count}, test_count=0))[0], 0)\n"
        "faults, assemble = [], train.assemble_batch\n"
        "def counting(*args):\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
        "    return assemble(*args)\n"
        "train.assemble_batch = counting\n"
        f"train_loop(samples, TrainConfig(model_kind={model_kind!r}, mode='pce+cv', batch_size={batch_size},\n"
        f"                                total_iterations={iterations}))\n"
        "faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
        "print(*(b - a for a, b in zip(faults, faults[1:])))\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    per_iteration = [int(n) for n in run.stdout.split()]
    assert len(per_iteration) == iterations
    return per_iteration


@_GLIBC_ONLY
def test_field_cv_steps_take_no_page_faults_once_warm():
    # A field-cv-like run (logit field, pce+cv, 32 images at 64x64, batch 16).
    # Batch-sized arrays made afresh in every step would be handed back to the
    # OS by glibc and faulted in again in the next one, over a thousand faults
    # an iteration: cv_loss holds its batch matrices so that they are not.
    per_iteration = _faults_per_iteration("logit-field", 32, 16)
    assert np.median(per_iteration[2:]) <= 50, per_iteration


@_GLIBC_ONLY
def test_conv_cv_steps_take_no_page_faults_once_warm():
    # The conv-ed twin (pce+cv, 16 images at 64x64, batch 8): the conv
    # operands and each image's one loss gradient array stay mapped too.
    # Its heap can still grow, a hundred-odd faults at a time, through the
    # seventh iteration, so the steady state is read over iterations 6-11.
    per_iteration = _faults_per_iteration("conv-ed", 16, 8, iterations=11)
    assert np.median(per_iteration[5:]) <= 50, per_iteration


def test_cv_loss_freeze_means_is_keyword_only():
    # A call written for the older signature passed mu where freeze_means is.
    images, preds, present, plan = _orthogonal_batch()
    with pytest.raises(TypeError):
        cv_loss(images, preds, present, plan, 1.0, 1.0, 1e-5)


def test_cv_freeze_means_changes_gradient_substantially():
    rng = np.random.default_rng(9)
    images = [Image(rng.random((4, 4))) for _ in range(2)]
    preds = [softmax(LogitField(rng.normal(size=(2, 4, 4)))) for _ in range(2)]
    plan = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0}
    full = cv_loss(images, preds, [(0, 1)] * 2, plan, 0.07, 1.0)
    frozen = cv_loss(images, preds, [(0, 1)] * 2, plan, 0.07, 1.0, freeze_means=True)
    diff = max(np.abs(a - b).max() for a, b in zip(full[1], frozen[1]))
    assert diff > 1e-4  # the chain through the class means carries real signal


# composite objective


def _random_batch(seed, K=3, H=5, W=4, n=2):
    rng = np.random.default_rng(seed)
    images = [Image(rng.random((H, W))) for _ in range(n)]
    fields = [LogitField(rng.normal(size=(K, H, W))) for _ in range(n)]
    anns = [PointAnnotation(_distinct_points(rng, K, H, W), K) for _ in range(n)]
    plan = {(n_, k): 1 - n_ for n_ in range(2) for k in range(K)}
    return images, fields, anns, plan


def test_loss_settings_rejects_unknown_mode_and_nonpositive_tau():
    # The objective is validated once, when its settings are built, so
    # total_loss never meets a mode it does not know.
    with pytest.raises(InvalidConfigError, match="mode"):
        LossSettings(mode="pce+tv")
    with pytest.raises(InvalidConfigError, match="tau"):
        LossSettings(tau=0.0)


def test_total_loss_mode_components():
    images, fields, anns, plan = _random_batch(1)
    s = LossSettings()
    pce_only, with_ms, with_cv = (
        total_loss(images, fields, anns, plan, LossSettings(mode)) for mode in MODES)
    assert pce_only.ms_data == 0.0 and pce_only.cv_contrastive == 0.0 and pce_only.tv == 0.0
    assert pce_only.total == pytest.approx(pce_only.pce)
    assert with_ms.ms_data > 0.0 and with_ms.cv_contrastive == 0.0
    assert with_ms.total == pytest.approx(
        with_ms.pce + s.lambda_ms * with_ms.ms_data + s.mu * with_ms.tv)
    assert with_cv.cv_contrastive > 0.0 and with_cv.ms_data == 0.0
    assert with_cv.total == pytest.approx(
        with_cv.pce + s.lambda_cv * with_cv.cv_contrastive + s.mu * with_cv.tv)
    for b in (pce_only, with_ms, with_cv):
        assert len(b.grad_wrt_logits) == 2
        assert b.grad_wrt_logits[0].shape == fields[0].logits.shape


@pytest.mark.parametrize("mode", MODES)
def test_total_loss_logit_gradients_are_new_arrays(mode):
    # Each image's gradient is written in place from the loss to the logits,
    # so no two may share memory, nor any with a logit field.
    images, fields, anns, plan = _random_batch(3)
    grads = total_loss(images, fields, anns, plan, LossSettings(mode)).grad_wrt_logits
    for n, g in enumerate(grads):
        assert not any(np.shares_memory(g, f.logits) for f in fields)
        assert not any(np.shares_memory(g, other) for other in grads[n + 1:])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad, message", [
    (PointAnnotation(((0, 0, 3),), 4), "annotation has 4 classes, prediction has 3"),
    (PointAnnotation(((1, 1, 0), (5, 2, 1)), 3), "annotated pixel (5, 2) outside 5x4 image"),
], ids=["class-count", "off-grid"])
def test_total_loss_rejects_a_bad_annotation_before_any_term_runs(monkeypatch, mode, bad, message):
    images, fields, anns, plan = _random_batch(4)

    def never(*args, **kwargs):
        raise AssertionError("a term ran before the annotations were checked")
    monkeypatch.setattr(pointseg.losses, "tv_term", never)
    monkeypatch.setattr(pointseg.losses, "cv_loss", never)
    monkeypatch.setattr(pointseg.losses, "ms_data_term", never)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        total_loss(images, fields, [anns[0], bad], {}, LossSettings(mode))


def test_total_loss_zero_weights_collapse_to_pce():
    images, fields, anns, plan = _random_batch(2)
    collapsed = total_loss(images, fields, anns, plan,
                           LossSettings("pce+cv", lambda_cv=0.0, mu=0.0))
    plain = total_loss(images, fields, anns, plan, LossSettings("pce"))
    assert collapsed.total == pytest.approx(plain.total, abs=1e-15)
    for a, b in zip(collapsed.grad_wrt_logits, plain.grad_wrt_logits):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["pce", "pce+ms", "pce+cv"])
def test_total_loss_gradient_sums_terms_in_order(mode):
    # Checkpoint bytes depend on the order of the additions, not only on
    # their values: TV and the mode's term meet first, then the pce gradient.
    settings = LossSettings(mode, mu=1e-2)
    for seed in range(4):
        images, fields, anns, plan = _random_batch(seed)
        breakdown = total_loss(images, fields, anns, plan, settings)
        want = total_loss_grads_oracle(images, [softmax(f) for f in fields],
                                       anns, plan, settings)
        for got, ref in zip(breakdown.grad_wrt_logits, want):
            assert bit_equal(got, ref)


@pytest.mark.parametrize("freeze_means", [False, True])
def test_pce_ms_gradient_adds_each_class_into_the_tv_array_without_a_stacked_term(
        monkeypatch, freeze_means):
    # pce+ms adds lambda_ms times each class's data-term gradient into the TV
    # array class by class, never forming ms_data_term's (K, H, W) stack; the
    # bits stay those of lambda_ms * stack + mu * TV.
    def never(*args, **kwargs):
        raise AssertionError("pce+ms formed the stacked data-term gradient")

    monkeypatch.setattr(pointseg.losses, "ms_data_term", never)
    settings = LossSettings("pce+ms", lambda_ms=0.7, mu=1e-2, freeze_means=freeze_means)
    for seed in range(3):
        images, fields, anns, plan = _random_batch(seed)
        breakdown = total_loss(images, fields, anns, plan, settings)
        want = total_loss_grads_oracle(images, [softmax(f) for f in fields],
                                       anns, plan, settings)
        for got, ref in zip(breakdown.grad_wrt_logits, want):
            assert bit_equal(got, ref)


@pytest.mark.parametrize("mode", ["pce+ms", "pce+cv"])
def test_total_loss_gradient_at_zero_mu_has_the_oracles_signs_of_zero(mode):
    # mu = 0 times a negative TV entry is -0.0. Added to zero grids, as the
    # oracle adds the terms, it turns +0.0; an unannotated image's probability
    # columns are all zero in pce+cv, so a -0.0 would reach its logit gradient.
    settings = LossSettings(mode, mu=0.0)
    for seed in range(4):
        images, fields, anns, plan = _random_batch(seed, n=3)
        anns[2] = PointAnnotation((), 3)
        breakdown = total_loss(images, fields, anns, plan, settings)
        want = total_loss_grads_oracle(images, [softmax(f) for f in fields],
                                       anns, plan, settings)
        for got, ref in zip(breakdown.grad_wrt_logits, want):
            assert bit_equal(got, ref)


@pytest.mark.parametrize("mode", ["pce", "pce+ms", "pce+cv"])
def test_total_loss_gradient_matches_finite_differences(mode):
    images, fields, anns, plan = _random_batch(4, K=2, H=4, W=3)
    settings = LossSettings(mode, mu=1e-3)

    def objective(flat):
        # The TV gradient belongs to the smoothed surrogate, so differentiate
        # the total with the surrogate's value in place of the exact TV.
        lf = [LogitField(flat[: 24].reshape(2, 4, 3)),
              LogitField(flat[24:].reshape(2, 4, 3))]
        b = total_loss(images, lf, anns, plan, settings)
        if mode == "pce":
            return b.total
        smooth_tv = sum(_smooth_tv(softmax(f).probabilities) for f in lf)
        return b.total + settings.mu * (smooth_tv - b.tv)

    flat0 = np.concatenate([f.logits.reshape(-1) for f in fields])
    fd = finite_diff_grad(per_probe(objective), flat0)
    breakdown = total_loss(images, fields, anns, plan, settings)
    analytic = np.concatenate([g.reshape(-1) for g in breakdown.grad_wrt_logits])
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    # Skip the band where central differences bottom out in float64 rounding;
    # the verification suites cover it with a complex-step oracle.
    mask = (np.abs(analytic) > 1e-7) & (np.abs(analytic - fd) > fd_noise_floor(objective(flat0)))
    rel = np.abs(analytic - fd)[mask] / scale[mask]
    assert rel.size == 0 or rel.max() <= 1e-4


def test_loss_settings_defaults():
    s = LossSettings()
    assert (s.mode, s.lambda_cv, s.lambda_ms, s.mu, s.tau) == ("pce+cv", 0.3, 0.3, 1e-5, 0.07)


_HALF = SoftPrediction(np.full((2, 2, 2), 0.5))
BAD_TERM_INPUTS = {
    "pce-class-count": (lambda: partial_cross_entropy(_HALF, PointAnnotation(((0, 0, 2),), 3)),
                        "annotation has 3 classes, prediction has 2"),
    "pce-pixel-outside": (lambda: partial_cross_entropy(_HALF, PointAnnotation(((2, 0, 1),), 2)),
                          "annotated pixel (2, 0) outside 2x2 image"),
    "ms-image-shape": (lambda: ms_data_term(Image(np.zeros((3, 2))), _HALF),
                       "image shape (3, 2) != prediction shape (2, 2)"),
    "total-loss-misaligned": (
        lambda: total_loss([Image(np.zeros((2, 2)))] * 2, [LogitField(np.zeros((2, 2, 2)))],
                           [PointAnnotation((), 2)] * 2, {}, LossSettings()),
        "images, logits and annotations must align"),
}


@pytest.mark.parametrize("case", sorted(BAD_TERM_INPUTS))
def test_bad_loss_input_raises_naming_what_is_wrong(case):
    call, message = BAD_TERM_INPUTS[case]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


# Every term returns one shape: (finite scalar value, gradient shaped like the
# probabilities), with one gradient per image for the batch-wide cv_loss.
TERM_CALLS = {
    "partial_cross_entropy": lambda images, preds: partial_cross_entropy(
        preds[0], PointAnnotation(((0, 0, 0), (3, 4, 2)), 3)),
    "ms_data_term": lambda images, preds: ms_data_term(images[0], preds[0]),
    "tv_term": lambda images, preds: tv_term(preds[0]),
    "cv_loss": lambda images, preds: cv_loss(
        images, preds, [(0, 2), (0, 2)], {(0, 0): 1, (1, 2): 0}, tau=0.07, lambda_cv=0.3),
}


@pytest.mark.parametrize("term", sorted(TERM_CALLS))
def test_each_term_returns_its_value_and_gradient_as_a_pair(term):
    rng = np.random.default_rng(7)
    images = [Image(rng.random((4, 5))) for _ in range(2)]
    preds = [softmax(LogitField(rng.normal(size=(3, 4, 5)))) for _ in range(2)]
    result = TERM_CALLS[term](images, preds)
    assert type(result) is tuple and len(result) == 2
    value, grad = result
    assert np.ndim(value) == 0 and math.isfinite(value)
    grads = grad if term == "cv_loss" else [grad]
    assert len(grads) == (len(preds) if term == "cv_loss" else 1)
    for g, pred in zip(grads, preds):
        assert g.shape == pred.probabilities.shape and np.all(np.isfinite(g))
