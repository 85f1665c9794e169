import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pointseg import (
    Image,
    InvalidConfigError,
    InvalidInputError,
    LogitField,
    LossSettings,
    PairingPlan,
    PointAnnotation,
    SoftPrediction,
    class_means,
    cosine_similarity,
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

from oracles import bit_equal, cv_oracle, pce_oracle, total_loss_grads_oracle


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
    means = class_means(image, pred)
    assert means[0] == pytest.approx(0.0, abs=1e-7)
    assert means[1] == pytest.approx(1.0, abs=1e-7)


def test_class_means_zero_mass_class():
    image = Image(np.array([[0.3, 0.7]]))
    pred = SoftPrediction(np.array([[[1.0, 1.0]], [[0.0, 0.0]]]))
    assert class_means(image, pred)[1] == 0.0


def test_variance_map_values():
    image = Image(np.array([[1.0, 0.5]]))
    pred = SoftPrediction(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
    means = class_means(image, pred)
    z = variance_map(image, pred, means, 0)
    assert z[0, 0] == pytest.approx((1.0 - means[0]) ** 2, abs=1e-9)
    assert z[0, 1] == 0.0
    with pytest.raises(InvalidInputError):
        variance_map(image, pred, means, 5)


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
    exact, g1 = tv_term(pred)
    smooth, g2 = tv_term(pred, smooth_value=True)
    assert smooth >= exact
    assert smooth - exact <= 1e-4
    assert np.array_equal(g1, g2)  # the gradient is always the surrogate's


# cosine similarity and anchor terms


def test_cosine_conventions():
    a = np.zeros((2, 2))
    a[0, 0] = 0.5
    b = np.zeros((2, 2))
    b[1, 1] = 0.3
    assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-9)
    assert cosine_similarity(a, b) == 0.0
    assert cosine_similarity(np.zeros((2, 2)), b) == 0.0
    with pytest.raises(InvalidInputError):
        cosine_similarity(np.zeros(3), np.zeros(4))


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
    plan = PairingPlan({(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0})
    return [image, image], [pred, pred], [(0, 1), (0, 1)], plan


def test_cv_hand_value_four_anchors():
    images, preds, present, plan = _orthogonal_batch()
    res = cv_loss(images, preds, present, plan, tau=1.0, lambda_cv=1.0)
    # each anchor: -log(e / (e + 1)); the sum is 4 * ln(1 + 1/e) = 1.25304...
    assert abs(res.contrastive - 4.0 * math.log(1.0 + math.exp(-1.0))) <= 1e-9
    assert res.num_anchors == 4


def test_cv_empty_plan_contributes_nothing():
    images, preds, present, _ = _orthogonal_batch()
    res = cv_loss(images, preds, present, PairingPlan({}), tau=0.07, lambda_cv=0.3)
    assert res.contrastive == 0.0
    assert res.num_anchors == 0
    assert all(not g.any() for g in res.grad_wrt_probs)


def test_cv_two_images_one_shared_class_no_negatives():
    rng = np.random.default_rng(5)
    images = [Image(rng.random((3, 3))) for _ in range(2)]
    preds = [softmax(LogitField(rng.normal(size=(2, 3, 3)))) for _ in range(2)]
    plan = PairingPlan({(0, 1): 1, (1, 1): 0})
    res = cv_loss(images, preds, [(1,), (1,)], plan, tau=1.0, lambda_cv=1.0)
    assert abs(res.contrastive) <= 1e-9


def test_cv_plan_validation():
    images, preds, present, _ = _orthogonal_batch()
    with pytest.raises(InvalidInputError):
        cv_loss(images, preds, present, PairingPlan({(0, 0): 0}), 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        cv_loss(images, preds, [(0,), (0,)], PairingPlan({(0, 1): 1}), 1.0, 1.0)
    with pytest.raises(InvalidConfigError):
        cv_loss(images, preds, present, PairingPlan({}), -1.0, 1.0)
    with pytest.raises(InvalidConfigError):
        cv_loss(images, preds, present, PairingPlan({}), 0.0, 1.0)


def test_cv_tiny_temperature_stays_finite():
    rng = np.random.default_rng(3)
    images = [Image(rng.random((4, 4))) for _ in range(3)]
    preds = [softmax(LogitField(rng.normal(size=(2, 4, 4)))) for _ in range(3)]
    plan = PairingPlan({(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 0, (2, 0): 0, (2, 1): 1})
    with np.errstate(over="raise", invalid="raise"):
        res = cv_loss(images, preds, [(0, 1)] * 3, plan, 1e-4, 1.0)
    assert math.isfinite(res.contrastive)
    assert all(np.all(np.isfinite(g)) for g in res.grad_wrt_probs)


@given(
    seed=st.integers(0, 1 << 16),
    present=st.lists(st.sets(st.integers(0, 2)), min_size=1, max_size=4),
    tau=st.sampled_from([1e-4, 0.07, 1.0]),
)
@example(seed=0, present=[{0, 1}, set(), {1, 2}], tau=0.07)  # an image with no class
@example(seed=1, present=[{1}, {1}], tau=1e-4)  # anchors without negatives
@example(seed=2, present=[{0, 2}, {0, 1, 2}, {2}], tau=1.0)  # partial present sets
def test_cv_matches_per_anchor_oracle(seed, present, tau):
    rng = np.random.default_rng(seed)
    K, H, W = 3, 3, 4
    images = [Image(rng.random((H, W))) for _ in present]
    preds = [softmax(LogitField(2.0 * rng.normal(size=(K, H, W)))) for _ in present]
    partners = {}
    for n, classes in enumerate(present):
        for k in sorted(classes):
            others = [m for m, other in enumerate(present) if m != n and k in other]
            if others and rng.random() < 0.8:
                partners[(n, k)] = others[int(rng.integers(len(others)))]
    res = cv_loss(images, preds, present, PairingPlan(partners), tau, 0.3)
    value, anchors = cv_oracle([im.intensities for im in images],
                               [p.probabilities for p in preds], present, partners, tau)
    assert res.num_anchors == anchors
    assert res.contrastive == pytest.approx(value, rel=1e-9, abs=1e-9)


def test_cv_loss_freeze_means_is_keyword_only():
    # A call written for the older signature passed mu where freeze_means is.
    images, preds, present, plan = _orthogonal_batch()
    with pytest.raises(TypeError):
        cv_loss(images, preds, present, plan, 1.0, 1.0, 1e-5)


def test_cv_freeze_means_changes_gradient_substantially():
    rng = np.random.default_rng(9)
    images = [Image(rng.random((4, 4))) for _ in range(2)]
    preds = [softmax(LogitField(rng.normal(size=(2, 4, 4)))) for _ in range(2)]
    plan = PairingPlan({(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0})
    full = cv_loss(images, preds, [(0, 1)] * 2, plan, 0.07, 1.0)
    frozen = cv_loss(images, preds, [(0, 1)] * 2, plan, 0.07, 1.0, freeze_means=True)
    diff = max(np.abs(a - b).max() for a, b in zip(full.grad_wrt_probs, frozen.grad_wrt_probs))
    assert diff > 1e-4  # the chain through the class means carries real signal


# composite objective


def _random_batch(seed, K=3, H=5, W=4, n=2):
    rng = np.random.default_rng(seed)
    images = [Image(rng.random((H, W))) for _ in range(n)]
    fields = [LogitField(rng.normal(size=(K, H, W))) for _ in range(n)]
    anns = [PointAnnotation(_distinct_points(rng, K, H, W), K) for _ in range(n)]
    plan = PairingPlan({(n_, k): 1 - n_ for n_ in range(2) for k in range(K)})
    return images, fields, anns, plan


def test_total_loss_rejects_unknown_mode():
    images, fields, anns, plan = _random_batch(0)
    with pytest.raises(InvalidConfigError):
        total_loss("pce+tv", images, fields, anns, plan, LossSettings())


def test_total_loss_mode_components():
    images, fields, anns, plan = _random_batch(1)
    s = LossSettings()
    pce_only = total_loss("pce", images, fields, anns, plan, s)
    with_ms = total_loss("pce+ms", images, fields, anns, plan, s)
    with_cv = total_loss("pce+cv", images, fields, anns, plan, s)
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


def test_total_loss_zero_weights_collapse_to_pce():
    images, fields, anns, plan = _random_batch(2)
    collapsed = total_loss("pce+cv", images, fields, anns, plan,
                           LossSettings(lambda_cv=0.0, mu=0.0))
    plain = total_loss("pce", images, fields, anns, plan, LossSettings())
    assert collapsed.total == pytest.approx(plain.total, abs=1e-15)
    for a, b in zip(collapsed.grad_wrt_logits, plain.grad_wrt_logits):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["pce", "pce+ms", "pce+cv"])
def test_total_loss_gradient_sums_terms_in_order(mode):
    # Checkpoint bytes depend on the order of the additions, not only on
    # their values: TV and the mode's term meet first, then the pce gradient.
    settings = LossSettings(mu=1e-2)
    for seed in range(4):
        images, fields, anns, plan = _random_batch(seed)
        breakdown = total_loss(mode, images, fields, anns, plan, settings)
        want = total_loss_grads_oracle(mode, images, [softmax(f) for f in fields],
                                       anns, plan, settings)
        for got, ref in zip(breakdown.grad_wrt_logits, want):
            assert bit_equal(got, ref)


@pytest.mark.parametrize("mode", ["pce", "pce+ms", "pce+cv"])
def test_total_loss_gradient_matches_finite_differences(mode):
    images, fields, anns, plan = _random_batch(4, K=2, H=4, W=3)
    settings = LossSettings(mu=1e-3, smooth_tv_value=True)

    def objective(flat):
        lf = [LogitField(flat[: 24].reshape(2, 4, 3)),
              LogitField(flat[24:].reshape(2, 4, 3))]
        return total_loss(mode, images, lf, anns, plan, settings).total

    flat0 = np.concatenate([f.logits.reshape(-1) for f in fields])
    fd = finite_diff_grad(objective, flat0)
    breakdown = total_loss(mode, images, fields, anns, plan, settings)
    analytic = np.concatenate([g.reshape(-1) for g in breakdown.grad_wrt_logits])
    scale = np.maximum(np.abs(analytic), np.abs(fd))
    # Skip the band where central differences bottom out in float64 rounding;
    # the verification suites cover it with a complex-step oracle.
    mask = (np.abs(analytic) > 1e-7) & (np.abs(analytic - fd) > fd_noise_floor(objective(flat0)))
    rel = np.abs(analytic - fd)[mask] / scale[mask]
    assert rel.size == 0 or rel.max() <= 1e-4


def test_loss_settings_defaults():
    s = LossSettings()
    assert (s.lambda_cv, s.lambda_ms, s.mu, s.tau) == (0.3, 0.3, 1e-5, 0.07)
