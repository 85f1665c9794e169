"""Symmetry checks: losses must not care about orientation, intensity
offsets, or the order a batch was assembled in."""

import numpy as np

from pointseg import Image, PointAnnotation, SoftPrediction
from pointseg.grids import LogitField, softmax
from pointseg.losses import (
    LossSettings,
    PairingPlan,
    _cv_batch,
    _cv_index,
    _variance_rows,
    cv_loss,
    ms_data_term,
    partial_cross_entropy,
    total_loss,
    tv_term,
)


def _random_batch(rng, n=3, K=3, H=16, W=16):
    images, logits, anns = [], [], []
    for _ in range(n):
        images.append(Image(rng.random((H, W))))
        logits.append(LogitField(rng.normal(size=(K, H, W))))
        cells = rng.choice(H * W, size=K, replace=False)
        pts = tuple((int(c) // W, int(c) % W, k) for k, c in enumerate(cells))
        anns.append(PointAnnotation(pts, K))
    return images, logits, anns


def _full_plan(anns):
    n = len(anns)
    partners = {}
    for i, ann in enumerate(anns):
        for k in ann.classes:
            partners[(i, k)] = (i + 1) % n
    return PairingPlan(partners)


def _flip(arr):
    return np.ascontiguousarray(arr[..., ::-1])


def _flip_ann(ann, W):
    return PointAnnotation(tuple((r, W - 1 - c, k) for r, c, k in ann.points),
                           ann.num_classes)


def test_pce_flip_equivariant(rng):
    K, H, W = 3, 5, 6
    pred = softmax(LogitField(rng.normal(size=(K, H, W))))
    cells = rng.choice(H * W, size=K, replace=False)
    ann = PointAnnotation(tuple((int(c) // W, int(c) % W, k) for k, c in enumerate(cells)), K)
    v, g = partial_cross_entropy(pred, ann)
    fv, fg = partial_cross_entropy(SoftPrediction(_flip(pred.probabilities)),
                                   _flip_ann(ann, W))
    assert abs(v - fv) <= 1e-9
    assert np.max(np.abs(_flip(g) - fg)) <= 1e-9


def test_ms_flip_equivariant(rng):
    K, H, W = 3, 5, 6
    image = Image(rng.random((H, W)))
    pred = softmax(LogitField(rng.normal(size=(K, H, W))))
    v, g = ms_data_term(image, pred)
    fv, fg = ms_data_term(Image(_flip(image.intensities)),
                          SoftPrediction(_flip(pred.probabilities)))
    assert abs(v - fv) <= 1e-9
    assert np.max(np.abs(_flip(g) - fg)) <= 1e-9


def test_tv_flip_equivariant(rng):
    pred = softmax(LogitField(rng.normal(size=(3, 5, 6))))
    v, g = tv_term(pred)
    fv, fg = tv_term(SoftPrediction(_flip(pred.probabilities)))
    assert abs(v - fv) <= 1e-9
    assert np.max(np.abs(_flip(g) - fg)) <= 1e-9


def test_cv_flip_equivariant(rng):
    images, logits, anns = _random_batch(rng)
    preds = [softmax(lf) for lf in logits]
    present = [a.classes for a in anns]
    plan = _full_plan(anns)
    res = cv_loss(images, preds, present, plan, tau=0.5, lambda_cv=1.0)
    f_images = [Image(_flip(im.intensities)) for im in images]
    f_preds = [SoftPrediction(_flip(p.probabilities)) for p in preds]
    f_res = cv_loss(f_images, f_preds, present, plan, tau=0.5, lambda_cv=1.0)
    assert abs(res.contrastive - f_res.contrastive) <= 1e-9
    for g, fg in zip(res.grad_wrt_probs, f_res.grad_wrt_probs):
        assert np.max(np.abs(_flip(g) - fg)) <= 1e-9


def test_total_loss_flip_equivariant_every_mode(rng):
    images, logits, anns = _random_batch(rng)
    W = images[0].intensities.shape[1]
    plan = _full_plan(anns)
    f_images = [Image(_flip(im.intensities)) for im in images]
    f_logits = [LogitField(_flip(lf.logits)) for lf in logits]
    f_anns = [_flip_ann(a, W) for a in anns]
    for mode in ("pce", "pce+ms", "pce+cv"):
        settings = LossSettings(mode, tau=0.5)
        a = total_loss(images, logits, anns, plan, settings)
        b = total_loss(f_images, f_logits, f_anns, plan, settings)
        assert abs(a.total - b.total) <= 1e-9
        for ga, gb in zip(a.grad_wrt_logits, b.grad_wrt_logits):
            assert np.max(np.abs(_flip(ga) - gb)) <= 1e-9


def test_contrastive_invariant_to_per_image_intensity_shift(rng):
    # The variance map subtracts the class's own weighted mean, so adding a
    # constant to one image changes neither its maps nor any similarity.
    # The class-mean denominator guard costs each mean an offset of
    # shift * 1e-8 / mass, so the check needs masses well above the guard:
    # a 16x16 grid and a wide intensity spread keep the residual under 1e-9.
    images, logits, anns = _random_batch(rng)
    images = [Image(0.6 * im.intensities) for im in images]
    preds = [softmax(lf) for lf in logits]
    present = [a.classes for a in anns]
    plan = _full_plan(anns)

    def cosine_matrix(ims):
        # S, the cosine of every pair of variance rows, as cv_loss builds it
        Z = np.concatenate([_variance_rows(im, pred, classes)[1]
                            for im, pred, classes in zip(ims, preds, present)])
        return _cv_batch(Z, _cv_index(present, plan), 0.5)[1][2]

    shifted_images = [
        Image(im.intensities + delta)
        for im, delta in zip(images, (0.4, 0.05, 0.2))
    ]
    assert np.max(np.abs(cosine_matrix(images) - cosine_matrix(shifted_images))) <= 1e-9

    base = cv_loss(images, preds, present, plan, tau=0.5, lambda_cv=1.0)
    shifted = cv_loss(shifted_images, preds, present, plan, tau=0.5,
                      lambda_cv=1.0)
    assert abs(base.contrastive - shifted.contrastive) <= 1e-9 * max(
        1.0, abs(base.contrastive)
    )
    assert base.num_anchors == shifted.num_anchors


def test_total_loss_invariant_to_batch_permutation(rng):
    images, logits, anns = _random_batch(rng, n=4)
    plan = _full_plan(anns)
    order = [2, 0, 3, 1]
    inverse = {old: new for new, old in enumerate(order)}
    permuted_plan = PairingPlan({
        (inverse[n], k): inverse[m] for (n, k), m in plan.items()
    })
    for mode in ("pce", "pce+ms", "pce+cv"):
        settings = LossSettings(mode, tau=0.5)
        a = total_loss(images, logits, anns, plan, settings)
        b = total_loss(
            [images[i] for i in order],
            [logits[i] for i in order],
            [anns[i] for i in order],
            permuted_plan,
            settings,
        )
        assert abs(a.total - b.total) <= 1e-9
        assert abs(a.pce - b.pce) <= 1e-9
        assert abs(a.ms_data - b.ms_data) <= 1e-9
        assert abs(a.cv_contrastive - b.cv_contrastive) <= 1e-9
        for new, old in enumerate(order):
            assert np.max(np.abs(a.grad_wrt_logits[old] - b.grad_wrt_logits[new])) <= 1e-9


def test_softmax_shift_invariance(rng):
    logits = rng.normal(size=(3, 4, 5))
    base = softmax(LogitField(logits)).probabilities
    shifted = softmax(LogitField(logits + 123.0)).probabilities
    assert np.max(np.abs(base - shifted)) <= 1e-12
