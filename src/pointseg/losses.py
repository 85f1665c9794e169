"""Loss terms for point-supervised segmentation, with analytic gradients.

Every term returns its scalar value together with the exact gradient with
respect to the prediction probabilities, so the whole objective can be pulled
back through :func:`pointseg.grids.softmax_backward` into logits. The terms:

* partial cross-entropy over the handful of annotated pixels;
* the piecewise-constant (Mumford-Shah style) data term, with the full
  quotient-rule chain through each class's soft intensity mean;
* anisotropic total variation of the probability maps;
* a contrastive term over per-class variance maps, pulling same-class maps
  from different images together and pushing different-class maps apart,
  with temperature-scaled cosine similarities.

:func:`total_loss` composes them per training mode: partial cross-entropy,
plus either the data term or the contrastive term, plus TV as a regularizer
in both of those modes.

Integrals over the pixel domain are discretized as plain sums, unnormalized
by pixel count, so loss weights are calibrated to a fixed resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .grids import Image, SoftPrediction, softmax, softmax_backward

LOG_CLAMP = 1e-12    # floor inside log() of the cross-entropy
MEAN_DENOM_EPS = 1e-8   # guards vanishing class mass in the soft means
COSINE_EPS = 1e-12   # guards zero vectors in cosine similarity
TV_SMOOTH_EPS = 1e-12   # |x| ~ x / sqrt(x^2 + eps) in the TV gradient

MODES = ("pce", "pce+ms", "pce+cv")


@dataclass(frozen=True)
class PointAnnotation:
    """Sparse point labels: at most one (row, col) pixel per class."""

    points: tuple  # of (row, col, class_id)
    num_classes: int

    def __post_init__(self):
        pts = tuple((int(r), int(c), int(k)) for r, c, k in self.points)
        seen_classes = set()
        seen_pixels = set()
        for r, c, k in pts:
            if not 0 <= k < self.num_classes:
                raise InvalidInputError(f"annotated class {k} outside [0, {self.num_classes})")
            if k in seen_classes:
                raise InvalidInputError(f"class {k} annotated more than once")
            if (r, c) in seen_pixels:
                raise InvalidInputError(f"pixel ({r}, {c}) annotated more than once")
            seen_classes.add(k)
            seen_pixels.add((r, c))
        object.__setattr__(self, "points", pts)

    @property
    def classes(self) -> tuple:
        """Sorted ids of the classes this annotation covers."""
        return tuple(sorted(k for _, _, k in self.points))


@dataclass(frozen=True)
class PairingPlan:
    """Positive-partner assignment for contrastive anchors.

    Maps (batch index, class id) to the batch index of another image whose
    annotation contains the same class. Anchors without an entry are skipped.
    """

    partners: dict = field(default_factory=dict)

    def items(self):
        return sorted(self.partners.items())


@dataclass(frozen=True)
class LossBreakdown:
    """Mode-selected objective with its components and per-image logit gradients."""

    mode: str
    pce: float
    ms_data: float
    cv_contrastive: float
    tv: float
    total: float
    grad_wrt_logits: list  # one (K, H, W) array per batch image


def partial_cross_entropy(pred: SoftPrediction, ann: PointAnnotation):
    """Cross-entropy restricted to the annotated pixels.

    Returns (value, gradient w.r.t. probabilities). Probabilities are clamped
    at 1e-12 inside the log, so a confidently wrong prediction yields a large
    but finite penalty. An empty annotation contributes 0 with a zero
    gradient: no supervision, not an error.
    """
    probs = pred.probabilities
    K, H, W = probs.shape
    if ann.num_classes != K:
        raise InvalidInputError(f"annotation has {ann.num_classes} classes, prediction has {K}")
    grad = np.zeros_like(probs)
    value = 0.0
    for r, c, k in ann.points:
        if not (0 <= r < H and 0 <= c < W):
            raise InvalidInputError(f"annotated pixel ({r}, {c}) outside {H}x{W} image")
        p = probs[k, r, c]
        value -= math.log(max(p, LOG_CLAMP))
        if p > LOG_CLAMP:
            grad[k, r, c] = -1.0 / p
    return value, grad


def _mean_stats(image: Image, pred: SoftPrediction):
    """Per-class weighted sums behind the soft means: intensity mass, total mass, mean."""
    I = image.intensities
    P = pred.probabilities
    if I.shape != P.shape[1:]:
        raise InvalidInputError(f"image shape {I.shape} != prediction shape {P.shape[1:]}")
    intensity_mass = (P * I[None, :, :]).sum(axis=(1, 2))
    mass = P.sum(axis=(1, 2))
    means = intensity_mass / (mass + MEAN_DENOM_EPS)
    return intensity_mass, mass, means


def class_means(image: Image, pred: SoftPrediction) -> np.ndarray:
    """Prediction-weighted mean intensity of each class region, shape (K,).

    A class with vanishing predicted mass gets mean 0 through the epsilon
    in the denominator.
    """
    _, _, means = _mean_stats(image, pred)
    return means


def variance_map(image: Image, pred: SoftPrediction, means: np.ndarray, k: int) -> np.ndarray:
    """Elementwise (I - c_k)^2 * P_k, shape (H, W): the appearance representation
    contrasted across images."""
    if not 0 <= k < pred.num_classes:
        raise InvalidInputError(f"class {k} outside [0, {pred.num_classes})")
    return (image.intensities - means[k]) ** 2 * pred.probabilities[k]


def _variance_map_backward(image, probs_k, mass_k, mean_k, grad_wrt_map, freeze_means):
    """Gradient of sum(g * z_k) w.r.t. P_k, where z_k = (I - c_k)^2 P_k.

    Includes the quotient-rule chain through c_k unless freeze_means is on.
    """
    I = image.intensities
    dev = I - mean_k
    grad = grad_wrt_map * dev**2
    if not freeze_means:
        # dL/dc_k collects -2 (I - c_k) P_k g over pixels; c_k = A/(B + eps)
        # so dc_k/dP_k(r) = (I(r) - c_k) / (B + eps).
        grad_mean = -2.0 * (grad_wrt_map * probs_k * dev).sum()
        grad += grad_mean * dev / (mass_k + MEAN_DENOM_EPS)
    return grad


def ms_data_term(image: Image, pred: SoftPrediction, freeze_means: bool = False):
    """Piecewise-constant data term: sum over classes and pixels of (I - c_k)^2 P_k.

    Returns (value, gradient w.r.t. probabilities). The gradient carries the
    full dependence of each c_k on the prediction.
    """
    _, mass, means = _mean_stats(image, pred)
    I = image.intensities
    P = pred.probabilities
    K = P.shape[0]
    grad = np.empty_like(P)
    value = 0.0
    for k in range(K):
        dev = I - means[k]
        value += float((dev**2 * P[k]).sum())
        grad[k] = _variance_map_backward(image, P[k], mass[k], means[k], 1.0, freeze_means)
    return value, grad


def tv_term(pred: SoftPrediction, smooth_value: bool = False):
    """Anisotropic total variation of the probability maps.

    Sums |forward horizontal difference| + |forward vertical difference| over
    all classes; differences reaching outside the grid contribute nothing.
    The reported value uses the exact absolute differences; the gradient is
    that of the smoothed surrogate sqrt(x^2 + 1e-12), which is 0 at kinks.
    With smooth_value the surrogate is also used for the value, so gradient
    checks can differentiate the very function the gradient belongs to.
    """
    P = pred.probabilities
    dh = P[:, :, 1:] - P[:, :, :-1]
    dv = P[:, 1:, :] - P[:, :-1, :]
    if smooth_value:
        value = float(np.sqrt(dh**2 + TV_SMOOTH_EPS).sum() + np.sqrt(dv**2 + TV_SMOOTH_EPS).sum())
    else:
        value = float(np.abs(dh).sum() + np.abs(dv).sum())
    grad = np.zeros_like(P)
    uh = dh / np.sqrt(dh**2 + TV_SMOOTH_EPS)
    uv = dv / np.sqrt(dv**2 + TV_SMOOTH_EPS)
    grad[:, :, 1:] += uh
    grad[:, :, :-1] -= uh
    grad[:, 1:, :] += uv
    grad[:, :-1, :] -= uv
    return value, grad


def cosine_similarity(a, b) -> float:
    """Cosine similarity of two maps flattened to vectors, zero-vector safe."""
    av = np.asarray(a, dtype=np.float64).reshape(-1)
    bv = np.asarray(b, dtype=np.float64).reshape(-1)
    if av.shape != bv.shape:
        raise InvalidInputError(f"cosine inputs disagree in size: {av.shape} vs {bv.shape}")
    denom = np.linalg.norm(av) * np.linalg.norm(bv) + COSINE_EPS
    return float(av @ bv / denom)


@dataclass(frozen=True)
class ContrastiveVarianceResult:
    """Value and gradients of the contrastive-variance term over a batch."""

    contrastive: float   # sum of anchor terms, unweighted
    grad_wrt_probs: list  # one (K, H, W) array per image, gradient of lambda_cv * contrastive
    num_anchors: int


def cv_loss(images, preds, present, plan: PairingPlan, tau: float,
            lambda_cv: float, *, freeze_means: bool = False) -> ContrastiveVarianceResult:
    """Contrastive variance loss over a batch, with full gradients.

    For each anchor (image n, class k) that has a positive partner in `plan`,
    adds -log(pos / (pos + neg)), where pos compares the anchor's variance map
    with the partner's same-class map and neg compares it against every other
    image's maps of other classes (restricted to classes present there). All
    similarities come from one cosine matrix over the batch's variance maps,
    as in supervised contrastive learning. Gradients flow through the variance
    maps, the class means, and the predictions; classes not in `present` get
    zero gradient. TV is not part of this term: total_loss adds it.
    """
    if tau <= 0:
        raise InvalidConfigError(f"temperature must be positive, got {tau}")
    n_images = len(images)
    if n_images < 1 or len(preds) != n_images or len(present) != n_images:
        raise InvalidInputError("images, preds and present-class sets must align")
    shape = preds[0].spatial_shape
    present = [tuple(sorted(set(int(k) for k in s))) for s in present]
    for n in range(n_images):
        if preds[n].spatial_shape != shape:
            raise InvalidInputError("all predictions in a batch must share one H x W")
        for k in present[n]:
            if not 0 <= k < preds[n].num_classes:
                raise InvalidInputError(f"present class {k} outside range for image {n}")
    anchors = plan.items()
    for (n, k), m in anchors:
        if not (0 <= n < n_images and 0 <= m < n_images) or m == n:
            raise InvalidInputError(f"pairing ({n}, {k}) -> {m} is out of range or self-paired")
        if k not in present[n] or k not in present[m]:
            raise InvalidInputError(f"pairing ({n}, {k}) -> {m} names a class not present")

    grads = [np.zeros_like(pred.probabilities) for pred in preds]
    contrastive = 0.0
    if anchors:
        # Z holds one flattened variance map per (image, present class) row;
        # S is the cosine of every pair of rows.
        stats = [_mean_stats(images[n], preds[n]) for n in range(n_images)]
        keys = [(n, k) for n in range(n_images) for k in present[n]]
        row = {key: a for a, key in enumerate(keys)}
        img, cls = np.array(keys).T
        Z = np.stack([
            variance_map(images[n], preds[n], stats[n][2], k).reshape(-1) for n, k in keys
        ])
        norms = np.linalg.norm(Z, axis=1)
        D = np.outer(norms, norms) + COSINE_EPS
        S = (Z @ Z.T) / D

        # One row per anchor over its candidates: the positive column plus
        # every other image's other-class maps. -log(pos / (pos + neg)) is a
        # log-sum-exp shifted by the row max, so small temperatures stay finite.
        a_rows = np.array([row[nk] for nk, _ in anchors])
        pos = np.array([row[(m, k)] for (_, k), m in anchors])
        mask = (img != img[a_rows, None]) & (cls != cls[a_rows, None])
        mask[np.arange(len(anchors)), pos] = True
        sims = np.where(mask, S[a_rows], -np.inf)
        shift = sims.max(axis=1)
        e = np.exp((sims - shift[:, None]) / tau)
        e_sum = e.sum(axis=1)
        s_pos = S[a_rows, pos]
        contrastive = float((shift / tau + np.log(e_sum) - s_pos / tau).sum())

        # dS: softmax weight of each candidate, minus one at the positive.
        dS = np.zeros_like(S)
        dS[a_rows] = e / e_sum[:, None]
        dS[a_rows, pos] -= 1.0
        dS *= lambda_cv / tau
        # S = G / D with G = Z Z^T and D = n n^T + eps; the guard keeps dn / n
        # finite for a zero row, whose own contribution vanishes with it.
        dG = dS / D
        dD = -dS * S / D
        dn = (dD + dD.T) @ norms
        safe = np.where(norms > 0.0, norms, 1.0)
        dZ = (dG + dG.T) @ Z + (dn / safe)[:, None] * Z
        for (n, k), gz in zip(keys, dZ):
            _, mass, means = stats[n]
            grads[n][k] += _variance_map_backward(
                images[n], preds[n].probabilities[k], mass[k], means[k],
                gz.reshape(shape), freeze_means
            )

    return ContrastiveVarianceResult(contrastive, grads, len(anchors))


@dataclass(frozen=True)
class LossSettings:
    """Hyperparameters shared by the composite objective.

    smooth_tv_value swaps the reported TV value for its smoothed surrogate;
    derivative checks set it so the objective matches the gradient everywhere.
    """

    lambda_cv: float = 0.3
    lambda_ms: float = 0.3
    mu: float = 1e-5
    tau: float = 0.07
    freeze_means: bool = False
    smooth_tv_value: bool = False


def total_loss(mode: str, images, logit_fields, annotations, plan: PairingPlan,
               settings: LossSettings) -> LossBreakdown:
    """Mode-selected training objective over a batch, differentiated to logits.

    Modes: "pce" is the supervised term alone; "pce+ms" adds the weighted
    piecewise-constant data term and "pce+cv" the weighted contrastive-variance
    term, each with mu times the TV of every prediction. This is the one place
    TV joins the objective. Components a mode does not use are reported as 0.
    """
    if mode not in MODES:
        raise InvalidConfigError(f"unknown loss mode {mode!r}; expected one of {MODES}")
    n_images = len(images)
    if len(logit_fields) != n_images or len(annotations) != n_images:
        raise InvalidInputError("images, logits and annotations must align")

    preds = [softmax(lf) for lf in logit_fields]
    pce_sum = 0.0
    grads_probs = []
    for pred, ann in zip(preds, annotations):
        value, grad = partial_cross_entropy(pred, ann)
        pce_sum += value
        grads_probs.append(grad)

    ms_sum = cv_sum = tv_sum = 0.0
    total = pce_sum
    if mode != "pce":
        if mode == "pce+ms":
            term_grads = []
            for image, pred in zip(images, preds):
                ms_value, ms_grad = ms_data_term(image, pred, settings.freeze_means)
                ms_sum += ms_value
                term_grads.append(settings.lambda_ms * ms_grad)
            term = settings.lambda_ms * ms_sum
        else:
            cv = cv_loss(images, preds, [ann.classes for ann in annotations], plan,
                         settings.tau, settings.lambda_cv, freeze_means=settings.freeze_means)
            cv_sum = cv.contrastive
            term_grads = cv.grad_wrt_probs
            term = settings.lambda_cv * cv_sum
        # TV regularizes both modes. Its gradient meets the term's before the
        # pce gradient: checkpoint bytes depend on that order.
        for pred, grad, term_grad in zip(preds, grads_probs, term_grads):
            tv_value, tv_grad = tv_term(pred, settings.smooth_tv_value)
            tv_sum += tv_value
            grad += settings.mu * tv_grad + term_grad
        total = pce_sum + term + settings.mu * tv_sum

    grad_logits = [softmax_backward(pred, g) for pred, g in zip(preds, grads_probs)]
    return LossBreakdown(mode, pce_sum, ms_sum, cv_sum, tv_sum, total, grad_logits)
