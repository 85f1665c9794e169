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

:func:`total_loss` composes them in the mode a :class:`LossSettings` names:
partial cross-entropy, plus either the data term or the contrastive term, plus
TV as a regularizer in both of those modes. LossSettings is the one validated
description of that objective; the training config extends it. Each config
field declares its domain with `domain`, which `check_domains` enforces.

Integrals over the pixel domain are discretized as plain sums, unnormalized
by pixel count, so loss weights are calibrated to a fixed resolution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

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
    for r, c, k in ann.points:
        if not (0 <= r < H and 0 <= c < W):
            raise InvalidInputError(f"annotated pixel ({r}, {c}) outside {H}x{W} image")
        p = probs[k, r, c]
        if p > LOG_CLAMP:
            grad[k, r, c] = -1.0 / p
    return _pce_value([pred], [ann]), grad


def _pce_value(preds, anns):
    """partial_cross_entropy's value summed over a batch, unchecked. Real
    probabilities take math.log, whose last bits history.csv records (np.log's
    differ for some inputs); complex ones take np.log, which keeps the
    imaginary part the complex-step oracle reads."""
    value = 0.0
    for pred, ann in zip(preds, anns):
        log = np.log if np.iscomplexobj(pred.probabilities) else math.log
        for r, c, k in ann.points:
            p = pred.probabilities[k, r, c]
            value -= log(p if p.real > LOG_CLAMP else LOG_CLAMP)
    return value


def _mean_stats(image: Image, pred: SoftPrediction):
    """Per-class weighted sums behind the soft means: intensity mass, total mass,
    and mean, the prediction-weighted mean intensity of each class region. A
    class with vanishing predicted mass gets mean 0 through the epsilon in the
    denominator."""
    I = image.intensities
    P = pred.probabilities
    if I.shape != P.shape[1:]:
        raise InvalidInputError(f"image shape {I.shape} != prediction shape {P.shape[1:]}")
    intensity_mass = (P * I[None, :, :]).sum(axis=(1, 2))
    mass = P.sum(axis=(1, 2))
    means = intensity_mass / (mass + MEAN_DENOM_EPS)
    return intensity_mass, mass, means


def _variance_map_backward(dev, probs_k, mass_k, grad_wrt_map, freeze_means):
    """Gradient of sum(g * z_k) w.r.t. P_k, where z_k = (I - c_k)^2 P_k and
    dev = I - c_k is the deviation _variance_rows formed for that row.

    Includes the quotient-rule chain through c_k unless freeze_means is on.
    """
    grad = grad_wrt_map * dev**2
    if not freeze_means:
        # dL/dc_k collects -2 (I - c_k) P_k g over pixels; c_k = A/(B + eps)
        # so dc_k/dP_k(r) = (I(r) - c_k) / (B + eps).
        grad_mean = -2.0 * (grad_wrt_map * probs_k * dev).sum()
        grad += grad_mean * dev / (mass_k + MEAN_DENOM_EPS)
    return grad


def _variance_rows(image: Image, pred: SoftPrediction, classes, out=None):
    """The mean statistics, one flattened variance-map row (I - c_k)^2 P_k per
    class k in `classes`, in its order, and each row's deviation I - c_k: the
    MS term's summands and cv's per-image step. The rows go into `out` (cv's
    block of its batch matrix Z) or a new (len(classes), H*W) array."""
    stats = _mean_stats(image, pred)
    I, P, means = image.intensities, pred.probabilities, stats[2]
    devs = [I - means[k] for k in classes]
    if out is None:
        out = np.empty((len(devs), I.size), dtype=P.dtype)
    for z, dev, k in zip(out.reshape(len(devs), *I.shape), devs, classes):
        np.multiply(np.square(dev, out=z), P[k], out=z)
    return stats, out, devs


def variance_map(image: Image, pred: SoftPrediction, k: int) -> np.ndarray:
    """Class k's variance map (I - c_k)^2 P_k, shape (H, W): the appearance
    representation contrasted across images, as _variance_rows writes it."""
    if not 0 <= k < pred.num_classes:
        raise InvalidInputError(f"class {k} outside [0, {pred.num_classes})")
    return _variance_rows(image, pred, (k,))[1].reshape(image.intensities.shape)


def _ms_value(image: Image, pred: SoftPrediction):
    """ms_data_term's value, the sum of its variance rows, with the class masses
    and deviations its gradient reuses. Complex probabilities give a complex value."""
    (_, mass, _), rows, devs = _variance_rows(image, pred, range(pred.num_classes))
    value = 0.0
    for row in rows:
        value += row.sum()
    return value, mass, devs


def ms_data_term(image: Image, pred: SoftPrediction, freeze_means: bool = False):
    """Piecewise-constant data term: sum over classes and pixels of (I - c_k)^2 P_k.

    Returns (value, gradient w.r.t. probabilities). The gradient carries the
    full dependence of each c_k on the prediction.
    """
    value, mass, devs = _ms_value(image, pred)
    grad = np.stack([
        _variance_map_backward(dev, P_k, mass[k], 1.0, freeze_means)
        for k, (P_k, dev) in enumerate(zip(pred.probabilities, devs))
    ])
    return value, grad


def _smooth_tv(P):
    """tv_term's smoothed surrogate sum sqrt(d^2 + eps) on real or complex
    probabilities: the value both gradient oracles differentiate."""
    dh = P[:, :, 1:] - P[:, :, :-1]
    dv = P[:, 1:, :] - P[:, :-1, :]
    return np.sqrt(dh * dh + TV_SMOOTH_EPS).sum() + np.sqrt(dv * dv + TV_SMOOTH_EPS).sum()


def tv_term(pred: SoftPrediction):
    """Anisotropic total variation of the probability maps.

    Sums |forward horizontal difference| + |forward vertical difference| over
    all classes; differences reaching outside the grid contribute nothing.
    Exact value, smoothed gradient: the value is the exact sum of absolute
    differences, and the gradient is the exact derivative of the surrogate
    _smooth_tv, sqrt(x^2 + 1e-12) per difference, which is 0 at kinks. The
    gradient oracles differentiate _smooth_tv.

    Horizontal differences are taken on the flattened grid, with the ones that
    wrap from a row's end to the next row zeroed, so they add nothing to the
    gradient; the value sums a contiguous (K, H, W-1) copy, keeping its order.
    """
    P = pred.probabilities
    K, H, W = P.shape
    flat = P.reshape(-1)
    d = np.empty_like(flat)
    np.subtract(flat[1:], flat[:-1], out=d[:-1])
    dh = d.reshape(K, H, W)
    dh[:, :, -1] = 0.0
    dv = P[:, 1:, :] - P[:, :-1, :]
    uh = d / np.sqrt(d**2 + TV_SMOOTH_EPS)
    uv = dv / np.sqrt(dv**2 + TV_SMOOTH_EPS)
    grad = np.zeros(P.shape)  # C order, so g is a view of it
    g = grad.reshape(-1)
    g[1:] += uh[:-1]
    g[:-1] -= uh[:-1]
    grad[:, 1:, :] += uv
    grad[:, :-1, :] -= uv
    return float(np.abs(dh[:, :, :-1]).sum() + np.abs(dv).sum()), grad


@dataclass(frozen=True)
class ContrastiveVarianceResult:
    """Value and gradients of the contrastive-variance term over a batch."""

    contrastive: float   # sum of anchor terms, unweighted
    grad_wrt_probs: list  # one (K, H, W) array per image, gradient of lambda_cv * contrastive
    num_anchors: int


def _cv_index(present, plan: PairingPlan):
    """cv_loss's plan index, None without anchors: the anchors, the (image,
    class) key of each row of Z, the anchor rows, their positive columns and
    each anchor's candidate mask (the positive plus every other image's
    other-class rows). It depends on the present sets and the plan alone."""
    anchors = plan.items()
    if not anchors:
        return None
    keys = [(n, k) for n, classes in enumerate(present) for k in classes]
    row = {key: a for a, key in enumerate(keys)}
    img, cls = np.array(keys).T
    a_rows = np.array([row[nk] for nk, _ in anchors])
    pos = np.array([row[(m, k)] for (_, k), m in anchors])
    mask = (img != img[a_rows, None]) & (cls != cls[a_rows, None])
    mask[np.arange(len(anchors)), pos] = True
    return anchors, keys, a_rows, pos, mask


def _cv_batch(Z, index, tau: float):
    """cv_loss's value over Z, the batch's variance rows (every image's
    _variance_rows, one row per image and present class in _cv_index's key
    order), and the plan's _cv_index, with what its gradient reuses: Z's row
    norms, D, the cosine matrix S, and each anchor's shifted exponentials e and
    their sum. Complex rows give a complex value."""
    _, _, a_rows, pos, mask = index
    norms = np.sqrt((Z * Z).sum(axis=1))
    D = np.outer(norms, norms) + COSINE_EPS
    S = (Z @ Z.T) / D

    # -log(pos / (pos + neg)) is a log-sum-exp shifted by the row max, so
    # small temperatures stay finite. Non-candidates get -inf only after the
    # division by tau: a complex -inf divided by tau is an invalid operation.
    sims = S[a_rows]
    shift = np.where(mask, sims, -np.inf).max(axis=1)
    e = np.exp(np.where(mask, (sims - shift[:, None]) / tau, -np.inf))
    e_sum = e.sum(axis=1)
    contrastive = (shift / tau + np.log(e_sum) - S[a_rows, pos] / tau).sum()
    return contrastive, (norms, D, S, e, e_sum)


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

    Each image's _variance_rows go straight into its block of the batch
    matrix Z; the backward completes each row's dZ in its loop and pulls it
    back through the deviation the value step kept, which it then drops.
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
    for (n, k), m in plan.items():
        if not (0 <= n < n_images and 0 <= m < n_images) or m == n:
            raise InvalidInputError(f"pairing ({n}, {k}) -> {m} is out of range or self-paired")
        if k not in present[n] or k not in present[m]:
            raise InvalidInputError(f"pairing ({n}, {k}) -> {m} names a class not present")
    grads = [np.zeros_like(pred.probabilities) for pred in preds]
    index = _cv_index(present, plan)
    if index is None:
        return ContrastiveVarianceResult(0.0, grads, 0)
    anchors, keys, a_rows, pos, _ = index
    Z = np.empty((len(keys), shape[0] * shape[1]))
    masses, devs = [], []  # per image; per row of Z
    for image, pred, classes in zip(images, preds, present):
        block = Z[len(devs):len(devs) + len(classes)]
        (_, mass, _), _, image_devs = _variance_rows(image, pred, classes, block)
        masses.append(mass)
        devs += image_devs
    contrastive, (norms, D, S, e, e_sum) = _cv_batch(Z, index, tau)
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
    dZ = (dG + dG.T) @ Z
    scale = dn / safe
    for r, (n, k) in enumerate(keys):
        dZ[r] += scale[r] * Z[r]
        grads[n][k] += _variance_map_backward(
            devs[r], preds[n].probabilities[k], masses[n][k], dZ[r].reshape(shape), freeze_means)
        devs[r] = None
    return ContrastiveVarianceResult(contrastive, grads, len(anchors))


# The values each annotated field type takes; a bool is no number.
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str,
                "tuple": (tuple, list)}
_NAMED_INTERVALS = {"[0, inf)": "be nonnegative", "(0, inf)": "be positive"}


def domain(default=MISSING, interval="(-inf, inf)", choices=None):
    """A config field taking `choices`, or numbers in `interval` ("[lo, hi)" and
    the like; for a tuple field, every number inside it); required with no default."""
    return field(default=default, metadata={"interval": interval, "choices": choices})


def _leaves(value):
    return [x for item in value for x in _leaves(item)] if isinstance(value, (tuple, list)) else [value]


def check_domains(config) -> None:
    """Hold every field of a config dataclass to its declared domain.

    A value not of the annotated type raises TypeError (an int field takes no
    float, no field but a bool takes a bool). A number that is not finite or
    not in the interval, or a value not among the choices, raises
    InvalidConfigError. Non-numbers inside a tuple are left to the class's rules.
    """
    for f in fields(config):
        value, interval, choices = getattr(config, f.name), f.metadata["interval"], f.metadata["choices"]
        if not isinstance(value, _FIELD_TYPES[f.type]) or isinstance(value, bool) != (f.type == "bool"):
            raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        if choices is not None and value not in choices:
            raise InvalidConfigError(f"{f.name} must be one of {choices}, got {value!r}")
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        for x in _leaves(value):
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                continue
            if not math.isfinite(x):
                raise InvalidConfigError(f"{f.name} must be finite, got {x!r}")
            if not lo <= x <= hi or (x == lo and interval[0] == "(") or (x == hi and interval[-1] == ")"):
                rule = _NAMED_INTERVALS.get(interval, f"lie in {interval}")
                raise InvalidConfigError(f"{f.name} must {rule}, got {x!r}")


@dataclass(frozen=True)
class LossSettings:
    """The training objective: its mode and weights, each field held to its
    domain once here, a subclass's fields included."""

    mode: str = domain("pce+cv", choices=MODES)
    lambda_cv: float = domain(0.3, "[0, inf)")
    lambda_ms: float = domain(0.3, "[0, inf)")
    mu: float = domain(1e-5, "[0, inf)")
    tau: float = domain(0.07, "(0, inf)")
    freeze_means: bool = domain(False)

    def __post_init__(self):
        check_domains(self)


def total_loss(images, logit_fields, annotations, plan: PairingPlan,
               settings: LossSettings) -> LossBreakdown:
    """The objective settings.mode selects over a batch, differentiated to logits.

    Modes: "pce" is the supervised term alone; "pce+ms" adds the weighted
    piecewise-constant data term and "pce+cv" the weighted contrastive-variance
    term, each with mu times the TV of every prediction. This is the one place
    TV joins the objective. Components a mode does not use are reported as 0.
    """
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
    if settings.mode != "pce":
        if settings.mode == "pce+ms":
            term_grads = []
            for image, pred in zip(images, preds):
                ms_value, ms_grad = ms_data_term(image, pred, settings.freeze_means)
                ms_sum += ms_value
                ms_grad *= settings.lambda_ms
                term_grads.append(ms_grad)
            term = settings.lambda_ms * ms_sum
        else:
            cv = cv_loss(images, preds, [ann.classes for ann in annotations], plan,
                         settings.tau, settings.lambda_cv, freeze_means=settings.freeze_means)
            cv_sum = cv.contrastive
            term_grads = cv.grad_wrt_probs
            term = settings.lambda_cv * cv_sum
        # TV regularizes both modes. Its gradient meets the term's before the
        # pce gradient: checkpoint bytes depend on that order.
        for n, (pred, term_grad) in enumerate(zip(preds, term_grads)):
            tv_value, grad = tv_term(pred)
            tv_sum += tv_value
            grad *= settings.mu
            grad += term_grad
            grad += grads_probs[n]
            grads_probs[n] = grad
        total = pce_sum + term + settings.mu * tv_sum

    grad_logits = [softmax_backward(pred, g) for pred, g in zip(preds, grads_probs)]
    return LossBreakdown(pce_sum, ms_sum, cv_sum, tv_sum, total, grad_logits)


def _objective_part(pred: SoftPrediction, image: Image, classes, settings: LossSettings):
    """One image's part of total_loss's value, on real or complex probabilities:
    its prediction and, beyond pce, its ms value or the variance rows of
    `classes`, and its smoothed TV. Both gradient oracles evaluate it."""
    if settings.mode == "pce":
        return pred, None, None
    term = (_ms_value(image, pred)[0] if settings.mode == "pce+ms"
            else _variance_rows(image, pred, classes))
    return pred, term, _smooth_tv(pred.probabilities)


def _objective_value(parts, anns, index, settings: LossSettings):
    """total_loss's value, TV taken as its smoothed surrogate, from every
    image's _objective_part and, in pce+cv, the plan's _cv_index, added in
    total_loss's order. With no annotations pce contributes exactly 0.0."""
    preds, terms, tvs = zip(*parts)
    total = _pce_value(preds, anns)
    if settings.mode == "pce":
        return total
    if settings.mode == "pce+ms":
        term = settings.lambda_ms * sum(terms)
    else:
        term = 0.0 if index is None else _cv_batch(
            np.concatenate([rows for _, rows, _ in terms]), index, settings.tau)[0]
        term = settings.lambda_cv * term
    return total + term + settings.mu * sum(tvs)
