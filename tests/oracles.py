"""Independent brute-force references used by the metric and loss tests.

Everything here is written against the definitions, not against the library:
set arithmetic for overlap, an O(|boundary P| * |boundary G|) distance scan
with an exact percentile, and direct per-anchor loss evaluation. Keeping
these separate from the production code is the point; do not "simplify" them
to call into pointseg.

The per-tap convolution pair and the pooling and upsampling helpers below
are the exception: they fix the arithmetic, not just the definition. Each
tap's kernel slice meets its shifted window in one tensordot and the taps add
in row-major order from the bias (forward) or from zero (backward); pooling
takes an argmax over each window's four entries, and the upsampling gradient
is one reshape-sum over the window axes. Checkpoint bytes depend on that
order, so the library's layers, and the conv-ed model composed from them,
must equal these bit for bit. The loss composition is the same kind of
exception: it sums the library's own term gradients, in the order the
objective's gradient must keep. The batch oracle is another exception: its
draws come from the library's keyed random streams, which define the plan.
So is the uncached complex forward: it composes the library's own layer
helpers with no layer table and no prefix cache, the reference a walk from
cached activations must equal bit for bit.
The copy-per-coordinate central difference is one too: a fresh copy of the
input per coordinate, moved up by the step and then down by twice it, the
values the in-place probe buffer of finite_diff_grad must equal bit for bit.
The pairwise HD95 is one too: it takes every boundary distance as a float
sqrt of an (n, m, 2) difference tensor, the arithmetic the library's
nearest-square HD95 must equal exactly.
The contrastive suite's objective is one too: it adds the library's own
contrastive value and smoothed TV as 0.3 * cv + 1e-2 * TV, the expression
the suite wrote before it evaluated the shared objective steps, which must
equal it bit for bit with no annotated points.
The whole-array loss terms are the last exceptions. The TV term forms each
difference array on the (K, H, W) grid and adds its gradient from zeros; the
data and contrastive terms take each variance map and its deviation I - c_k
afresh, the contrastive term stacks its rows into one matrix and forms their
gradient whole, and each map's pullback to P_k recomputes its deviation. The
library's terms, which write their rows and gradients in place, must equal
them bit for bit, signs of zero included.

The complex-step oracle runs the library's layers on complex values, so
those layers are also checked against references written for any dtype: an
einsum convolution, which must agree to rounding, and the argmax pool, which
takes each window's argmax by the real part.
"""

import math

import numpy as np

from pointseg.grids import FD_STEP, softmax_backward
from pointseg.losses import (
    COSINE_EPS,
    MEAN_DENOM_EPS,
    TV_SMOOTH_EPS,
    _cv_batch,
    _smooth_tv,
    _variance_rows,
    partial_cross_entropy,
)
from pointseg.models import _conv2d, _maxpool2, _relu, _upsample2
from pointseg.seeding import keyed_rng


def bit_equal(a, b):
    """np.array_equal, and the same sign on every zero."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def dsc_oracle(pred: np.ndarray, gt: np.ndarray, k: int) -> float:
    p = {(i, j) for i, j in np.argwhere(pred == k)}
    g = {(i, j) for i, j in np.argwhere(gt == k)}
    if not p and not g:
        return 1.0
    return 2.0 * len(p & g) / (len(p) + len(g))


def _boundary_set(region: np.ndarray):
    H, W = region.shape
    out = set()
    for i in range(H):
        for j in range(W):
            if not region[i, j]:
                continue
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if not (0 <= ni < H and 0 <= nj < W) or not region[ni, nj]:
                    out.add((i, j))
                    break
    return out


def _percentile_linear(values, q: float) -> float:
    # numpy's default "linear" interpolation, restated independently
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def hd95_oracle(pred: np.ndarray, gt: np.ndarray, k: int) -> float:
    H, W = pred.shape
    p = pred == k
    g = gt == k
    if not p.any() and not g.any():
        return 0.0
    if not p.any() or not g.any():
        return math.hypot(H, W)
    bp = _boundary_set(p)
    bg = _boundary_set(g)
    pooled = []
    for i, j in sorted(bp):
        pooled.append(min(math.hypot(i - a, j - b) for a, b in bg))
    for a, b in sorted(bg):
        pooled.append(min(math.hypot(i - a, j - b) for i, j in bp))
    return _percentile_linear(pooled, 95.0)


def hd95_pairwise(pred: np.ndarray, gt: np.ndarray, k: int) -> float:
    """HD95 from every boundary pair's float distance, minima taken after the sqrt."""
    H, W = pred.shape
    p = pred == k
    g = gt == k
    if not p.any() and not g.any():
        return 0.0
    if not p.any() or not g.any():
        return float(np.hypot(H, W))
    bp = np.array(sorted(_boundary_set(p)), dtype=np.float64)
    bg = np.array(sorted(_boundary_set(g)), dtype=np.float64)
    cross = np.sqrt(((bp[:, None, :] - bg[None, :, :]) ** 2).sum(axis=2))
    pooled = np.concatenate([cross.min(axis=1), cross.min(axis=0)])
    return float(np.percentile(pooled, 95))


def pce_oracle(probs: np.ndarray, points) -> float:
    total = 0.0
    for r, c, k in points:
        total -= math.log(max(float(probs[k, r, c]), 1e-12))
    return total


def _cosine(a, b) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    return dot / (norm_a * norm_b + 1e-12)


def cv_oracle(intensities, probs, present, partners, tau: float):
    """Contrastive sum and anchor count, evaluated one anchor at a time.

    intensities holds one (H, W) array per image, probs one (K, H, W) array,
    present one set of class ids, and partners maps (n, k) to the positive
    image m. An anchor's map is (I - c_k)^2 P_k with the soft mean c_k; its
    candidates are the positive (m, k) and every (i, j) with i != n, j != k
    and j present in image i. The anchor scores the log-sum-exp of its
    candidates' cosines over tau minus the positive's.
    """
    maps = {}
    for n, (image, p) in enumerate(zip(intensities, probs)):
        pixels = [float(v) for v in np.ravel(image)]
        for k in present[n]:
            weights = [float(v) for v in np.ravel(p[k])]
            mean = sum(i * w for i, w in zip(pixels, weights)) / (sum(weights) + 1e-8)
            maps[(n, k)] = [(i - mean) ** 2 * w for i, w in zip(pixels, weights)]
    total = 0.0
    for (n, k), m in sorted(partners.items()):
        anchor = maps[(n, k)]
        positive = _cosine(anchor, maps[(m, k)])
        sims = [positive] + [
            _cosine(anchor, maps[(i, j)]) for i, j in sorted(maps) if i != n and j != k
        ]
        top = max(sims)
        log_sum = top / tau + math.log(sum(math.exp((s - top) / tau) for s in sims))
        total += log_sum - positive / tau
    return total, len(partners)


def conv2d_per_tap(x, w, b):
    """Zero-padded convolution (Cin, H, W) -> (Cout, H, W), one tensordot per tap."""
    _, _, kh, kw = w.shape
    H, W = x.shape[1:]
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((x.shape[0], H + 2 * ph, W + 2 * pw))
    xp[:, ph : ph + H, pw : pw + W] = x
    out = np.broadcast_to(b[:, None, None], (w.shape[0], H, W)).copy()
    for i in range(kh):
        for j in range(kw):
            out += np.tensordot(w[:, :, i, j], xp[:, i : i + H, j : j + W], axes=(1, 0))
    return out


def conv2d_backward_per_tap(x, w, grad_out):
    """(input, kernel, bias) gradients of conv2d_per_tap, one tensordot per tap."""
    _, _, kh, kw = w.shape
    H, W = x.shape[1:]
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((x.shape[0], H + 2 * ph, W + 2 * pw))
    xp[:, ph : ph + H, pw : pw + W] = x
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i : i + H, j : j + W]
            grad_w[:, :, i, j] = np.tensordot(grad_out, patch, axes=((1, 2), (1, 2)))
            grad_xp[:, i : i + H, j : j + W] += np.tensordot(
                w[:, :, i, j], grad_out, axes=(0, 0)
            )
    grad_b = grad_out.sum(axis=(1, 2))
    return grad_xp[:, ph : ph + H, pw : pw + W], grad_w, grad_b


def conv2d_einsum(x, w, b):
    """Zero-padded convolution in x's and w's dtype: one einsum per tap, added onto zeros."""
    cout, cin, kh, kw = w.shape
    H, W = x.shape[1:]
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((cin, H + 2 * ph, W + 2 * pw), dtype=np.result_type(x, w))
    xp[:, ph : ph + H, pw : pw + W] = x
    out = np.zeros((cout, H, W), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            out += np.einsum("oc,chw->ohw", w[:, :, i, j], xp[:, i : i + H, j : j + W])
    return out + b[:, None, None]


def maxpool2_argmax(x):
    """2x2 max pooling as an argmax over each window's four row-major entries,
    compared by the real part."""
    C, H, W = x.shape
    windows = (
        x.reshape(C, H // 2, 2, W // 2, 2).transpose(0, 1, 3, 2, 4).reshape(C, H // 2, W // 2, 4)
    )
    idx = windows.real.argmax(axis=3)
    out = np.take_along_axis(windows, idx[..., None], axis=3)[..., 0]
    return out, idx


def maxpool2_backward_scatter(idx, grad_out, shape):
    """Gradient of maxpool2_argmax: grad_out scattered to each window's argmax."""
    C, H, W = shape
    grad_windows = np.zeros((C, H // 2, W // 2, 4))
    np.put_along_axis(grad_windows, idx[..., None], grad_out[..., None], axis=3)
    return grad_windows.reshape(C, H // 2, W // 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(C, H, W)


def upsample2_backward_reshape_sum(grad_out):
    """Gradient of nearest-neighbor x2 upsampling: each 2x2 block summed."""
    C, H2, W2 = grad_out.shape
    return grad_out.reshape(C, H2 // 2, 2, W2 // 2, 2).sum(axis=(2, 4))


def conv_ed_per_tap(values, intensities, grad_logits):
    """conv-ed logits and parameter gradients for one image from the layer oracles."""
    def conv_relu(x, name):
        return np.maximum(conv2d_per_tap(x, values[f"{name}.w"], values[f"{name}.b"]), 0.0)

    x0 = intensities[None, :, :]
    a1 = conv_relu(x0, "enc1")
    a2 = conv_relu(a1, "enc2")
    pooled, idx = maxpool2_argmax(a2)
    a3 = conv_relu(pooled, "enc3")
    cat = np.concatenate([a2, a3.repeat(2, axis=1).repeat(2, axis=2)], axis=0)
    a4 = conv_relu(cat, "dec1")
    logits = conv2d_per_tap(a4, values["head.w"], values["head.b"])

    grads = {}

    def back(x, name, g):
        grad_x, grads[f"{name}.w"], grads[f"{name}.b"] = conv2d_backward_per_tap(
            x, values[f"{name}.w"], g)
        return grad_x

    c2 = a2.shape[0]
    grad_cat = back(cat, "dec1", back(a4, "head", grad_logits) * (a4 > 0))
    grad_pooled = back(pooled, "enc3", upsample2_backward_reshape_sum(grad_cat[c2:]) * (a3 > 0))
    grad_a2 = (grad_cat[:c2] + maxpool2_backward_scatter(idx, grad_pooled, a2.shape)) * (a2 > 0)
    back(x0, "enc1", back(a1, "enc2", grad_a2) * (a1 > 0))
    return logits, grads


def tv_term_whole(P):
    """TV value and smoothed gradient from whole (K, H, W) difference arrays."""
    dh = P[:, :, 1:] - P[:, :, :-1]
    dv = P[:, 1:, :] - P[:, :-1, :]
    grad = np.zeros_like(P)
    uh = dh / np.sqrt(dh**2 + TV_SMOOTH_EPS)
    uv = dv / np.sqrt(dv**2 + TV_SMOOTH_EPS)
    grad[:, :, 1:] += uh
    grad[:, :, :-1] -= uh
    grad[:, 1:, :] += uv
    grad[:, :-1, :] -= uv
    return float(np.abs(dh).sum() + np.abs(dv).sum()), grad


def _soft_means(I, P):
    mass = P.sum(axis=(1, 2))
    return mass, (P * I[None, :, :]).sum(axis=(1, 2)) / (mass + MEAN_DENOM_EPS)


def variance_map_backward_afresh(I, P_k, mass_k, mean_k, g, freeze_means):
    """Gradient of sum(g * (I - c_k)^2 P_k) w.r.t. P_k, its deviation recomputed."""
    dev = I - mean_k
    grad = g * dev**2
    if not freeze_means:
        grad_mean = -2.0 * (g * P_k * dev).sum()
        grad += grad_mean * dev / (mass_k + MEAN_DENOM_EPS)
    return grad


def ms_data_term_afresh(I, P, freeze_means):
    """Data-term value and gradient, each variance map and its pullback afresh."""
    mass, means = _soft_means(I, P)
    value = 0.0
    for k in range(P.shape[0]):
        value += ((I - means[k]) ** 2 * P[k]).reshape(-1).sum()
    grad = np.stack([variance_map_backward_afresh(I, P[k], mass[k], means[k], 1.0, freeze_means)
                     for k in range(P.shape[0])])
    return value, grad


def cv_loss_stacked(intensities, probs, present, partners, tau, lambda_cv, freeze_means):
    """Contrastive value and per-image probability gradients over a stacked Z.

    present holds one sorted tuple of class ids per image and partners maps
    (n, k) to the positive image m. Z's rows are the variance maps, image by
    image and class by class; dZ is formed whole, and every row's gradient is
    added onto zeros through variance_map_backward_afresh.
    """
    grads = [np.zeros_like(P) for P in probs]
    anchors = sorted(partners.items())
    if not anchors:
        return 0.0, grads
    keys = [(n, k) for n, classes in enumerate(present) for k in classes]
    row = {key: a for a, key in enumerate(keys)}
    img, cls = np.array(keys).T
    a_rows = np.array([row[nk] for nk, _ in anchors])
    pos = np.array([row[(m, k)] for (_, k), m in anchors])
    mask = (img != img[a_rows, None]) & (cls != cls[a_rows, None])
    mask[np.arange(len(anchors)), pos] = True
    stats = [_soft_means(I, P) for I, P in zip(intensities, probs)]
    Z = np.stack([((intensities[n] - stats[n][1][k]) ** 2 * probs[n][k]).reshape(-1)
                  for n, k in keys])
    norms = np.sqrt((Z * Z).sum(axis=1))
    D = np.outer(norms, norms) + COSINE_EPS
    S = (Z @ Z.T) / D
    sims = S[a_rows]
    shift = np.where(mask, sims, -np.inf).max(axis=1)
    e = np.exp(np.where(mask, (sims - shift[:, None]) / tau, -np.inf))
    e_sum = e.sum(axis=1)
    value = (shift / tau + np.log(e_sum) - S[a_rows, pos] / tau).sum()
    dS = np.zeros_like(S)
    dS[a_rows] = e / e_sum[:, None]
    dS[a_rows, pos] -= 1.0
    dS *= lambda_cv / tau
    dG = dS / D
    dD = -dS * S / D
    dn = (dD + dD.T) @ norms
    safe = np.where(norms > 0.0, norms, 1.0)
    dZ = (dG + dG.T) @ Z + (dn / safe)[:, None] * Z
    for (n, k), gz in zip(keys, dZ):
        mass, means = stats[n]
        grads[n][k] += variance_map_backward_afresh(
            intensities[n], probs[n][k], mass[k], means[k], gz.reshape(probs[n][k].shape),
            freeze_means)
    return value, grads


def total_loss_grads_oracle(images, preds, annotations, plan, settings):
    """Per-image logit gradients of settings.mode's objective, summed term by term.

    Each image's probability gradient is pce + (mu * tv + term): the pce+ms
    term is lambda_ms times the data-term gradient, and for pce+cv each
    present class's contrastive gradient is added onto mu * tv on its own.
    TV and the two terms come from the whole-array references above.
    """
    mode = settings.mode
    if mode == "pce+cv":
        _, cv_grads = cv_loss_stacked(
            [im.intensities for im in images], [p.probabilities for p in preds],
            [a.classes for a in annotations], plan.partners, settings.tau, settings.lambda_cv,
            settings.freeze_means)
    grads = []
    for n, (image, pred, ann) in enumerate(zip(images, preds, annotations)):
        grad = partial_cross_entropy(pred, ann)[1]
        if mode != "pce":
            reg = settings.mu * tv_term_whole(pred.probabilities)[1]
            if mode == "pce+ms":
                ms_grad = ms_data_term_afresh(image.intensities, pred.probabilities,
                                              settings.freeze_means)[1]
                reg = settings.lambda_ms * ms_grad + reg
            else:
                for k in ann.classes:
                    reg[k] += cv_grads[n][k]
            grad = grad + reg
        grads.append(softmax_backward(pred, grad))
    return grads


def cv_suite_objective(images, preds, present, index):
    """The contrastive suite's objective over a batch and its plan index:
    0.3 * cv_loss's value plus 1e-2 * each prediction's smoothed TV."""
    Z = np.concatenate([_variance_rows(im, p, c)[1] for im, p, c in zip(images, preds, present)])
    tvs = [_smooth_tv(p.probabilities) for p in preds]
    return 0.3 * _cv_batch(Z, index, 0.07)[0] + 1e-2 * sum(tvs)


def assemble_batch_oracle(samples, iteration, seed, batch_size):
    """Batch ids and pairing dict, each candidate's classes read from its annotation."""
    per_epoch = math.ceil(len(samples) / batch_size)
    epoch, slot = divmod(iteration, per_epoch)
    perm = keyed_rng(seed, "perm", epoch).permutation(len(samples))
    batch = [samples[int(i)] for i in perm[slot * batch_size : (slot + 1) * batch_size]]
    pair_rng = keyed_rng(seed, "pair", iteration)
    partners = {}
    for n, sample in enumerate(batch):
        if sample.annotation is None:
            continue
        for k in sorted(r[2] for r in sample.annotation.points):
            candidates = []
            for m, other in enumerate(batch):
                if m != n and other.annotation is not None:
                    if any(r[2] == k for r in other.annotation.points):
                        candidates.append(m)
            if candidates:
                partners[(n, k)] = candidates[int(pair_rng.integers(len(candidates)))]
    return [s.id for s in batch], partners


def finite_diff_copying(f, x):
    """Central differences with a fresh copy of x for every coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    for i in range(x.size):
        probe = x.copy().reshape(-1)
        probe[i] += FD_STEP
        hi = float(f(probe.reshape(x.shape)))
        probe[i] -= 2.0 * FD_STEP
        lo = float(f(probe.reshape(x.shape)))
        flat[i] = (hi - lo) / (2.0 * FD_STEP)
    return grad


def cx_forward_uncached(values, image):
    """conv-ed's complex logits for one image, every layer computed afresh."""
    def conv(x, name):
        return _conv2d(x, values[f"{name}.w"], values[f"{name}.b"])

    a1 = _relu(conv(image.intensities[None].astype(complex), "enc1"))
    a2 = _relu(conv(a1, "enc2"))
    a3 = _relu(conv(_maxpool2(a2)[0], "enc3"))
    a4 = _relu(conv(np.concatenate([a2, _upsample2(a3)], axis=0), "dec1"))
    return conv(a4, "head")
