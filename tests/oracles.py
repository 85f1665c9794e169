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
objective's gradient must keep. The batch oracle is the other exception: its
draws come from the library's keyed random streams, which define the plan.
"""

import math

import numpy as np

from pointseg.grids import softmax_backward
from pointseg.losses import cv_loss, ms_data_term, partial_cross_entropy, tv_term
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


def maxpool2_argmax(x):
    """2x2 max pooling as an argmax over each window's four row-major entries."""
    C, H, W = x.shape
    windows = (
        x.reshape(C, H // 2, 2, W // 2, 2).transpose(0, 1, 3, 2, 4).reshape(C, H // 2, W // 2, 4)
    )
    idx = windows.argmax(axis=3)
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


def total_loss_grads_oracle(mode, images, preds, annotations, plan, settings):
    """Per-image logit gradients of the mode's objective, summed term by term.

    Each image's probability gradient is pce + (mu * tv + term): the pce+ms
    term is lambda_ms times the data-term gradient, and for pce+cv each
    present class's contrastive gradient is added onto mu * tv on its own.
    """
    if mode == "pce+cv":
        cv = cv_loss(images, preds, [a.classes for a in annotations], plan,
                     settings.tau, settings.lambda_cv, freeze_means=settings.freeze_means)
    grads = []
    for n, (image, pred, ann) in enumerate(zip(images, preds, annotations)):
        grad = partial_cross_entropy(pred, ann)[1]
        if mode != "pce":
            reg = settings.mu * tv_term(pred)[1]
            if mode == "pce+ms":
                reg = settings.lambda_ms * ms_data_term(image, pred, settings.freeze_means)[1] + reg
            else:
                for k in ann.classes:
                    reg[k] += cv.grad_wrt_probs[n][k]
            grad = grad + reg
        grads.append(softmax_backward(pred, grad))
    return grads


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
