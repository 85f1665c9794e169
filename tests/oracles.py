"""Independent brute-force references used by the metric and loss tests.

Everything here is written against the definitions, not against the library:
set arithmetic for overlap, an O(|boundary P| * |boundary G|) distance scan
with an exact percentile, and direct per-anchor loss evaluation. Keeping
these separate from the production code is the point; do not "simplify" them
to call into pointseg.
"""

import math

import numpy as np


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
