"""Gradient verification suites: analytic backward passes against oracles.

Two layers of checking:

* Component suites compare each loss term and each network layer against
  central finite differences in float64. Loss terms are isolated by
  differentiating them with respect to logits through the softmax chain
  (itself checked on its own), so perturbed inputs never leave the simplex.
* End-to-end suites differentiate whole model+loss compositions with a
  complex-step oracle: an imaginary perturbation of one parameter propagates
  through an independent complex re-implementation of the forward pass, and
  the derivative is read off the imaginary part. There is no subtraction of
  nearby values, hence no cancellation noise, which matters because the
  composition's gradient entries span many orders of magnitude. Branch
  choices (ReLU, pooling argmax, log clamp) follow the real parts, so the
  oracle differentiates exactly the branch the production code takes.

End-to-end objectives evaluate TV through its smoothed surrogate; the
production gradient is the exact derivative of that surrogate, while the
reported TV value stays the exact sum of absolute differences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .grids import Image, LogitField, _trusted, finite_diff_grad, softmax, softmax_backward
from .losses import (
    LOG_CLAMP,
    MEAN_DENOM_EPS,
    COSINE_EPS,
    TV_SMOOTH_EPS,
    LossSettings,
    PairingPlan,
    PointAnnotation,
    cv_loss,
    ms_data_term,
    partial_cross_entropy,
    total_loss,
    tv_term,
)
from .models import (
    ModelParams,
    ModelSpec,
    _conv2d,
    _conv2d_backward,
    _maxpool2,
    _maxpool2_backward,
    _upsample2,
    _upsample2_backward,
    backward,
    forward,
    init_params,
)
from .seeding import keyed_rng

REL_TOL = 1e-4
GRAD_FLOOR = 1e-7
SOFTMAX_FLOOR = 1e-8
FD_STEP = 1e-5
COMPLEX_STEP = 1e-20
EPS64 = float(np.finfo(np.float64).eps)


def fd_noise_floor(value: float, step: float = FD_STEP) -> float:
    """Rounding floor of a central difference around a value of this size.

    Each evaluation of the objective rounds to a few ulps of its magnitude;
    the division by 2*step turns that into an irreducible absolute error on
    the difference quotient. Coordinates where analytic and numeric gradients
    agree to within this floor carry no information either way, so the fd
    suites do not count them as disagreement; the complex-step suites cover
    those coordinates without any differencing error.
    """
    return 8.0 * EPS64 * abs(value) / (2.0 * step)


@dataclass(frozen=True)
class ComponentReport:
    """Worst-case outcome of one component's gradient check."""

    name: str
    instances: int
    compared: int      # coordinates above the magnitude floor
    worst_rel_err: float
    worst_seed: int
    worst_coordinate: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_rel_err <= self.tolerance


@dataclass(frozen=True)
class GradCheckReport:
    """All component reports from one verification run."""

    components: tuple
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.components)

    def format_table(self) -> str:
        lines = [f"{'component':32s} {'instances':>9s} {'compared':>9s} "
                 f"{'worst rel err':>14s} {'tolerance':>10s} {'result':>7s}"]
        for c in self.components:
            lines.append(
                f"{c.name:32s} {c.instances:9d} {c.compared:9d} "
                f"{c.worst_rel_err:14.3e} {c.tolerance:10.0e} "
                f"{'PASS' if c.passed else 'FAIL':>7s}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} ({self.seconds:.1f}s)")
        return "\n".join(lines)


class _Worst:
    """Running worst relative error across instances."""

    def __init__(self):
        self.err = 0.0
        self.seed = -1
        self.coordinate = -1
        self.compared = 0

    def update(self, analytic, numeric, trial, floor=GRAD_FLOOR, noise=0.0):
        a = np.asarray(analytic).reshape(-1)
        n = np.asarray(numeric).reshape(-1)
        mask = (np.abs(a) > floor) & (np.abs(a - n) > noise)
        self.compared += int((np.abs(a) > floor).sum())
        if mask.any():
            rel = np.abs(a - n)[mask] / np.maximum(np.abs(a[mask]), np.abs(n[mask]))
            worst = float(rel.max())
            if worst > self.err:
                self.err = worst
                self.seed = trial
                self.coordinate = int(np.flatnonzero(mask)[int(rel.argmax())])

    def report(self, name, instances, tolerance=REL_TOL) -> ComponentReport:
        return ComponentReport(name, instances, self.compared, self.err, self.seed,
                               self.coordinate, tolerance)


def _random_logits(rng, K, H, W):
    # Finite-difference probes move one entry of this validated field by the
    # step: still a finite float64 grid, so they are built with _trusted.
    return LogitField(rng.normal(size=(K, H, W)))


def check_softmax(trials: int = 100, seed: int = 0) -> ComponentReport:
    """softmax_backward against finite differences of a fixed linear probe."""
    worst = _Worst()
    for t in range(trials):
        rng = keyed_rng(seed, "gradcheck", "softmax", t)
        K = int(rng.integers(2, 5))
        H, W = (int(rng.integers(1, 9)) for _ in range(2))
        field = _random_logits(rng, K, H, W)
        probe = rng.normal(size=(K, H, W))
        analytic = softmax_backward(softmax(field), probe)

        def f(flat):
            pred = softmax(_trusted(LogitField, flat.reshape(K, H, W)))
            return float((probe * pred.probabilities).sum())

        flat0 = field.logits.reshape(-1)
        fd = finite_diff_grad(f, flat0)
        worst.update(analytic, fd, t, floor=SOFTMAX_FLOOR, noise=fd_noise_floor(f(flat0)))
    return worst.report("softmax_backward", trials)


def _check_term_through_softmax(name, trials, seed, build):
    """Check a loss term's probability gradient chained through softmax.

    `build(rng)` returns (value_fn(logits flat) -> float, field, analytic
    gradient w.r.t. the logits). Differentiating against logits keeps finite
    difference probes on valid inputs.
    """
    worst = _Worst()
    for t in range(trials):
        rng = keyed_rng(seed, "gradcheck", name, t)
        f, field, analytic = build(rng)
        flat0 = field.logits.reshape(-1)
        fd = finite_diff_grad(f, flat0)
        worst.update(analytic, fd, t, noise=fd_noise_floor(f(flat0)))
    return worst.report(name, trials)


def check_pce(trials: int = 50, seed: int = 0) -> ComponentReport:
    def build(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 9)) for _ in range(2))
        field = _random_logits(rng, K, H, W)
        pixels = rng.choice(H * W, size=min(K, H * W), replace=False)
        points = tuple((int(p // W), int(p % W), k) for k, p in enumerate(pixels))
        ann = PointAnnotation(points, K)
        pred = softmax(field)
        analytic = softmax_backward(pred, partial_cross_entropy(pred, ann)[1])

        def f(flat):
            pred = softmax(_trusted(LogitField, flat.reshape(K, H, W)))
            return partial_cross_entropy(pred, ann)[0]

        return f, field, analytic

    return _check_term_through_softmax("partial_cross_entropy", trials, seed, build)


def check_ms(trials: int = 50, seed: int = 0) -> ComponentReport:
    def build(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 9)) for _ in range(2))
        field = _random_logits(rng, K, H, W)
        image = Image(rng.random((H, W)))
        pred = softmax(field)
        analytic = softmax_backward(pred, ms_data_term(image, pred)[1])

        def f(flat):
            pred = softmax(_trusted(LogitField, flat.reshape(K, H, W)))
            return ms_data_term(image, pred)[0]

        return f, field, analytic

    return _check_term_through_softmax("ms_data_term", trials, seed, build)


def check_tv(trials: int = 50, seed: int = 0) -> ComponentReport:
    # Instances keep every probability difference >= 1e-4 in magnitude: the
    # surrogate's third derivative grows like 1/d^4 near the smoothing scale,
    # where central differences cannot resolve it. The end-to-end complex-step
    # suite covers that regime without differencing error.
    def build(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 7)) for _ in range(2))
        while True:
            field = _random_logits(rng, K, H, W)
            P = softmax(field).probabilities
            dh = np.abs(P[:, :, 1:] - P[:, :, :-1])
            dv = np.abs(P[:, 1:, :] - P[:, :-1, :])
            diffs = np.concatenate([dh.reshape(-1), dv.reshape(-1)])
            if diffs.size == 0 or diffs.min() >= 1e-4:
                break
        pred = softmax(field)
        analytic = softmax_backward(pred, tv_term(pred)[1])

        def f(flat):
            pred = softmax(_trusted(LogitField, flat.reshape(K, H, W)))
            return tv_term(pred, smooth_value=True)[0]

        return f, field, analytic

    return _check_term_through_softmax("tv_term", trials, seed, build)


def check_cv(trials: int = 50, seed: int = 0) -> ComponentReport:
    """Full contrastive-variance chain (means, variance maps, cosines, anchors)."""
    worst = _Worst()
    for t in range(trials):
        rng = keyed_rng(seed, "gradcheck", "cv_loss", t)
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 7)) for _ in range(2))
        batch = int(rng.integers(2, 4))
        images = [Image(rng.random((H, W))) for _ in range(batch)]
        fields = [_random_logits(rng, K, H, W) for _ in range(batch)]
        present = [tuple(range(K))] * batch
        partners = {}
        for n in range(batch):
            for k in range(K):
                others = [i for i in range(batch) if i != n]
                partners[(n, k)] = int(rng.choice(others))
        plan = PairingPlan(partners)

        def evaluate(fields_list):
            preds = [softmax(lf) for lf in fields_list]
            return cv_loss(images, preds, present, plan, tau=0.07,
                           lambda_cv=0.3, mu=1e-2, smooth_tv_value=True)

        result = evaluate(fields)
        noise = fd_noise_floor(result.total)
        for n in range(batch):
            analytic = softmax_backward(softmax(fields[n]), result.grad_wrt_probs[n])

            def f(flat, n=n):
                probe = list(fields)
                probe[n] = _trusted(LogitField, flat.reshape(K, H, W))
                return evaluate(probe).total

            fd = finite_diff_grad(f, fields[n].logits.reshape(-1))
            worst.update(analytic, fd, t, noise=noise)
    return worst.report("cv_loss", trials)


def _check_layer(name, trials, seed, build):
    """Generic layer JVP check: value probe sum(g * layer(inputs))."""
    worst = _Worst()
    for t in range(trials):
        rng = keyed_rng(seed, "gradcheck", name, t)
        inputs, apply_fn, grads_fn = build(rng)
        out = apply_fn(*inputs)
        probe = keyed_rng(seed, "gradcheck", name, t, "probe").normal(size=out.shape)
        analytic = grads_fn(probe, *inputs)
        noise = fd_noise_floor(float((probe * out).sum()))
        for idx, x in enumerate(inputs):
            def f(flat, idx=idx):
                probed = [v.copy() for v in inputs]
                probed[idx] = flat.reshape(inputs[idx].shape)
                return float((probe * apply_fn(*probed)).sum())

            fd = finite_diff_grad(f, x.reshape(-1))
            worst.update(analytic[idx], fd, t, noise=noise)
    return worst.report(name, trials)


def check_conv(kernel: int, trials: int = 50, seed: int = 0) -> ComponentReport:
    def build(rng):
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        H, W = (int(rng.integers(2, 9)) for _ in range(2))
        x = rng.normal(size=(cin, H, W))
        w = rng.normal(size=(cout, cin, kernel, kernel))
        b = rng.normal(size=(cout,))

        def grads(g, x, w, b):
            return _conv2d_backward(x, w, g)

        return (x, w, b), _conv2d, grads

    return _check_layer(f"conv{kernel}x{kernel}", trials, seed, build)


def check_relu(trials: int = 50, seed: int = 0) -> ComponentReport:
    # Magnitudes are kept off the kink (|x| >= 0.2): the subgradient choice
    # at exactly 0 is a convention no finite difference can confirm.
    def build(rng):
        C, H, W = int(rng.integers(1, 4)), int(rng.integers(2, 9)), int(rng.integers(2, 9))
        x = rng.uniform(0.2, 1.5, size=(C, H, W)) * rng.choice([-1.0, 1.0], size=(C, H, W))

        def apply_fn(x):
            return np.maximum(x, 0.0)

        def grads(g, x):
            return (g * (x > 0),)

        return (x,), apply_fn, grads

    return _check_layer("relu", trials, seed, build)


def check_maxpool(trials: int = 50, seed: int = 0) -> ComponentReport:
    # Windows are regenerated until the top two entries are separated, so the
    # probe step cannot flip the argmax mid-difference.
    def build(rng):
        C = int(rng.integers(1, 4))
        H, W = 2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5))
        while True:
            x = rng.normal(size=(C, H, W))
            windows = x.reshape(C, H // 2, 2, W // 2, 2).transpose(0, 1, 3, 2, 4).reshape(C, -1, 4)
            top = np.sort(windows, axis=2)
            if float((top[:, :, 3] - top[:, :, 2]).min()) > 1e-3:
                break

        def apply_fn(x):
            return _maxpool2(x)[0]

        def grads(g, x):
            _, idx = _maxpool2(x)
            return (_maxpool2_backward(idx, g, x.shape),)

        return (x,), apply_fn, grads

    return _check_layer("maxpool2x2", trials, seed, build)


def check_upsample(trials: int = 50, seed: int = 0) -> ComponentReport:
    def build(rng):
        C, H, W = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.normal(size=(C, H, W))

        def grads(g, x):
            return (_upsample2_backward(g),)

        return (x,), _upsample2, grads

    return _check_layer("upsample2x2", trials, seed, build)


# Complex re-implementation of the forward passes for the end-to-end oracle.

def _cx_softmax(logits):
    shift = logits.real.max(axis=0, keepdims=True)
    e = np.exp(logits - shift)
    return e / e.sum(axis=0, keepdims=True)


def _cx_relu(x):
    return np.where(x.real > 0, x, 0.0 + 0.0j)


def _cx_conv(x, w, b):
    cout, cin, kh, kw = w.shape
    H, W = x.shape[1:]
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((cin, H + 2 * ph, W + 2 * pw), dtype=complex)
    xp[:, ph : ph + H, pw : pw + W] = x
    out = np.zeros((cout, H, W), dtype=complex)
    for i in range(kh):
        for j in range(kw):
            out += np.einsum("oc,chw->ohw", w[:, :, i, j], xp[:, i : i + H, j : j + W])
    return out + b[:, None, None]


def _cx_maxpool(x):
    C, H, W = x.shape
    windows = x.reshape(C, H // 2, 2, W // 2, 2).transpose(0, 1, 3, 2, 4).reshape(C, H // 2, W // 2, 4)
    idx = windows.real.argmax(axis=3)
    return np.take_along_axis(windows, idx[..., None], axis=3)[..., 0]


def _cx_forward(values, image):
    x = image.intensities[None].astype(complex)
    a1 = _cx_relu(_cx_conv(x, values["enc1.w"], values["enc1.b"]))
    a2 = _cx_relu(_cx_conv(a1, values["enc2.w"], values["enc2.b"]))
    a3 = _cx_relu(_cx_conv(_cx_maxpool(a2), values["enc3.w"], values["enc3.b"]))
    up = np.kron(a3, np.ones((1, 2, 2)))
    cat = np.concatenate([a2, up], axis=0)
    a4 = _cx_relu(_cx_conv(cat, values["dec1.w"], values["dec1.b"]))
    return _cx_conv(a4, values["head.w"], values["head.b"])


def _cx_tv_smooth(P):
    dh = P[:, :, 1:] - P[:, :, :-1]
    dv = P[:, 1:, :] - P[:, :-1, :]
    return np.sqrt(dh * dh + TV_SMOOTH_EPS).sum() + np.sqrt(dv * dv + TV_SMOOTH_EPS).sum()


def _cx_objective(mode, logits_list, images, anns, plan, settings):
    preds = [_cx_softmax(lg) for lg in logits_list]
    total = 0.0 + 0.0j
    for pred, ann in zip(preds, anns):
        for r, c, k in ann.points:
            p = pred[k, r, c]
            total -= np.log(p if p.real > LOG_CLAMP else LOG_CLAMP + 0.0j)
    if mode == "pce":
        return total

    def class_mean(image, pk):
        return (image.intensities * pk).sum() / (pk.sum() + MEAN_DENOM_EPS)

    if mode == "pce+ms":
        for image, pred in zip(images, preds):
            ms = 0.0 + 0.0j
            for k in range(pred.shape[0]):
                ck = class_mean(image, pred[k])
                ms += ((image.intensities - ck) ** 2 * pred[k]).sum()
            total += settings.lambda_ms * ms + settings.mu * _cx_tv_smooth(pred)
        return total

    zmaps = {}
    for n, (image, pred, ann) in enumerate(zip(images, preds, anns)):
        for k in ann.classes:
            ck = class_mean(image, pred[k])
            zmaps[(n, k)] = ((image.intensities - ck) ** 2 * pred[k]).reshape(-1)

    def cos(a, b):
        na = np.sqrt((a * a).sum())
        nb = np.sqrt((b * b).sum())
        return (a * b).sum() / (na * nb + COSINE_EPS)

    contrastive = 0.0 + 0.0j
    for (n, k), m in plan.items():
        sims = [cos(zmaps[(n, k)], zmaps[(m, k)])]
        for i in range(len(images)):
            if i == n:
                continue
            for j in anns[i].classes:
                if j != k:
                    sims.append(cos(zmaps[(n, k)], zmaps[(i, j)]))
        sims = np.array(sims)
        shift = sims.real.max()
        e = np.exp((sims - shift) / settings.tau)
        contrastive += shift / settings.tau + np.log(e.sum()) - sims[0] / settings.tau
    total += settings.lambda_cv * contrastive
    for pred in preds:
        total += settings.mu * _cx_tv_smooth(pred)
    return total


def check_end_to_end(kind: str, mode: str, trials: int = 4, seed: int = 0) -> ComponentReport:
    """Whole model+loss composition against the complex-step oracle."""
    worst = _Worst()
    for t in range(trials):
        rng = keyed_rng(seed, "gradcheck", "end_to_end", kind, mode, t)
        K, H, W = 2, 8, 8
        batch = 2
        ids = [f"img{n}" for n in range(batch)]
        if kind == "conv-ed":
            spec = ModelSpec(kind, K, H, W, channels=(2, 3, 3, 2))
        else:
            spec = ModelSpec(kind, K, H, W, image_ids=tuple(ids))
        params = init_params(spec, int(rng.integers(1 << 30)))
        if kind == "logit-field":
            for name in params.values:
                params.values[name] += rng.normal(size=params.values[name].shape)
        images = [Image(rng.random((H, W))) for _ in range(batch)]
        anns = []
        for _ in range(batch):
            pixels = rng.choice(H * W, size=K, replace=False)
            anns.append(PointAnnotation(
                tuple((int(p // W), int(p % W), k) for k, p in enumerate(pixels)), K))
        plan = PairingPlan({(n, k): (n + 1) % batch for n in range(batch) for k in range(K)})
        settings = LossSettings(lambda_cv=0.3, lambda_ms=0.3, mu=1e-2, tau=0.07,
                                smooth_tv_value=True)

        fields, caches = [], []
        for image, image_id in zip(images, ids):
            lf, cache = forward(params, spec, image, image_id)
            fields.append(lf)
            caches.append(cache)
        bd = total_loss(mode, images, fields, anns, plan, settings)
        analytic = {}
        for cache, g in zip(caches, bd.grad_wrt_logits):
            for name, arr in backward(params, spec, cache, g).items():
                analytic[name] = analytic[name] + arr if name in analytic else arr.copy()

        def oracle_grad(name):
            base = params.values[name]
            grad = np.zeros(base.size)
            cvalues = {n: v.astype(complex) for n, v in params.values.items()}
            flat = cvalues[name].reshape(-1)
            for i in range(base.size):
                saved = flat[i]
                flat[i] = saved + 1j * COMPLEX_STEP
                if kind == "conv-ed":
                    logits = [_cx_forward(cvalues, im) for im in images]
                else:
                    logits = [cvalues[f"field.{iid}"] for iid in ids]
                value = _cx_objective(mode, logits, images, anns, plan, settings)
                grad[i] = value.imag / COMPLEX_STEP
                flat[i] = saved
            return grad.reshape(base.shape)

        for name in sorted(analytic):
            worst.update(analytic[name], oracle_grad(name), t)
    return worst.report(f"end_to_end[{kind},{mode}]", trials)


def run_components(seed: int = 0, trials: int = 50) -> list:
    return [
        check_softmax(max(trials, 100), seed),
        check_pce(trials, seed),
        check_ms(trials, seed),
        check_tv(trials, seed),
        check_cv(trials, seed),
        check_conv(3, trials, seed),
        check_conv(1, trials, seed),
        check_relu(trials, seed),
        check_maxpool(trials, seed),
        check_upsample(trials, seed),
    ]


def run_end_to_end(seed: int = 0, trials: int = 4) -> list:
    return [
        check_end_to_end(kind, mode, trials, seed)
        for kind in ("logit-field", "conv-ed")
        for mode in ("pce", "pce+ms", "pce+cv")
    ]


def run_all(seed: int = 0, trials: int = 50, end_to_end_trials: int = 4) -> GradCheckReport:
    start = time.perf_counter()
    components = run_components(seed, trials) + run_end_to_end(seed, end_to_end_trials)
    return GradCheckReport(tuple(components), time.perf_counter() - start)
