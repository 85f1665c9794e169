"""Gradient verification suites: analytic backward passes against oracles.

Two layers of checking:

* Component suites compare each loss term and each network layer against
  central finite differences in float64, all through one harness: each
  trial draws its inputs, a scalar objective and the analytic gradients.
  Loss terms are isolated by differentiating them with respect to logits
  through the softmax chain (itself checked on its own), so perturbed
  inputs never leave the simplex; layers are weighted by a random probe of
  their output. The contrastive suite checks cv_loss together with smoothed
  TV, the regularizer training adds beside it.
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


def _check(name, trials, seed, draw, floor=GRAD_FLOOR, key=None) -> ComponentReport:
    """Check one suite against central finite differences, trial by trial.

    `draw(rng, probe)` builds trial t's instance from keyed_rng(seed,
    "gradcheck", key, t), the key defaulting to the suite's name. It returns
    (inputs, objective, analytic): a list of float64 arrays, the scalar
    function of such a list, and its gradient with respect to each input.
    `probe(shape)` draws a layer's output weights from the trial's second
    stream, keyed "probe" last.
    """
    key = key or name
    worst = _Worst()
    for t in range(trials):
        def probe(shape):
            return keyed_rng(seed, "gradcheck", key, t, "probe").normal(size=shape)

        inputs, objective, analytic = draw(keyed_rng(seed, "gradcheck", key, t), probe)
        noise = fd_noise_floor(objective(inputs))
        for i, (x, grad) in enumerate(zip(inputs, analytic)):
            def f(moved, i=i):
                probed = list(inputs)
                probed[i] = moved
                return objective(probed)

            worst.update(grad, finite_diff_grad(f, x), t, floor=floor, noise=noise)
    return worst.report(name, trials)


def _through_softmax(draw_term):
    """Adapt a probability-space term to `_check`, differentiated in logits.

    `draw_term(rng)` returns (logit arrays, term), where term(predictions)
    gives (value, gradient w.r.t. each prediction's probabilities).
    Differentiating against logits keeps finite-difference probes on the
    simplex. A probe moves one entry of a finite grid by the step, so it is
    wrapped with _trusted.
    """
    def predict(logits):
        return [softmax(_trusted(LogitField, x)) for x in logits]

    def draw(rng, probe):
        logits, term = draw_term(rng)
        preds = predict(logits)
        analytic = [softmax_backward(p, g) for p, g in zip(preds, term(preds)[1])]
        return logits, lambda xs: term(predict(xs))[0], analytic

    return draw


def _probed(layer, g):
    """The layer checks' objective: sum(g * layer(*inputs))."""
    return lambda inputs: float((g * layer(*inputs)).sum())


def check_softmax(trials: int = 100, seed: int = 0) -> ComponentReport:
    """softmax_backward against finite differences of a fixed linear probe."""
    def draw(rng):
        K = int(rng.integers(2, 5))
        H, W = (int(rng.integers(1, 9)) for _ in range(2))
        logits = rng.normal(size=(K, H, W))
        g = rng.normal(size=(K, H, W))
        return [logits], lambda preds: (float((g * preds[0].probabilities).sum()), [g])

    return _check("softmax_backward", trials, seed, _through_softmax(draw),
                  floor=SOFTMAX_FLOOR, key="softmax")


def check_pce(trials: int = 50, seed: int = 0) -> ComponentReport:
    def draw(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 9)) for _ in range(2))
        logits = rng.normal(size=(K, H, W))
        pixels = rng.choice(H * W, size=min(K, H * W), replace=False)
        ann = PointAnnotation(tuple((int(p // W), int(p % W), k) for k, p in enumerate(pixels)), K)

        def term(preds):
            value, grad = partial_cross_entropy(preds[0], ann)
            return value, [grad]

        return [logits], term

    return _check("partial_cross_entropy", trials, seed, _through_softmax(draw))


def check_ms(trials: int = 50, seed: int = 0) -> ComponentReport:
    def draw(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 9)) for _ in range(2))
        logits = rng.normal(size=(K, H, W))
        image = Image(rng.random((H, W)))

        def term(preds):
            value, grad = ms_data_term(image, preds[0])
            return value, [grad]

        return [logits], term

    return _check("ms_data_term", trials, seed, _through_softmax(draw))


def check_tv(trials: int = 50, seed: int = 0) -> ComponentReport:
    # Instances keep every probability difference >= 1e-4 in magnitude: the
    # surrogate's third derivative grows like 1/d^4 near the smoothing scale,
    # where central differences cannot resolve it. The end-to-end complex-step
    # suite covers that regime without differencing error.
    def draw(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 7)) for _ in range(2))
        while True:
            logits = rng.normal(size=(K, H, W))
            P = softmax(_trusted(LogitField, logits)).probabilities
            dh = np.abs(P[:, :, 1:] - P[:, :, :-1])
            dv = np.abs(P[:, 1:, :] - P[:, :-1, :])
            diffs = np.concatenate([dh.reshape(-1), dv.reshape(-1)])
            if diffs.size == 0 or diffs.min() >= 1e-4:
                break

        def term(preds):
            value, grad = tv_term(preds[0], smooth_value=True)
            return value, [grad]

        return [logits], term

    return _check("tv_term", trials, seed, _through_softmax(draw))


def check_cv(trials: int = 50, seed: int = 0) -> ComponentReport:
    """Full contrastive-variance chain (means, variance maps, cosines, anchors),
    checked as 0.3 * cv_loss + 1e-2 * smoothed TV over the batch."""
    def draw(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 7)) for _ in range(2))
        batch = int(rng.integers(2, 4))
        images = [Image(rng.random((H, W))) for _ in range(batch)]
        logits = [rng.normal(size=(K, H, W)) for _ in range(batch)]
        present = [tuple(range(K))] * batch
        plan = PairingPlan({
            (n, k): int(rng.choice([i for i in range(batch) if i != n]))
            for n in range(batch) for k in range(K)
        })

        def term(preds):
            cv = cv_loss(images, preds, present, plan, tau=0.07, lambda_cv=0.3)
            tv_sum, grads = 0.0, []
            for pred, cv_grad in zip(preds, cv.grad_wrt_probs):
                tv_value, tv_grad = tv_term(pred, smooth_value=True)
                tv_sum += tv_value
                grads.append(1e-2 * tv_grad + cv_grad)
            return 0.3 * cv.contrastive + 1e-2 * tv_sum, grads

        return logits, term

    return _check("cv_loss", trials, seed, _through_softmax(draw))


def check_conv(kernel: int, trials: int = 50, seed: int = 0) -> ComponentReport:
    def draw(rng, probe):
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        H, W = (int(rng.integers(2, 9)) for _ in range(2))
        x = rng.normal(size=(cin, H, W))
        w = rng.normal(size=(cout, cin, kernel, kernel))
        b = rng.normal(size=(cout,))
        g = probe((cout, H, W))
        return [x, w, b], _probed(_conv2d, g), _conv2d_backward(x, w, g)

    return _check(f"conv{kernel}x{kernel}", trials, seed, draw)


def check_relu(trials: int = 50, seed: int = 0) -> ComponentReport:
    # Magnitudes are kept off the kink (|x| >= 0.2): the subgradient choice
    # at exactly 0 is a convention no finite difference can confirm.
    def draw(rng, probe):
        C, H, W = int(rng.integers(1, 4)), int(rng.integers(2, 9)), int(rng.integers(2, 9))
        x = rng.uniform(0.2, 1.5, size=(C, H, W)) * rng.choice([-1.0, 1.0], size=(C, H, W))
        g = probe(x.shape)
        return [x], _probed(lambda x: np.maximum(x, 0.0), g), [g * (x > 0)]

    return _check("relu", trials, seed, draw)


def check_maxpool(trials: int = 50, seed: int = 0) -> ComponentReport:
    # Windows are regenerated until the top two entries are separated, so the
    # probe step cannot flip the argmax mid-difference.
    def draw(rng, probe):
        C = int(rng.integers(1, 4))
        H, W = 2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5))
        while True:
            x = rng.normal(size=(C, H, W))
            windows = x.reshape(C, H // 2, 2, W // 2, 2).transpose(0, 1, 3, 2, 4).reshape(C, -1, 4)
            top = np.sort(windows, axis=2)
            if float((top[:, :, 3] - top[:, :, 2]).min()) > 1e-3:
                break
        pooled, idx = _maxpool2(x)
        g = probe(pooled.shape)
        return [x], _probed(lambda x: _maxpool2(x)[0], g), [_maxpool2_backward(idx, g, x.shape)]

    return _check("maxpool2x2", trials, seed, draw)


def check_upsample(trials: int = 50, seed: int = 0) -> ComponentReport:
    def draw(rng, probe):
        C, H, W = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.normal(size=(C, H, W))
        g = probe((C, 2 * H, 2 * W))
        return [x], _probed(_upsample2, g), [_upsample2_backward(g)]

    return _check("upsample2x2", trials, seed, draw)


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
        settings = LossSettings(lambda_cv=0.3, lambda_ms=0.3, mu=1e-2, tau=0.07)

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
