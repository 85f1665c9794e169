"""Gradient verification suites: analytic backward passes against oracles.

One trial loop, `_check`, runs every suite: each trial draws an instance and
yields, per input, the analytic gradient, the oracle's and the noise below
which the two cannot be told apart. There are two oracles:

* Component suites compare each loss term and each network layer against
  central finite differences in float64, through one adapter, `_differenced`:
  each trial draws its inputs, a scalar objective and the analytic gradients.
  Loss terms are isolated by differentiating them with respect to logits
  through the softmax chain (itself checked on its own), so perturbed
  inputs never leave the simplex; layers are weighted by a random probe of
  their output. The contrastive suite checks cv_loss with smoothed TV, the
  objective with no annotated points. A loss term's probes evaluate
  the private value step the full term is built on, so its gradient and cv's
  plan index are built once a trial; the moved input's stacked probes go
  through softmax and part once a chunk. A layer's go through the layer once
  a chunk, the convolution's too.
* End-to-end suites differentiate whole model+loss compositions with a
  complex-step oracle: an imaginary perturbation of one parameter propagates
  through the forward training runs (conv-ed's `walk_layers` on complex
  values) and the objective's production softmax and value steps, and the
  derivative is read off the imaginary part. There is no subtraction of
  nearby values, hence no cancellation noise, which matters because the
  composition's gradient entries span many orders of magnitude. Branch
  choices (ReLU, pooling argmax, log clamp) follow the real parts, so the
  oracle differentiates exactly the branch the production code takes.
  A trial forwards once, in `train.batch_gradients`. A tensor's coordinates
  go in chunks, probe j moving coordinate j of its chunk: each image a chunk
  reaches takes one stack of complex logits and one part, the chunk one value.
  A conv-ed chunk at layer L walks each image from L on once, its stack in
  place of the moved tensor, from the caches cast to complex once; each
  probe's logits are the bits of its own walk.

Every value either oracle differentiates comes from `losses`, the objective's
from `_objective_part` and `_objective_value` and its gradient from `_objective_grads`;
TV's is the smoothed surrogate `_smooth_tv`, whose exact derivative tv_term returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from . import train
from .data import Sample
from .grids import (FD_STEP, PROBE_CHUNK_BYTES, Image, LogitField, _trusted, finite_diff_grad,
                    softmax, softmax_backward)
from .losses import (
    MODES,
    LossSettings,
    PointAnnotation,
    _cv_index,
    _ms_value,
    _objective_grads,
    _objective_part,
    _objective_value,
    _pce_value,
    _smooth_tv,
    ms_data_term,
    partial_cross_entropy,
    tv_term,
)
from .models import (
    KINDS,
    ModelSpec,
    _conv2d,
    _conv2d_backward,
    _maxpool2,
    _maxpool2_backward,
    _relu,
    _relu_backward,
    _upsample2,
    _upsample2_backward,
    init_params,
    walk_layers,
)
from .seeding import keyed_rng

REL_TOL = 1e-4
GRAD_FLOOR = 1e-7
SOFTMAX_FLOOR = 1e-8
COMPLEX_STEP = 1e-20
EPS64 = float(np.finfo(np.float64).eps)
OBJECTIVE = LossSettings("pce+cv", lambda_cv=0.3, lambda_ms=0.3, mu=1e-2, tau=0.07)


def fd_noise_floor(value: float) -> float:
    """Rounding floor of a central difference around a value of this size.

    Each evaluation of the objective rounds to a few ulps of its magnitude;
    the division by 2*FD_STEP turns that into an irreducible absolute error on
    the difference quotient. Coordinates where analytic and numeric gradients
    agree to within this floor carry no information either way, so the fd
    suites do not count them as disagreement; the complex-step suites cover
    those coordinates.
    """
    return 8.0 * EPS64 * abs(value) / (2.0 * FD_STEP)


@dataclass(frozen=True)
class ComponentReport:
    """Worst-case outcome of one component's gradient check."""

    name: str
    instances: int
    compared: int      # coordinates above the magnitude floor
    worst_rel_err: float
    worst_seed: int    # the worst trial's index (-1 if none differed), not a --seed value
    worst_coordinate: int

    @property
    def passed(self) -> bool:
        return self.worst_rel_err <= REL_TOL


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
                f"{c.worst_rel_err:14.3e} {REL_TOL:10.0e} "
                f"{'PASS' if c.passed else 'FAIL':>7s}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} ({self.seconds:.1f}s)")
        return "\n".join(lines)


def _check(name, trials, seed, draw, floor=GRAD_FLOOR, key=None) -> ComponentReport:
    """Run one suite's trials and report the worst relative error over them.

    `draw(rng, probe)` builds trial t's instance from keyed_rng(seed,
    "gradcheck", *key, t), the key defaulting to (name,), and yields
    (analytic, oracle, noise) per input. Coordinates with |analytic| above
    `floor` are compared unless the two agree to within the noise; one where
    either side is not finite is compared and fails with error inf.
    `probe(shape)` draws a layer's output weights from the trial's second
    stream, keyed "probe" last.
    """
    key = key or (name,)
    err, worst_trial, coordinate, compared = 0.0, -1, -1, 0
    for t in range(trials):
        def probe(shape):
            return keyed_rng(seed, "gradcheck", *key, t, "probe").normal(size=shape)

        for analytic, oracle, noise in draw(keyed_rng(seed, "gradcheck", *key, t), probe):
            a = np.asarray(analytic).reshape(-1)
            n = np.asarray(oracle).reshape(-1)
            bad = ~(np.isfinite(a) & np.isfinite(n))
            above = (np.abs(a) > floor) | bad
            compared += int(above.sum())
            with np.errstate(invalid="ignore"):  # inf - inf and inf / inf, where bad
                mask = above & ((np.abs(a - n) > noise) | bad)
                rel = np.abs(a - n)[mask] / np.maximum(np.abs(a[mask]), np.abs(n[mask]))
            if mask.any():
                rel[bad[mask]] = np.inf
                worst = float(rel.max())
                if worst > err:
                    err, worst_trial = worst, t
                    coordinate = int(np.flatnonzero(mask)[int(rel.argmax())])
    return ComponentReport(name, trials, compared, err, worst_trial, coordinate)


def _differenced(draw):
    """Adapt to `_check` a draw that returns (inputs, objective, analytic):
    a list of float64 arrays, the scalar function of such a list and its
    gradient w.r.t. each input. Each input is central-differenced alone: the
    objective gets the other inputs as drawn and, in its place, a stack of
    probes, and returns one value per probe. The noise is the rounding floor
    of the objective's value."""
    def differenced(rng, probe):
        inputs, objective, analytic = draw(rng, probe)
        noise = fd_noise_floor(objective(inputs))
        for i, (x, grad) in enumerate(zip(inputs, analytic)):
            def f(stack, i=i):
                return objective([*inputs[:i], stack, *inputs[i + 1:]])

            yield grad, finite_diff_grad(f, x), noise

    return differenced


def _through_softmax(draw_term):
    """Adapt a probability-space term to `_check`, differentiated in logits.

    `draw_term(rng)` returns (logit arrays, part, combine, grads): part(n,
    prediction) is input n's share of the term, combine(parts) the term's
    scalar, and grads(predictions) its gradient w.r.t. each prediction's
    probabilities. The finite differences evaluate the value alone. An
    objective input that is still the drawn array (the probes move one input
    at a time) reuses the drawn input's part; the moved input's stack of
    probes goes through softmax and part once, giving one value per probe.
    A probe moves one entry of a finite grid by the step, so the stack is
    wrapped with _trusted.
    """
    def draw(rng, probe):
        logits, part, combine, grads = draw_term(rng)
        preds = [softmax(_trusted(LogitField, x)) for x in logits]
        parts = [part(n, p) for n, p in enumerate(preds)]
        analytic = [softmax_backward(p, g) for p, g in zip(preds, grads(preds))]

        def objective(xs):
            return combine([q if x is drawn else part(n, softmax(_trusted(LogitField, x)))
                            for n, (x, drawn, q) in enumerate(zip(xs, logits, parts))])

        return logits, objective, analytic

    return _differenced(draw)


def _probed(layer, g):
    """The layer checks' objective: sum(g * layer(*inputs)), one value per probe
    of a stacked input."""
    return lambda inputs: (g * layer(*inputs)).sum(axis=(-3, -2, -1))


def check_softmax(trials: int = 100, seed: int = 0) -> ComponentReport:
    """softmax_backward against finite differences of a fixed linear probe."""
    def draw(rng):
        K = int(rng.integers(2, 5))
        H, W = (int(rng.integers(1, 9)) for _ in range(2))
        logits = rng.normal(size=(K, H, W))
        g = rng.normal(size=(K, H, W))
        return ([logits], lambda n, pred: (g * pred.probabilities).sum(axis=(-3, -2, -1)),
                itemgetter(0), lambda preds: [g])

    return _check("softmax_backward", trials, seed, _through_softmax(draw),
                  floor=SOFTMAX_FLOOR, key=("softmax",))


def _drawn_points(rng, K, H, W):
    """One annotated pixel per class, all distinct."""
    pixels = rng.choice(H * W, size=K, replace=False)
    return PointAnnotation(tuple((int(p // W), int(p % W), k) for k, p in enumerate(pixels)), K)


def check_pce(trials: int = 50, seed: int = 0) -> ComponentReport:
    def draw(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 9)) for _ in range(2))
        logits = rng.normal(size=(K, H, W))
        ann = _drawn_points(rng, K, H, W)
        return ([logits], lambda n, pred: _pce_value([pred], [ann]), itemgetter(0),
                lambda preds: [partial_cross_entropy(preds[0], ann)[1]])

    return _check("partial_cross_entropy", trials, seed, _through_softmax(draw))


def check_ms(trials: int = 50, seed: int = 0) -> ComponentReport:
    def draw(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 9)) for _ in range(2))
        logits = rng.normal(size=(K, H, W))
        image = Image(rng.random((H, W)))
        return ([logits], lambda n, pred: _ms_value(image, pred)[0], itemgetter(0),
                lambda preds: [ms_data_term(image, preds[0])[1]])

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
            diffs = np.abs(np.concatenate([np.diff(P, axis=2).ravel(), np.diff(P, axis=1).ravel()]))
            if diffs.size == 0 or diffs.min() >= 1e-4:
                break
        return ([logits], lambda n, pred: _smooth_tv(pred.probabilities), itemgetter(0),
                lambda preds: [tv_term(preds[0])[1]])

    return _check("tv_term", trials, seed, _through_softmax(draw))


def check_cv(trials: int = 50, seed: int = 0) -> ComponentReport:
    """Full contrastive-variance chain (means, variance maps, cosines, anchors),
    checked as OBJECTIVE's value, 0.3 * cv_loss + 1e-2 * smoothed TV."""
    def draw(rng):
        K = int(rng.integers(2, 4))
        H, W = (int(rng.integers(2, 7)) for _ in range(2))
        batch = int(rng.integers(2, 4))
        images = [Image(rng.random((H, W))) for _ in range(batch)]
        logits = [rng.normal(size=(K, H, W)) for _ in range(batch)]
        present = [tuple(range(K))] * batch
        plan = {(n, k): int(rng.choice([i for i in range(batch) if i != n]))
                for n in range(batch) for k in range(K)}

        index = _cv_index(present, plan)
        unannotated = [PointAnnotation((), K)] * batch
        return (logits, lambda n, pred: _objective_part(pred, images[n], present[n], OBJECTIVE),
                lambda parts: _objective_value(parts, (), index, OBJECTIVE),
                lambda preds: _objective_grads(images, preds, unannotated, present, plan, OBJECTIVE)[-1])

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

    return _check(f"conv{kernel}x{kernel}", trials, seed, _differenced(draw))


def check_relu(trials: int = 50, seed: int = 0) -> ComponentReport:
    # Magnitudes are kept off the kink (|x| >= 0.2): the subgradient choice
    # at exactly 0 is a convention no finite difference can confirm.
    def draw(rng, probe):
        C, H, W = int(rng.integers(1, 4)), int(rng.integers(2, 9)), int(rng.integers(2, 9))
        x = rng.uniform(0.2, 1.5, size=(C, H, W)) * rng.choice([-1.0, 1.0], size=(C, H, W))
        g = probe(x.shape)
        return [x], _probed(_relu, g), [_relu_backward(_relu(x), g)]

    return _check("relu", trials, seed, _differenced(draw))


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

    return _check("maxpool2x2", trials, seed, _differenced(draw))


def check_upsample(trials: int = 50, seed: int = 0) -> ComponentReport:
    def draw(rng, probe):
        C, H, W = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.normal(size=(C, H, W))
        g = probe((C, 2 * H, 2 * W))
        return [x], _probed(_upsample2, g), [_upsample2_backward(g)]

    return _check("upsample2x2", trials, seed, _differenced(draw))


def check_end_to_end(kind: str, mode: str, trials: int = 4, seed: int = 0) -> ComponentReport:
    """Whole model+loss composition against the complex-step oracle."""
    def draw(rng, probe):
        K, H, W, batch = 2, 8, 8, 2
        ids = [f"img{n}" for n in range(batch)]
        if kind == "conv-ed":
            spec = ModelSpec(kind, K, H, W, channels=(2, 3, 3, 2))
        else:
            spec = ModelSpec(kind, K, H, W, image_ids=tuple(ids))
        params = init_params(spec, int(rng.integers(1 << 30)))
        if kind == "logit-field":
            for v in params.values.values():
                v += rng.normal(size=v.shape)
        images = [Image(rng.random((H, W))) for _ in range(batch)]
        anns = [_drawn_points(rng, K, H, W) for _ in range(batch)]
        plan = {(n, k): (n + 1) % batch for n in range(batch) for k in range(K)}
        settings = replace(OBJECTIVE, mode=mode)
        samples = [Sample(iid, im, annotation=ann) for iid, im, ann in zip(ids, images, anns)]
        _, analytic, caches = train.batch_gradients(params, samples, plan, settings)

        def part(logits, image, ann):
            return _objective_part(softmax(_trusted(LogitField, logits)), image, ann.classes, settings)

        cvalues = {n: v.astype(complex) for n, v in params.values.items()}
        index = _cv_index([ann.classes for ann in anns], plan)
        if kind == "conv-ed":  # cast once, so no walk's first layer casts its input
            unperturbed = [{n: v.astype(complex) for n, v in c.items() if n != "kind"} for c in caches]
        else:
            unperturbed = [part(cvalues[f"field.{iid}"], im, ann)
                           for iid, im, ann in zip(ids, images, anns)]
        probes = max(1, PROBE_CHUNK_BYTES // (16 * K * H * W))
        for name in sorted(analytic):
            x, layer = cvalues[name], name.split(".")[0]
            grad = np.empty(x.shape)
            for start in range(0, x.size, probes):
                coords = range(start, min(start + probes, x.size))
                stack = np.repeat(x[None], len(coords), 0)
                stack.reshape(len(coords), -1)[range(len(coords)), coords] += 1j * COMPLEX_STEP
                if kind == "conv-ed":
                    parts = [part(walk_layers({**cvalues, name: stack}, acts, layer)["head"], im, ann)
                             for acts, im, ann in zip(unperturbed, images, anns)]
                else:  # a field reaches its own image alone
                    parts = [part(stack, im, ann) if name == f"field.{iid}"
                             else kept for iid, im, ann, kept in zip(ids, images, anns, unperturbed)]
                grad.flat[coords] = _objective_value(parts, anns, index, settings).imag / COMPLEX_STEP
            yield analytic[name], grad, 0.0

    return _check(f"end_to_end[{kind},{mode}]", trials, seed, draw,
                  key=("end_to_end", kind, mode))


def run_all(seed: int = 0, trials: int = 50, end_to_end_trials: int = 4) -> GradCheckReport:
    start = time.perf_counter()
    components = [
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
        *(check_end_to_end(kind, mode, end_to_end_trials, seed) for kind in KINDS for mode in MODES),
    ]
    return GradCheckReport(tuple(components), time.perf_counter() - start)
