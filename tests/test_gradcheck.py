import dataclasses

import numpy as np
import pytest

import pointseg.gradcheck as gc
import pointseg.grids
import pointseg.models
from pointseg import Image, ModelSpec, Sample, init_params, train
from pointseg.grids import LogitField, SoftPrediction, _trusted
from pointseg.losses import (
    PairingPlan,
    PointAnnotation,
    _cv_index,
    _ms_value,
    _objective_part,
    _objective_value,
    _pce_value,
    _smooth_tv,
    _variance_rows,
)
from pointseg.models import _maxpool2, _upsample2, walk_layers

from conftest import blas_core
from oracles import bit_equal, cv_suite_objective, cx_forward_uncached


def test_component_suites_pass_at_reduced_trials():
    components = gc.run_all(seed=0, trials=5, end_to_end_trials=1).components
    for report in (c for c in components if not c.name.startswith("end_to_end")):
        assert report.passed, f"{report.name}: {report.worst_rel_err:.3e}"
        assert report.instances >= 5
        assert report.compared > 0


def test_end_to_end_suites_pass_single_trial():
    reports = [gc.check_end_to_end(kind, mode, trials=1, seed=0)
               for kind in gc.KINDS for mode in gc.MODES]
    names = {r.name for r in reports}
    assert names == {
        "end_to_end[logit-field,pce]",
        "end_to_end[logit-field,pce+ms]",
        "end_to_end[logit-field,pce+cv]",
        "end_to_end[conv-ed,pce]",
        "end_to_end[conv-ed,pce+ms]",
        "end_to_end[conv-ed,pce+cv]",
    }
    for report in reports:
        assert report.passed, f"{report.name}: {report.worst_rel_err:.3e}"


def test_run_all_aggregates_and_times():
    report = gc.run_all(seed=1, trials=3, end_to_end_trials=1)
    assert report.passed
    assert report.seconds > 0
    table = report.format_table()
    assert "overall: PASS" in table
    assert "partial_cross_entropy" in table


def test_run_all_checks_no_probe(monkeypatch):
    # A finite-difference probe is a validated logit field moved by one step,
    # so it skips the grid checks: only the drawn instances are checked.
    calls = {"drawn": 0, "probe": 0}
    probing = []
    as_grid, finite_diff_grad = pointseg.grids.as_grid, gc.finite_diff_grad

    def counting(*args, **kwargs):
        calls["probe" if probing else "drawn"] += 1
        return as_grid(*args, **kwargs)

    def differencing(*args, **kwargs):
        probing.append(1)
        try:
            return finite_diff_grad(*args, **kwargs)
        finally:
            probing.pop()

    monkeypatch.setattr(pointseg.grids, "as_grid", counting)
    monkeypatch.setattr(gc, "finite_diff_grad", differencing)
    assert gc.run_all(seed=1, trials=3, end_to_end_trials=1).passed
    assert calls["drawn"] > 0
    assert calls["probe"] == 0


def test_detects_a_corrupted_gradient(monkeypatch):
    real = gc.tv_term

    def broken(pred):
        value, grad = real(pred)
        return value, grad * 1.01
    monkeypatch.setattr(gc, "tv_term", broken)
    report = gc.check_tv(trials=3, seed=0)
    assert not report.passed
    assert report.worst_rel_err > 1e-3
    assert report.worst_seed >= 0
    assert report.worst_coordinate >= 0


def test_detects_a_corrupted_cv_gradient(monkeypatch):
    # The finite differences evaluate cv's value step, so a gradient that
    # cv_loss alone gets wrong must still show.
    real = gc.cv_loss

    def broken(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, grad_wrt_probs=[g * 1.01 for g in res.grad_wrt_probs])
    monkeypatch.setattr(gc, "cv_loss", broken)
    report = gc.check_cv(trials=3, seed=0)
    assert not report.passed
    assert report.worst_rel_err > 1e-3


@pytest.mark.parametrize("kind", ["conv-ed", "logit-field"])
def test_complex_step_detects_a_corrupted_parameter_gradient(monkeypatch, kind):
    real = gc.train.batch_gradients

    def broken(*args, **kwargs):
        breakdown, grads, caches = real(*args, **kwargs)
        name = max(grads)  # head.w or field.img1
        return breakdown, {**grads, name: grads[name] * 1.01}, caches
    monkeypatch.setattr(gc.train, "batch_gradients", broken)
    report = gc.check_end_to_end(kind, "pce", trials=1)
    assert not report.passed
    assert report.worst_rel_err > 1e-3
    assert report.worst_seed == 0
    assert report.worst_coordinate >= 0


@pytest.mark.parametrize("kind", ["conv-ed", "logit-field"])
def test_end_to_end_trial_forwards_each_batch_image_once(monkeypatch, kind):
    # The training step's forward is the trial's only one: the complex-step
    # walks start from its caches.
    calls = []
    real = gc.train.forward

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(gc.train, "forward", counting)
    assert gc.check_end_to_end(kind, "pce+cv", trials=3).passed
    assert len(calls) == 3 * 2  # three trials of two images


def _probability_field(rng, K, H, W):
    return gc.softmax(_trusted(LogitField, 2.0 * rng.normal(size=(K, H, W)))).probabilities


def _cv_objective_step(rng):
    # A 3-image, K = 3, 6x6 contrastive batch with every anchor paired, as
    # check_cv draws it: 9 anchors, enough for a sum over a strided stack of
    # anchor terms to add in another order than each probe's own sum. Image
    # 1's logits move.
    K, H, W, batch = 3, 6, 6, 3
    images = [Image(rng.random((H, W))) for _ in range(batch)]
    logits = [rng.normal(size=(K, H, W)) for _ in range(batch)]
    present = [tuple(range(K))] * batch
    plan = PairingPlan({(n, k): int(rng.choice([m for m in range(batch) if m != n]))
                        for n in range(batch) for k in range(K)})
    index = _cv_index(present, plan)
    parts = [_objective_part(gc.softmax(_trusted(LogitField, z)), im, c, gc.OBJECTIVE)
             for z, im, c in zip(logits, images, present)]

    def step(v):
        moved = _objective_part(gc.softmax(_trusted(LogitField, v)), images[1], present[1], gc.OBJECTIVE)
        return [_objective_value([parts[0], moved, parts[2]], (), index, gc.OBJECTIVE)]

    return logits[1], step


def _signed_zeros(rng, shape):
    # Normal values with about a third of them +0.0 or -0.0, ties included.
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.3] = 0.0
    return np.where(rng.random(shape) < 0.5, x, -x)


def _pce_step(rng):
    P = _probability_field(rng, 3, 4, 5)
    P[0, 0, 0], P[1, 2, 3] = 0.0, 1e-13  # below the log clamp
    ann = PointAnnotation(((0, 0, 0), (2, 3, 1), (1, 1, 2)), 3)
    return P, lambda P: [_pce_value([_trusted(SoftPrediction, P)], [ann])]


def _rows_step(rng):
    image = Image(rng.random((5, 4)))

    def step(P):
        stats, rows, devs = _variance_rows(image, _trusted(SoftPrediction, P), (0, 2))
        return [*stats, rows, *devs]

    return _probability_field(rng, 3, 5, 4), step


def _ms_step(rng):
    image = Image(rng.random((4, 6)))

    def step(P):
        value, mass, devs = _ms_value(image, _trusted(SoftPrediction, P))
        return [value, mass, *devs]

    return _probability_field(rng, 3, 4, 6), step


# Each case draws an input and a value step returning a list of arrays, each
# with the probe axis first when the step is given a stack of probes.
STACKED_STEPS = {
    "softmax": lambda rng: (rng.normal(size=(4, 3, 5)),
                            lambda v: [gc.softmax(_trusted(LogitField, v)).probabilities]),
    "pce": _pce_step,
    "smooth-tv": lambda rng: (_probability_field(rng, 3, 5, 4), lambda P: [_smooth_tv(P)]),
    "ms-value": _ms_step,
    "variance-rows": _rows_step,
    "cv-objective": _cv_objective_step,
    "maxpool": lambda rng: (_signed_zeros(rng, (3, 4, 6)), lambda v: list(_maxpool2(v))),
    "upsample": lambda rng: (_signed_zeros(rng, (3, 3, 2)), lambda v: [_upsample2(v)]),
}


@pytest.mark.parametrize("case", sorted(STACKED_STEPS))
@pytest.mark.parametrize("seed", range(4))
def test_stacked_value_step_equals_its_per_probe_calls(case, seed):
    # Every stack finite_diff_grad passes gives, probe by probe, the bits the
    # step gives that probe alone, signs of zero included.
    x, step = STACKED_STEPS[case](np.random.default_rng(seed))
    stacks = []

    def f(stack):
        stacks.append(stack.copy())
        return np.zeros(len(stack))

    gc.finite_diff_grad(f, x)
    for stack in stacks:
        got = step(stack)
        for p, probe in enumerate(stack):
            for a, b in zip(got, step(probe), strict=True):
                assert np.shape(a)[1:] == np.shape(b)
                assert [float(v).hex() for v in np.ravel(a[p])] == [float(v).hex() for v in np.ravel(b)]


def test_run_all_draws_each_trial_once_through_the_module_keyed_rng(monkeypatch):
    # The benchmark's gradcheck steps start at each trial's draw: a call of
    # gradcheck.keyed_rng(seed, "gradcheck", *key, trial), looked up through the
    # module global, not keyed "probe" last. Each trial makes exactly one.
    draws = []
    real = gc.keyed_rng

    def counting(*args):
        if args[1:2] == ("gradcheck",) and args[-1] != "probe":
            draws.append(args[2:])
        return real(*args)
    monkeypatch.setattr(gc, "keyed_rng", counting)
    report = gc.run_all(0, 15, 1)
    assert len(draws) == len(set(draws)) == sum(c.instances for c in report.components) == 241


def test_check_cv_calls_the_full_cv_loss_once_per_trial(monkeypatch):
    calls = []
    real = gc.cv_loss

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(gc, "cv_loss", counting)
    assert gc.check_cv(trials=2, seed=0).passed
    assert len(calls) == 2


def test_check_cv_probes_recompute_only_the_moved_image(monkeypatch):
    # Trial 0 draws K 2, 6x3 and 2 images (36 coordinates each), trial 1 K 2,
    # 3x2 and 2 images (12 each); each image's probes fit one chunk. A probe
    # stack moves one image, so it reruns that image's smoothed TV and mean
    # statistics alone, once: 2 stacked calls a trial. The drawn images' parts
    # take 2 unstacked calls a trial and, for _mean_stats, cv_loss's analytic
    # side 2 more. The plan index is built once a trial by the suite and once
    # by cv_loss. One probe at a time made 196 _smooth_tv and 200 _mean_stats
    # calls; recomputing every image per probe made 388 and 392.
    import pointseg.losses
    calls = {"tv": 0, "stacked tv": 0, "stats": 0, "stacked stats": 0, "index": 0}

    def counting(key, real):
        def wrapper(*args):
            P = args[-1].probabilities if key == "stats" else args[0]
            calls[f"stacked {key}" if getattr(P, "ndim", 3) == 4 else key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(pointseg.losses, "_smooth_tv", counting("tv", pointseg.losses._smooth_tv))
    monkeypatch.setattr(pointseg.losses, "_mean_stats",
                        counting("stats", pointseg.losses._mean_stats))
    index = counting("index", pointseg.losses._cv_index)
    monkeypatch.setattr(gc, "_cv_index", index)
    monkeypatch.setattr(pointseg.losses, "_cv_index", index)
    assert gc.check_cv(trials=2, seed=0).passed
    assert calls == {"tv": 4, "stacked tv": 4, "stats": 8, "stacked stats": 4, "index": 4}


def test_check_cv_objective_is_the_expression_it_replaced(monkeypatch):
    # Every value the contrastive suite differentiates, its drawn instances'
    # and every probe's, is the objective with no annotated points. Its pce is
    # exactly 0.0, so the value is 0.3 * cv + 1e-2 * TV to the last bit. A
    # stacked prediction's values are compared one probe at a time.
    inputs, same = {}, []
    part, value = gc._objective_part, gc._objective_value

    def recording(pred, image, classes, settings):
        out = part(pred, image, classes, settings)
        inputs[id(out)] = (image, pred, classes)
        return out

    def comparing(parts, anns, index, settings):
        got = value(parts, anns, index, settings)
        images, preds, present = zip(*(inputs[id(p)] for p in parts))
        for probe, v in enumerate(np.ravel(got).tolist()):
            moved = [p if p.probabilities.ndim == 3 else _trusted(SoftPrediction, p.probabilities[probe])
                     for p in preds]
            same.append(v.hex() == cv_suite_objective(images, moved, present, index).hex())
        return got
    monkeypatch.setattr(gc, "_objective_part", recording)
    monkeypatch.setattr(gc, "_objective_value", comparing)
    assert gc.check_cv(trials=15, seed=0).passed
    assert len(same) > 15 and all(same)


@pytest.mark.parametrize("mode", ["pce", "pce+ms", "pce+cv"])
def test_logit_field_steps_rerun_only_the_stepped_image(monkeypatch, mode):
    # Each of the 2 * (2 * 8 * 8) = 256 field parameters reaches its own
    # image alone, so a step reruns one complex softmax, and the unperturbed
    # images' parts take 2 more. Rerunning both images took 512.
    calls = []
    real = gc.softmax

    def counting(field):
        if np.iscomplexobj(field.logits):
            calls.append(1)
        return real(field)
    monkeypatch.setattr(gc, "softmax", counting)
    assert gc.check_end_to_end("logit-field", mode, trials=1).passed
    assert len(calls) == 258


@pytest.mark.parametrize("mode", ["pce", "pce+ms", "pce+cv"])
def test_complex_step_reruns_only_the_layers_from_the_perturbed_one(monkeypatch, mode):
    # The trial's conv-ed has 277 parameters: enc1 20, enc2 57, enc3 84,
    # dec1 110 and head 6. A step at layer L reruns L and the layers after
    # it, for both images: 2 * (20*5 + 57*4 + 84*3 + 110*2 + 6*1) = 1612.
    # The walks start from the training forward's caches, cast to complex,
    # so the oracle runs no unperturbed pass of its own; rerunning every
    # layer took 2770. The walks are the only convolutions on complex input.
    calls = []
    real = pointseg.models._conv2d

    def counting(x, *args):
        if np.iscomplexobj(x):
            calls.append(1)
        return real(x, *args)
    monkeypatch.setattr(pointseg.models, "_conv2d", counting)
    assert gc.check_end_to_end("conv-ed", mode, trials=1).passed
    assert len(calls) == 1612


def test_prefix_cached_complex_forward_matches_uncached():
    # One unperturbed complex walk serves every layer's perturbations, so a
    # cached call that changed it would show too. The end-to-end oracle starts
    # from forward's real caches instead; the next test pins that start.
    rng = np.random.default_rng(11)
    spec = ModelSpec("conv-ed", 2, 8, 8, channels=(2, 3, 3, 2))
    values = {n: v.astype(complex) for n, v in init_params(spec, 5).values.items()}
    for name in values:
        if name.endswith(".b"):
            values[name] += 0.1 * rng.normal(size=values[name].shape)
    image = Image(rng.random((8, 8)))
    unperturbed = walk_layers(values, {"x": image.intensities[None].astype(complex)})
    want = cx_forward_uncached(values, image)
    assert bit_equal(unperturbed["head"].real, want.real)
    assert bit_equal(unperturbed["head"].imag, want.imag)
    for layer in ("enc1", "enc2", "enc3", "dec1", "head"):
        # Coordinates are tried until one reaches the logits through live ReLUs.
        flat = values[f"{layer}.w"].reshape(-1)
        for i in rng.permutation(flat.size):
            saved = flat[i]
            flat[i] = saved + 1j * gc.COMPLEX_STEP
            got = walk_layers(values, unperturbed, layer)["head"]
            want = cx_forward_uncached(values, image)
            flat[i] = saved
            assert bit_equal(got.real, want.real), (layer, i)
            assert bit_equal(got.imag, want.imag), (layer, i)
            if want.imag.any():
                break
        else:
            pytest.fail(f"no {layer} coordinate reaches the logits")


def test_real_caches_cast_to_complex_walk_like_the_uncached_forward():
    # check_end_to_end's start: train.batch_gradients' real caches, cast to
    # complex once, seed the walk from each layer. A kernel whose zgemm rounds
    # the real parts otherwise than dgemm would break the pinned verdicts.
    K, H, W = 2, 8, 8
    rng = np.random.default_rng(12)
    spec = ModelSpec("conv-ed", K, H, W, channels=(2, 3, 3, 2))
    params = init_params(spec, 6)
    for name in params.values:
        if name.endswith(".b"):
            params.values[name] += 0.1 * rng.normal(size=params.values[name].shape)
    samples = []
    for n in range(2):
        pixels = rng.choice(H * W, size=K, replace=False)
        points = tuple((int(p // W), int(p % W), k) for k, p in enumerate(pixels))
        samples.append(Sample(f"img{n}", Image(rng.random((H, W))),
                              annotation=PointAnnotation(points, K)))
    plan = PairingPlan({(n, k): 1 - n for n in range(2) for k in range(K)})
    _, _, caches = train.batch_gradients(params, samples, plan, gc.OBJECTIVE)
    values = {n: v.astype(complex) for n, v in params.values.items()}
    where = f"pinned on SkylakeX; this process runs {blas_core()}"
    for cache, s in zip(caches, samples):
        acts = {n: v.astype(complex) for n, v in cache.items() if n != "kind"}
        want = cx_forward_uncached(values, s.image)
        got = walk_layers(values, acts)["head"]
        assert bit_equal(got.real, want.real) and bit_equal(got.imag, want.imag), where
        for layer in ("enc1", "enc2", "enc3", "dec1", "head"):
            flat = values[f"{layer}.w"].reshape(-1)
            for i in rng.permutation(flat.size):
                saved = flat[i]
                flat[i] = saved + 1j * gc.COMPLEX_STEP
                got = walk_layers(values, acts, layer)["head"]
                want = cx_forward_uncached(values, s.image)
                flat[i] = saved
                assert bit_equal(got.real, want.real), (s.id, layer, i, where)
                assert bit_equal(got.imag, want.imag), (s.id, layer, i, where)
                if want.imag.any():
                    break
            else:
                pytest.fail(f"{s.id}: no {layer} coordinate reaches the logits")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["analytic", "oracle"])
def test_non_finite_gradient_fails_with_infinite_error(side, bad):
    # Every comparison with NaN is False and inf - inf is NaN, so a non-finite
    # side must fail by itself rather than through the tolerance.
    drawn = []

    def draw(rng, probe):
        drawn.append(1)
        analytic, oracle = np.ones(3), np.ones(3)
        if len(drawn) == 2:
            (analytic if side == "analytic" else oracle)[1:] = bad
        yield analytic, oracle, 0.0

    report = gc._check("non-finite", 3, 0, draw)
    assert not report.passed
    assert report.worst_rel_err == np.inf
    assert (report.worst_seed, report.worst_coordinate) == (1, 1)
    assert report.compared == 9


def test_non_finite_objective_value_fails_its_suites(monkeypatch):
    # A NaN value on the real (finite-difference) path reaches the difference
    # quotient and fails the two suites that difference it; the complex-step
    # suites still see the real surrogate and pass.
    import pointseg.losses
    real = gc._smooth_tv

    def nan_on_real(P):
        return real(P) if np.iscomplexobj(P) else np.full(P.shape[:-3], np.nan)
    monkeypatch.setattr(gc, "_smooth_tv", nan_on_real)
    monkeypatch.setattr(pointseg.losses, "_smooth_tv", nan_on_real)
    report = gc.run_all(0, 2, 1)
    failed = {c.name: c.worst_rel_err for c in report.components if not c.passed}
    assert failed == {"tv_term": np.inf, "cv_loss": np.inf}


def test_fd_noise_floor_scales_with_magnitude():
    assert gc.fd_noise_floor(0.0) == 0.0
    small, large = gc.fd_noise_floor(1.0), gc.fd_noise_floor(1e6)
    assert large == pytest.approx(small * 1e6)
    # An objective of size 1 checked with the default step cannot resolve
    # gradient components much below this, which must stay under the
    # comparison tolerance for unit-scale analytic values.
    assert small < 1e-7


def test_reports_carry_worst_location():
    report = gc.check_pce(trials=3, seed=0)
    assert report.passed
    assert report.worst_seed >= -1
    assert isinstance(report.worst_coordinate, int)


def cx_part(logits, image, ann, settings):
    # One image's part of the complex-step objective, as check_end_to_end takes it.
    pred = gc.softmax(_trusted(LogitField, logits))
    return _objective_part(pred, image, ann.classes, settings)


def cx_total(logits, images, anns, plan, settings):
    # The complex-step objective as check_end_to_end composes it, every image afresh.
    parts = [cx_part(z, im, ann, settings) for z, im, ann in zip(logits, images, anns)]
    return _objective_value(parts, anns, gc._cv_index([ann.classes for ann in anns], plan), settings)


@pytest.mark.parametrize("mode", gc.MODES)
def test_complex_step_matches_real_forward(mode):
    # The complex-step oracle must agree with the real-path loss when fed
    # real inputs, otherwise its derivatives verify a different function.
    rng = np.random.default_rng(0)
    from pointseg.losses import LossSettings, PairingPlan, PointAnnotation, total_loss

    K, H, W = 2, 4, 4
    fields = [rng.normal(size=(K, H, W)).astype(complex) for _ in range(2)]
    images = [gc.Image(rng.random((H, W))) for _ in range(2)]
    anns = [
        PointAnnotation(((0, 0, 0), (1, 1, 1)), K),
        PointAnnotation(((2, 2, 0), (3, 3, 1)), K),
    ]
    plan = PairingPlan({(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0})
    settings = LossSettings(mode, tau=1.0)
    for kind in gc.KINDS:
        if kind == "conv-ed":
            spec = ModelSpec(kind, K, H, W, channels=(2, 3, 3, 2))
            values = {n: v.astype(complex) for n, v in init_params(spec, 0).values.items()}
            acts = [walk_layers(values, {"x": im.intensities[None].astype(complex)})
                    for im in images]
            logits = [a["head"] for a in acts]
        else:
            logits = [z.copy() for z in fields]
        value = cx_total(logits, images, anns, plan, settings)
        breakdown = total_loss(
            images, [LogitField(z.real) for z in logits], anns, plan, settings
        )
        # TV enters the oracle through its smoothed surrogate; its weight is tiny.
        assert abs(value.real - breakdown.total) <= settings.mu * 1e-3 + 1e-12

        # A step keeps the parts of the images it does not reach: image 0's
        # part, kept from before image 1's logits moved in place, combined
        # with image 1's part afresh and the index built once, is the moved
        # objective.
        parts = [cx_part(z, im, ann, settings) for z, im, ann in zip(logits, images, anns)]
        if kind == "conv-ed":
            values["head.w"].reshape(-1)[1] += 1j * gc.COMPLEX_STEP
            logits[1] = walk_layers(values, acts[1], "head")["head"]
        else:
            logits[1].reshape(-1)[10] += 1j * gc.COMPLEX_STEP  # class 0 at (2, 2), annotated
        parts[1] = cx_part(logits[1], images[1], anns[1], settings)
        index = gc._cv_index([ann.classes for ann in anns], plan)
        got = _objective_value(parts, anns, index, settings)
        want = cx_total(logits, images, anns, plan, settings)
        assert want.imag != 0.0, kind
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), kind


# The verdicts of run_all(seed=0, trials=15, end_to_end_trials=1), the
# benchmark's gradcheck instance, without the timing line. A refactor of the
# suites or the trial loop must leave every count and worst error as it is.
# The end-to-end rows' worst errors come from the production arithmetic (the
# conv kernels, softmax and the loss terms' value steps), which the
# complex-step oracle runs on complex values.
VERDICT_TABLE = """\
component                        instances  compared  worst rel err  tolerance  result
softmax_backward                       100      5706      1.961e-09      1e-04    PASS
partial_cross_entropy                   15        90      0.000e+00      1e-04    PASS
ms_data_term                            15      1127      0.000e+00      1e-04    PASS
tv_term                                 15       469      0.000e+00      1e-04    PASS
cv_loss                                 15       964      4.182e-07      1e-04    PASS
conv3x3                                 15      1179      1.068e-09      1e-04    PASS
conv1x1                                 15       730      0.000e+00      1e-04    PASS
relu                                    15       488      1.403e-09      1e-04    PASS
maxpool2x2                              15       250      5.937e-09      1e-04    PASS
upsample2x2                             15       166      7.756e-11      1e-04    PASS
end_to_end[logit-field,pce]              1         8      4.200e-16      1e-04    PASS
end_to_end[logit-field,pce+ms]           1       256      6.435e-14      1e-04    PASS
end_to_end[logit-field,pce+cv]           1       256      1.152e-13      1e-04    PASS
end_to_end[conv-ed,pce]                  1       226      5.378e-13      1e-04    PASS
end_to_end[conv-ed,pce+ms]               1       273      3.468e-13      1e-04    PASS
end_to_end[conv-ed,pce+cv]               1       265      2.406e-14      1e-04    PASS"""


def test_verdict_table_is_unchanged():
    table = gc.run_all(seed=0, trials=15, end_to_end_trials=1).format_table()
    assert table.rsplit("\n", 1)[0] == VERDICT_TABLE, \
        f"pinned on SkylakeX; this process runs {blas_core()}"
