import dataclasses

import numpy as np
import pytest

import pointseg.gradcheck as gc
import pointseg.grids
import pointseg.models
from pointseg import Image, ModelSpec, init_params
from pointseg.models import walk_layers

from conftest import blas_core
from oracles import bit_equal, cx_forward_uncached


def test_component_suites_pass_at_reduced_trials():
    for report in gc.run_components(seed=0, trials=5):
        assert report.passed, f"{report.name}: {report.worst_rel_err:.3e}"
        assert report.instances >= 5
        assert report.compared > 0


def test_end_to_end_suites_pass_single_trial():
    reports = gc.run_end_to_end(seed=0, trials=1)
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
        breakdown, grads = real(*args, **kwargs)
        name = max(grads)  # head.w or field.img1
        return breakdown, {**grads, name: grads[name] * 1.01}
    monkeypatch.setattr(gc.train, "batch_gradients", broken)
    report = gc.check_end_to_end(kind, "pce", trials=1)
    assert not report.passed
    assert report.worst_rel_err > 1e-3
    assert report.worst_seed == 0
    assert report.worst_coordinate >= 0


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
    # Trial 0 draws K 2, 6x3 and 2 images (72 coordinates), trial 1 K 2, 3x2
    # and 2 images (24). A probe moves one image, so it reruns that image's
    # smoothed TV and mean statistics alone: 2 * 96 probes, plus the drawn
    # images' parts (2 a trial) and, for _mean_stats, cv_loss's analytic side
    # (2 a trial). The plan index is built once a trial by the suite and once
    # by cv_loss. Recomputing every image per probe made 388 _smooth_tv and
    # 392 _mean_stats calls, and rebuilt the index in all 196 value calls.
    import pointseg.losses
    calls = {"tv": 0, "stats": 0, "index": 0}

    def counting(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(gc, "_smooth_tv", counting("tv", gc._smooth_tv))
    monkeypatch.setattr(pointseg.losses, "_mean_stats",
                        counting("stats", pointseg.losses._mean_stats))
    index = counting("index", pointseg.losses._cv_index)
    monkeypatch.setattr(gc, "_cv_index", index)
    monkeypatch.setattr(pointseg.losses, "_cv_index", index)
    assert gc.check_cv(trials=2, seed=0).passed
    assert calls == {"tv": 2 * 96 + 4, "stats": 2 * 96 + 8, "index": 4}


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
    # it, for both images: 2 * (20*5 + 57*4 + 84*3 + 110*2 + 6*1) = 1612,
    # plus 10 for the unperturbed pass. Rerunning every layer took 2770.
    # The oracle's walks are the only convolutions on complex input.
    calls = []
    real = pointseg.models._conv2d

    def counting(x, *args):
        if np.iscomplexobj(x):
            calls.append(1)
        return real(x, *args)
    monkeypatch.setattr(pointseg.models, "_conv2d", counting)
    assert gc.check_end_to_end("conv-ed", mode, trials=1).passed
    assert len(calls) == 1622


def test_prefix_cached_complex_forward_matches_uncached():
    # One unperturbed pass serves every layer's perturbations, as in the
    # end-to-end oracle, so a cached call that changed it would show too.
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
    real = gc._smooth_tv
    monkeypatch.setattr(gc, "_smooth_tv",
                        lambda P: real(P) if np.iscomplexobj(P) else float("nan"))
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


def cx_total(logits, images, anns, plan, settings):
    # The complex-step objective as check_end_to_end composes it, every image afresh.
    parts = [gc._cx_part(z, im, ann, settings) for z, im, ann in zip(logits, images, anns)]
    return gc._cx_combine(parts, anns, gc._cv_index([ann.classes for ann in anns], plan), settings)


@pytest.mark.parametrize("mode", gc.MODES)
def test_complex_step_matches_real_forward(mode):
    # The complex-step oracle must agree with the real-path loss when fed
    # real inputs, otherwise its derivatives verify a different function.
    rng = np.random.default_rng(0)
    from pointseg.grids import LogitField
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
        parts = [gc._cx_part(z, im, ann, settings) for z, im, ann in zip(logits, images, anns)]
        if kind == "conv-ed":
            values["head.w"].reshape(-1)[1] += 1j * gc.COMPLEX_STEP
            logits[1] = walk_layers(values, acts[1], "head")["head"]
        else:
            logits[1].reshape(-1)[10] += 1j * gc.COMPLEX_STEP  # class 0 at (2, 2), annotated
        parts[1] = gc._cx_part(logits[1], images[1], anns[1], settings)
        index = gc._cv_index([ann.classes for ann in anns], plan)
        got = gc._cx_combine(parts, anns, index, settings)
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
