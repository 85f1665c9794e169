import dataclasses
import hashlib
import importlib.util
import math
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import blas_core
from oracles import assemble_batch_oracle

import pointseg.gradcheck
import pointseg.grids
import pointseg.train
from pointseg import (
    Image,
    InvalidConfigError,
    InvalidInputError,
    LossSettings,
    PointAnnotation,
    Sample,
    SynthSpec,
    TrainConfig,
    TrainingDivergenceError,
    assemble_batch,
    forward,
    generate_annotations,
    init_params,
    poly_lr,
    sgd_step,
    synth_generate,
    train_loop,
)
from pointseg.losses import partial_cross_entropy
from pointseg.grids import softmax
from pointseg.models import DEFAULT_CHANNELS, ModelSpec
from pointseg.train import HISTORY_COLUMNS, history_to_csv


def tiny_sample(idx, rng, H=8, W=8, K=2):
    img = rng.random((H, W))
    pts = []
    cells = rng.choice(H * W, size=K, replace=False)
    for k, cell in enumerate(cells):
        pts.append((int(cell) // W, int(cell) % W, k))
    return Sample(f"img_{idx:03d}", Image(img), annotation=PointAnnotation(tuple(pts), K))


def tiny_dataset(n, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return [tiny_sample(i, rng, **kw) for i in range(n)]


# poly LR schedule


def test_poly_lr_endpoints_exact():
    assert poly_lr(0.07, 0, 100, 0.9) == 0.07
    assert poly_lr(0.07, 100, 100, 0.9) == 0.0


def test_poly_lr_halfway_value():
    assert abs(poly_lr(1.0, 50, 100, 0.9) - 0.5 ** 0.9) <= 1e-12
    assert abs(poly_lr(0.01, 50, 100, 0.9) - 0.01 * 0.5 ** 0.9) <= 1e-12


def test_poly_lr_rejects_out_of_range_iteration():
    with pytest.raises(InvalidInputError):
        poly_lr(0.1, 5, 4, 0.9)
    with pytest.raises(InvalidInputError):
        poly_lr(0.1, -1, 4, 0.9)


# SGD with momentum and selective weight decay


def field_params(K=2, H=3, W=3, ids=("a",)):
    spec = ModelSpec("logit-field", K, H, W, image_ids=ids)
    return init_params(spec, 0)


def conv_params(K=2, H=8, W=8):
    spec = ModelSpec("conv-ed", K, H, W, channels=(2, 2, 3, 2))
    return init_params(spec, 0)


def test_sgd_zero_gradient_is_identity():
    params = conv_params()
    before = {k: v.copy() for k, v in params.values.items()}
    zeros = {k: np.zeros_like(v) for k, v in params.values.items()}
    sgd_step(params, zeros, lr=0.5, momentum=0.9, weight_decay=0.0)
    for k, v in params.values.items():
        assert np.array_equal(v, before[k])


def test_sgd_plain_descent_step():
    params = field_params()
    name = next(iter(params.values))
    g = np.full_like(params.values[name], 2.0)
    expected = params.values[name] - 0.25 * g
    sgd_step(params, {name: g}, lr=0.25, momentum=0.0, weight_decay=0.0)
    assert np.max(np.abs(params.values[name] - expected)) <= 1e-12


def test_sgd_momentum_two_step_displacement():
    # v1 = g, v2 = 0.9 g + g, so two unit-lr steps travel 2.9 g in total.
    params = field_params()
    name = next(iter(params.values))
    start = params.values[name].copy()
    g = np.full_like(start, 0.125)
    for _ in range(2):
        sgd_step(params, {name: g.copy()}, lr=1.0, momentum=0.9, weight_decay=0.0)
    assert np.max(np.abs(params.values[name] - (start - 2.9 * g))) <= 1e-12


def test_sgd_decay_targets_kernels_only():
    params = conv_params()
    bias = [k for k in params.values if k.endswith(".b")][0]
    kernel = [k for k in params.values if k.endswith(".w")][0]
    params.values[bias][...] = 1.0
    zeros = {k: np.zeros_like(v) for k, v in params.values.items()}
    # wd=1, lr=1, zero gradient: decayed entries collapse to zero exactly.
    sgd_step(params, zeros, lr=1.0, momentum=0.0, weight_decay=1.0)
    assert np.all(params.values[kernel] == 0.0)
    assert np.all(params.values[bias] == 1.0)


def test_sgd_never_decays_logit_fields():
    params = field_params()
    name = next(iter(params.values))
    assert name.startswith("field.")
    params.values[name][...] = 3.0
    zeros = {name: np.zeros_like(params.values[name])}
    sgd_step(params, zeros, lr=1.0, momentum=0.0, weight_decay=1.0)
    assert np.all(params.values[name] == 3.0)


def test_sgd_rejects_bad_gradients():
    params = field_params()
    name = next(iter(params.values))
    bad = np.full_like(params.values[name], np.nan)
    with pytest.raises(TrainingDivergenceError, match=name):
        sgd_step(params, {name: bad}, lr=0.1, momentum=0.0, weight_decay=0.0)
    with pytest.raises(InvalidInputError):
        sgd_step(params, {"nope.w": np.zeros(3)}, lr=0.1, momentum=0.0, weight_decay=0.0)
    with pytest.raises(InvalidInputError):
        sgd_step(params, {name: np.zeros(2)}, lr=0.1, momentum=0.0, weight_decay=0.0)


# batch assembly and pairing


def test_assemble_batch_size_one_has_empty_plan():
    samples = tiny_dataset(5)
    for it in range(5):
        batch, plan = assemble_batch(samples, it, seed=3, batch_size=1)
        assert len(batch) == 1
        assert plan == {}


def test_assemble_batch_forced_mutual_partners():
    samples = tiny_dataset(2)
    batch, plan = assemble_batch(samples, 0, seed=0, batch_size=2)
    for k in (0, 1):
        assert plan[(0, k)] == 1
        assert plan[(1, k)] == 0


def test_assemble_batch_deterministic():
    samples = tiny_dataset(7)
    a_batch, a_plan = assemble_batch(samples, 4, seed=11, batch_size=3)
    b_batch, b_plan = assemble_batch(samples, 4, seed=11, batch_size=3)
    assert [s.id for s in a_batch] == [s.id for s in b_batch]
    assert a_plan == b_plan


def test_assemble_batch_epoch_covers_dataset_without_replacement():
    samples = tiny_dataset(7)
    per_epoch = math.ceil(7 / 3)
    seen = []
    sizes = []
    for it in range(per_epoch):
        batch, _ = assemble_batch(samples, it, seed=5, batch_size=3)
        seen.extend(s.id for s in batch)
        sizes.append(len(batch))
    assert sorted(seen) == sorted(s.id for s in samples)
    assert sizes == [3, 3, 1]  # trailing batch is short


def test_assemble_batch_reshuffles_between_epochs():
    samples = tiny_dataset(8)
    first = [s.id for s in assemble_batch(samples, 0, seed=2, batch_size=8)[0]]
    second = [s.id for s in assemble_batch(samples, 1, seed=2, batch_size=8)[0]]
    assert sorted(first) == sorted(second)
    assert first != second  # one 8-permutation colliding is astronomically unlikely


def test_assemble_batch_absent_when_no_candidate():
    rng = np.random.default_rng(0)
    a = Sample("a", Image(rng.random((4, 4))),
               annotation=PointAnnotation(((0, 0, 0), (1, 1, 1)), 2))
    b = Sample("b", Image(rng.random((4, 4))),
               annotation=PointAnnotation(((2, 2, 0),), 2))
    batch, plan = assemble_batch([a, b], 0, seed=0, batch_size=2)
    local = {s.id: i for i, s in enumerate(batch)}
    assert plan[(local["a"], 0)] == local["b"]
    assert plan[(local["b"], 0)] == local["a"]
    assert (local["a"], 1) not in plan


@pytest.mark.parametrize("batch_size", [2, 5, 16])
def test_assemble_batch_matches_oracle(batch_size):
    # Same batches and the same partner draws as reading each candidate's
    # classes from its annotation, with some samples missing a class and
    # some unannotated.
    rng = np.random.default_rng(8)
    samples = []
    for i in range(19):
        K = 4
        classes = [k for k in range(K) if rng.random() < 0.6]
        cells = rng.choice(36, size=len(classes), replace=False)
        ann = PointAnnotation(tuple((int(c) // 6, int(c) % 6, k) for c, k in zip(cells, classes)), K)
        samples.append(Sample(f"s{i:02d}", Image(rng.random((6, 6))),
                              annotation=None if i % 7 == 3 else ann))
    for seed in (0, 1, 9):
        for it in range(12):
            batch, plan = assemble_batch(samples, it, seed=seed, batch_size=batch_size)
            ids, partners = assemble_batch_oracle(samples, it, seed, batch_size)
            assert [s.id for s in batch] == ids
            assert plan == partners


def test_assemble_batch_empty_dataset_rejected():
    with pytest.raises(InvalidInputError):
        assemble_batch([], 0, 0, 4)


# config validation


def test_config_learning_rate_defaults_per_kind():
    assert TrainConfig(model_kind="logit-field").lr0 == 0.05
    assert TrainConfig(model_kind="conv-ed").lr0 == 0.001
    assert TrainConfig(model_kind="conv-ed", lr0=0.2).lr0 == 0.2


def test_config_augment_defaults_per_kind_and_a_logit_field_refuses_it():
    # data.augment turns a sample's image and points, not its logit field, so
    # an augmented field would be supervised in a frame that moves every step.
    assert TrainConfig(model_kind="conv-ed").augment is True
    assert TrainConfig(model_kind="conv-ed", augment=False).augment is False
    assert TrainConfig(model_kind="logit-field").augment is False
    assert TrainConfig(model_kind="logit-field", augment=False).augment is False
    with pytest.raises(InvalidConfigError, match="^augment must be off for a logit field"):
        TrainConfig(model_kind="logit-field", augment=True)


def test_config_rejects_bad_values():
    for kw in (
        {"mode": "pce+tv"},
        {"model_kind": "transformer"},
        {"tau": 0.0},
        {"lr0": -1.0},
        {"momentum": 1.0},
        {"batch_size": 0},
        {"total_iterations": -1},
        {"weight_decay": -0.1},
        {"checkpoint_every": -5},
        {"seed": -1},
        {"central_bias_width": -1},
        {"channels": (2, 3)},
        {"channels": (0, 1, 1, 1)},
        {"channels": (2.5, 3, 3, 1)},
        {"channels": (2, 3, 3, True)},
    ):
        with pytest.raises(InvalidConfigError):
            TrainConfig(**kw)


def _config_classes(names):
    """(class, field) cases: TrainConfig on every name, then LossSettings on
    the objective's own fields, which it validates without a training config."""
    loss_fields = {f.name for f in dataclasses.fields(LossSettings)}
    return ([pytest.param(TrainConfig, name, id=name) for name in names]
            + [pytest.param(LossSettings, name, id=f"LossSettings-{name}")
               for name in names if name in loss_fields])


@pytest.mark.parametrize("cls, name", _config_classes(
    ["lambda_cv", "lambda_ms", "mu", "tau", "lr0", "power", "weight_decay"]))
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_floats(cls, name, value):
    with pytest.raises(InvalidConfigError, match=name):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", _config_classes(["lambda_cv", "lambda_ms", "mu"]))
def test_config_rejects_negative_loss_weights(cls, name):
    with pytest.raises(InvalidConfigError, match=name):
        cls(**{name: -1.0})


# training loop


def test_train_zero_iterations_returns_initialization():
    samples = tiny_dataset(3)
    cfg = TrainConfig(model_kind="logit-field", total_iterations=0, seed=7)
    state = train_loop(samples, cfg)
    fresh = init_params(state.params.spec, 7)
    for k in fresh.values:
        assert np.array_equal(state.params.values[k], fresh.values[k])
    assert state.history == []


def test_train_weight_zero_collapse_matches_pce():
    samples = tiny_dataset(4)
    common = dict(model_kind="logit-field", total_iterations=12, seed=1,
                  lr0=0.05, batch_size=2, augment=False, mu=0.0,
                  weight_decay=0.0)
    a = train_loop(samples, TrainConfig(mode="pce+cv", lambda_cv=0.0, **common))
    b = train_loop(samples, TrainConfig(mode="pce", **common))
    for k in a.params.values:
        assert np.array_equal(a.params.values[k], b.params.values[k])


def test_train_logit_field_fits_annotated_points():
    samples = tiny_dataset(1)
    cfg = TrainConfig(mode="pce", model_kind="logit-field", total_iterations=200,
                      lr0=1.0, batch_size=1, seed=0, augment=False,
                      weight_decay=0.0, mu=0.0)
    state = train_loop(samples, cfg)
    field, _ = forward(state.params, state.params.spec,
                       samples[0].image, samples[0].id)
    value, _ = partial_cross_entropy(softmax(field), samples[0].annotation)
    assert value < 1e-3


def test_train_pce_monotonic_for_logit_field_full_batch():
    samples = tiny_dataset(3)
    cfg = TrainConfig(mode="pce", model_kind="logit-field", total_iterations=60,
                      lr0=0.1, momentum=0.0, batch_size=3, seed=2,
                      augment=False, weight_decay=0.0, mu=0.0)
    state = train_loop(samples, cfg)
    pces = [row[2] for row in state.history]
    for earlier, later in zip(pces, pces[1:]):
        assert later <= earlier + 1e-12


def test_train_history_is_finite_and_well_formed():
    samples = tiny_dataset(4)
    cfg = TrainConfig(mode="pce+cv", model_kind="logit-field",
                      total_iterations=10, lr0=0.05, batch_size=2, seed=0)
    state = train_loop(samples, cfg)
    assert len(state.history) == 10
    for row in state.history:
        assert len(row) == len(HISTORY_COLUMNS)
        assert all(math.isfinite(float(x)) for x in row)
    csv = history_to_csv(state.history)
    lines = csv.strip().split("\n")
    assert lines[0] == "iteration,lr,pce,ms_data,cv_contrastive,tv,total"
    assert len(lines) == 11
    assert lines[1].startswith("0,")


def test_train_deterministic_across_runs():
    samples = tiny_dataset(4)
    cfg = TrainConfig(mode="pce+cv", model_kind="conv-ed", channels=(2, 2, 3, 2),
                      total_iterations=4, lr0=0.001, batch_size=2, seed=9)
    a = train_loop(samples, cfg)
    b = train_loop(samples, cfg)
    for k in a.params.values:
        assert np.array_equal(a.params.values[k], b.params.values[k])
    assert a.history == b.history


@pytest.mark.parametrize("kind", ["conv-ed", "logit-field"])
def test_train_step_checks_each_image_once(kind, monkeypatch):
    # Augmented samples (conv-ed's default), softmax outputs and loss
    # gradients derive from validated values and skip the grid checks; only
    # the LogitField that forward builds is checked, once per batch image.
    samples = tiny_dataset(2)
    calls = []
    as_grid = pointseg.grids.as_grid

    def counting(*args, **kwargs):
        calls.append(1)
        return as_grid(*args, **kwargs)

    monkeypatch.setattr(pointseg.grids, "as_grid", counting)
    extra = {"channels": (2, 2, 3, 2)} if kind == "conv-ed" else {}
    cfg = TrainConfig(mode="pce+cv", model_kind=kind, total_iterations=1,
                      batch_size=2, seed=0, **extra)
    train_loop(samples, cfg)
    assert len(calls) == 2


def test_train_divergence_reports_batch():
    # The convolutional stack compounds oversized steps into overflow.
    samples = tiny_dataset(2)
    cfg = TrainConfig(mode="pce", model_kind="conv-ed", channels=(2, 2, 3, 2),
                      total_iterations=50, lr0=1e10, momentum=0.9, batch_size=2,
                      seed=0, augment=False)
    with pytest.raises(TrainingDivergenceError, match="img_00"):
        train_loop(samples, cfg)


def test_train_rejects_unannotated_samples():
    rng = np.random.default_rng(0)
    bare = Sample("bare", Image(rng.random((8, 8))))
    with pytest.raises(InvalidInputError, match="bare"):
        train_loop([bare], TrainConfig(total_iterations=1))
    with pytest.raises(InvalidInputError):
        train_loop([], TrainConfig(total_iterations=1))


def test_train_rejects_mixed_shapes():
    rng = np.random.default_rng(0)
    a = tiny_dataset(1)[0]
    odd = Sample("odd", Image(rng.random((6, 6))),
                 annotation=PointAnnotation(((0, 0, 0), (1, 1, 1)), 2))
    with pytest.raises(InvalidInputError):
        train_loop([a, odd], TrainConfig(total_iterations=1))


def _three_class_sample():
    return Sample("three", Image(np.zeros((8, 8))), annotation=PointAnnotation(((0, 0, 2),), 3))


BAD_TRAINING_INPUTS = {
    "batch-size-zero": (lambda: assemble_batch(tiny_dataset(2), 0, 0, 0),
                        "batch_size must be at least 1"),
    "class-counts-differ": (
        lambda: train_loop(tiny_dataset(1) + [_three_class_sample()],
                           TrainConfig(model_kind="logit-field", total_iterations=1)),
        "all annotations must share one class count"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRAINING_INPUTS))
def test_bad_training_input_raises_naming_what_is_wrong(case):
    call, message = BAD_TRAINING_INPUTS[case]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call()


def test_train_overflowing_update_reports_its_iteration(monkeypatch):
    # Iteration 0's update stays finite; iteration 1's overflows inside sgd_step.
    def cold_fields(spec, seed):
        params = init_params(spec, seed)
        for value in params.values.values():
            value[...] = -1e308
        return params

    monkeypatch.setattr(pointseg.train, "init_params", cold_fields)
    cfg = TrainConfig(mode="pce", model_kind="logit-field", lr0=1e308, batch_size=2,
                      total_iterations=3, augment=False)
    with pytest.raises(TrainingDivergenceError, match="iteration 1 "):
        train_loop(tiny_dataset(2), cfg)


@pytest.mark.parametrize("kind", ["conv-ed", "logit-field"])
def test_training_and_gradcheck_share_one_batch_step(kind, monkeypatch):
    calls = []
    step = pointseg.train.batch_gradients

    def counting(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(pointseg.train, "batch_gradients", counting)
    extra = {"channels": (2, 2, 3, 2)} if kind == "conv-ed" else {}
    train_loop(tiny_dataset(4), TrainConfig(model_kind=kind, total_iterations=3,
                                            batch_size=2, **extra))
    assert len(calls) == 3
    calls.clear()
    assert pointseg.gradcheck.check_end_to_end(kind, "pce+cv", trials=2).passed
    assert len(calls) == 2


def test_train_loop_frees_each_steps_caches_before_the_next_forward(monkeypatch):
    # A step's forward caches (16 MB at the default config) kept bound through
    # the next step's forward would add to the peak memory of every run.
    class Cache(dict):  # a dict subclass takes weak references
        pass

    B, steps, refs = 2, 3, []
    real = pointseg.train.forward

    def tracking(*args, **kwargs):
        if refs and len(refs) % B == 0:
            alive = [r for r in refs[-B:] if r() is not None]
            assert not alive, f"step {len(refs) // B - 1}'s caches outlive it"
        logits, cache = real(*args, **kwargs)
        cache = Cache(cache)
        refs.append(weakref.ref(cache))
        return logits, cache

    monkeypatch.setattr(pointseg.train, "forward", tracking)
    train_loop(tiny_dataset(4), TrainConfig(model_kind="conv-ed", channels=(2, 2, 3, 2),
                                            total_iterations=steps, batch_size=B))
    assert len(refs) == B * steps


def test_benchmark_spans_see_every_per_image_call_of_training():
    # bench/spans.py hooks models.forward, models.backward and
    # losses.total_loss by name; a step routed around them would empty the
    # benchmark's per-layer figures while its smoke test still passed.
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    B, N = 3, 2
    with spans.Tracer().installed(pointseg) as tracer:
        train_loop(tiny_dataset(6), TrainConfig(model_kind="conv-ed", channels=(2, 2, 3, 2),
                                                total_iterations=N, batch_size=B))
    counts = Counter(tracer.names[i] for i in tracer.name_id)
    assert counts["models.forward"] == B * N
    assert counts["models.backward"] == B * N
    assert counts["losses.total_loss"] == N
    assert counts["train.sgd_step"] == N


# Per iteration, the hex of each history value after the iteration number
# (lr, pce, ms_data, cv_contrastive, tv, total); per parameter tensor, in the
# model's order, the sha256 of its bytes. With them a digest failure names the
# first iteration and the first tensor that differ.
DEFAULT_MODEL_PINS = (
    [
        ('0x1.0624dd2f1a9fcp-10', '0x1.adead26d45e8ep+4', '0x0.0p+0', '0x1.515b8c8bc1614p+7', '0x1.3ddabc214a834p+11', '0x1.35fedf9ff72c3p+6'),
        ('0x1.18f57fe19a025p-11', '0x1.7e9adf3dbde66p+4', '0x0.0p+0', '0x1.c85203aa32146p+6', '0x1.1e1429fde74a6p+11', '0x1.d1471da1f2162p+5'),
    ],
    {
        "enc1.w": "c4d374d35a713ab90e330c0496162a0c16e429e12a9cd66cc23a1e267634aa3e",
        "enc1.b": "23760c5e245ba67bdbcb47f59b8751a77a2e22d020a30d981bf4a360908b9fa0",
        "enc2.w": "168ccb9768592ede35c80de37bf07d6ce7f4cbb16bda6589f6dbbcf02ec7bb87",
        "enc2.b": "727c8d1cd4db81be642f17eaefb5049021a2d6ec48cd7400c994585132464347",
        "enc3.w": "cb2e68a163a29b5ec285fd784ba33cc660c4e5fae2964802280aeeef1769af47",
        "enc3.b": "1fe878f4b3f047fb99e558222ceef6f5cb18fe69a5fe8b3e76a5f6dd631e4bfa",
        "dec1.w": "65e78dfdf520bb9eaae908c50c6be0a9a6a62f3e390354e5fdb1a2c9b16fe8c2",
        "dec1.b": "2b9bbc04210b269f9fd2d3a4e8640c7aed17716a2c6c50a66ab7089d24722682",
        "head.w": "f8ac22b59b47bc92fe8ea0d49ba2cbcb1296338019b29432d7d4e0932253f92b",
        "head.b": "f37da66337d0bf0012fdcf848ce3f3160f12bf07326ec004d7bd7bbb6c755760",
    },
)
LOGIT_FIELD_PINS = {
    "pce+cv": (
        [
            ('0x1.999999999999ap-5', '0x1.a5ddfb8038490p+4', '0x0.0p+0', '0x1.d503f777d29c2p+6', '0x0.0p+0', '0x1.ec57c56e674efp+5'),
            ('0x1.b6ff97d080a3ap-6', '0x1.9931ec4a6d9b4p+4', '0x0.0p+0', '0x1.07fac2c1d7d73p+7', '0x1.8573eb4274453p+1', '0x1.04afc4b3f79dfp+6'),
        ],
        {
            "field.train000": "6ce13784f43ede65e1165f6dd7433e8b69204f449c602823bf4bfebcc8384737",
            "field.train001": "cb5b3a5c960328ce3dee090da8721d72f962015d1e1e7ca7905edda5424ccf89",
            "field.train002": "e92ed6858e8ad356b8fec07309a83cc18d44a79e481492f8a695377721f46730",
            "field.train003": "db93ad58797ea01a1acc553ac7cfd0dc38e6f9e82d12d60fdc62ee5e1d210238",
            "field.train004": "9ecc2aab3a960f920266facf2db518c3387f8b7b9e0e68b55d5a5ad8703bd58a",
            "field.train005": "f8db9ce819b8bd31b82c299a7ccfc78328ab46329b7e72d6dab53bdc1d426035",
            "field.train006": "6aeee3ef227e7568bcdbaf3dc30639b06eb3b7a29295d02f070eaa5e01582af8",
            "field.train007": "8aa42cd3ca2890010c95adca1222d7b579abb59b6e015e307481bbbecff030dc",
        },
    ),
    "pce+ms": (
        [
            ('0x1.999999999999ap-5', '0x1.a5ddfb8038490p+4', '0x1.6dc8306c98c4ep+9', '0x0.0p+0', '0x0.0p+0', '0x1.ebabf98bf18efp+7'),
            ('0x1.b6ff97d080a3ap-6', '0x1.992ca38cd78c0p+4', '0x1.6dc8306a297dfp+9', '0x0.0p+0', '0x1.106f8e4e88c60p+1', '0x1.ea15d154c614bp+7'),
        ],
        {
            "field.train000": "50e2578a631a7efc1c3d6cd0f6739f5f63aa6ebde14281d1e4ca070a9f109ceb",
            "field.train001": "650287c5db2a38f8ac1327d0dca24875d285256861dd60fdd9a934495767678d",
            "field.train002": "ed96f5eef64a67171b3ba6a2674f5c6d47dfa2da606e9f6868c5e13cb4ac85e1",
            "field.train003": "34ee271f7c4a9376c5f3b5b5dbfa134399cb5b810b04c75251551dd88fe194bd",
            "field.train004": "53f6e26810116245ab1945cf1765211666eef819f67e9c16512229db1992f674",
            "field.train005": "53a653a5e658f032c1ddd1d76d90dda3c86aba8b160bd9a0e0e0ed51065572be",
            "field.train006": "bf6464cd5be693f613e037a2e5628d7fbf2f622f027e3e30d911f9daddc94df9",
            "field.train007": "283b306bded5d64d1e33892370fe1a96ab44b1b17432b6a58a9706e2ae319afb",
        },
    ),
}


def assert_run_pinned(state, pins):
    history_hex, tensor_sha256 = pins
    rows = [tuple(float(v).hex() for v in row[1:]) for row in state.history]
    tensors = {name: hashlib.sha256(v.tobytes()).hexdigest() for name, v in state.params.values.items()}
    assert (len(rows), list(tensors)) == (len(history_hex), list(tensor_sha256))
    iteration = next((int(row[0]) for row, got, want in zip(state.history, rows, history_hex)
                      if got != want), None)
    tensor = next((name for name, want in tensor_sha256.items() if tensors[name] != want), None)
    assert (iteration, tensor) == (None, None), \
        f"first differing iteration {iteration}, first differing tensor {tensor}; " \
        f"pinned on SkylakeX; this process runs {blas_core()}"


def test_default_model_bytes_pinned(tmp_path):
    # The default shape (conv-ed, 64x64, channels (16, 16, 32, 16), batch 8,
    # pce+cv, augmentation on) for two iterations on a small synthetic set.
    # The digests were taken before the conv kernels were blocked to cache
    # size; any change to the convolutions' arithmetic moves them.
    train, _, _ = synth_generate(SynthSpec(train_count=8, test_count=0))
    config = TrainConfig(total_iterations=2)
    assert (config.model_kind, config.mode, config.batch_size, config.augment,
            config.channels) == ("conv-ed", "pce+cv", 8, True, DEFAULT_CHANNELS)
    state = train_loop(generate_annotations(train, seed=0), config, checkpoint_dir=tmp_path)
    assert_run_pinned(state, DEFAULT_MODEL_PINS)
    digests = (hashlib.sha256((tmp_path / "checkpoint_final.bin").read_bytes()).hexdigest(),
               hashlib.sha256(history_to_csv(state.history).encode()).hexdigest())
    assert digests == ("156600dbc1b9106aefa87824bb5913f0feb4cd91fe0c01aecd469df3d05d9c28",
                       "195b1214e4e609853c48a19c0787443fa7e4c5ed5a8ea24ac00b4eb413cdb51f"), \
        f"pinned on SkylakeX; this process runs {blas_core()}"


@pytest.mark.parametrize("mode, digests", [
    ("pce+cv", ("1f7db94218c4a550594ff6a81fbae65a44a1ec253b23f08a1dac5f12034aed91",
                "e051a17743a5bfa674ac042b91f56b5890c372223bef4c0c577e07e5788f0cc3")),
    ("pce+ms", ("dd53bfe9573e9391da7632c7f7ef06547007463468535adc354bb065d82c5295",
                "424d5d966878fef8b3a23a921c96985f2cf7d981353e3d4090fe0d01bd0eae2c")),
])
def test_logit_field_bytes_pinned(tmp_path, mode, digests):
    # A logit field (64x64, batch 8, augmentation off by default) for two
    # iterations. Its forward is a copy, so nearly all of its arithmetic is the
    # loss side: a change to the bits of the ms, cv or TV terms, or to the
    # order their gradients meet in, moves these.
    train, _, _ = synth_generate(SynthSpec(train_count=8, test_count=0))
    config = TrainConfig(model_kind="logit-field", mode=mode, total_iterations=2)
    assert (config.batch_size, config.augment) == (8, False)
    state = train_loop(generate_annotations(train, seed=0), config, checkpoint_dir=tmp_path)
    assert_run_pinned(state, LOGIT_FIELD_PINS[mode])
    assert (hashlib.sha256((tmp_path / "checkpoint_final.bin").read_bytes()).hexdigest(),
            hashlib.sha256(history_to_csv(state.history).encode()).hexdigest()) == digests, \
        f"pinned on SkylakeX; this process runs {blas_core()}"
