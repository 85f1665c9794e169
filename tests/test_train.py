import math

import numpy as np
import pytest
from oracles import assemble_batch_oracle

import pointseg.grids
from pointseg import (
    Image,
    InvalidConfigError,
    InvalidInputError,
    PointAnnotation,
    Sample,
    TrainConfig,
    TrainingDivergenceError,
    assemble_batch,
    forward,
    init_params,
    poly_lr,
    sgd_step,
    train_loop,
)
from pointseg.losses import partial_cross_entropy
from pointseg.grids import softmax
from pointseg.models import ModelSpec
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
        assert plan.partners == {}


def test_assemble_batch_forced_mutual_partners():
    samples = tiny_dataset(2)
    batch, plan = assemble_batch(samples, 0, seed=0, batch_size=2)
    for k in (0, 1):
        assert plan.partners[(0, k)] == 1
        assert plan.partners[(1, k)] == 0


def test_assemble_batch_deterministic():
    samples = tiny_dataset(7)
    a_batch, a_plan = assemble_batch(samples, 4, seed=11, batch_size=3)
    b_batch, b_plan = assemble_batch(samples, 4, seed=11, batch_size=3)
    assert [s.id for s in a_batch] == [s.id for s in b_batch]
    assert a_plan.partners == b_plan.partners


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
    assert plan.partners[(local["a"], 0)] == local["b"]
    assert plan.partners[(local["b"], 0)] == local["a"]
    assert (local["a"], 1) not in plan.partners


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
            assert plan.partners == partners


def test_assemble_batch_empty_dataset_rejected():
    with pytest.raises(InvalidInputError):
        assemble_batch([], 0, 0, 4)


# config validation


def test_config_learning_rate_defaults_per_kind():
    assert TrainConfig(model_kind="logit-field").lr0 == 0.05
    assert TrainConfig(model_kind="conv-ed").lr0 == 0.001
    assert TrainConfig(model_kind="conv-ed", lr0=0.2).lr0 == 0.2


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
    ):
        with pytest.raises(InvalidConfigError):
            TrainConfig(**kw)


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
    # Augmented samples, softmax outputs and loss gradients derive from
    # validated values and skip the grid checks; only the LogitField that
    # forward builds is checked, once per batch image.
    samples = tiny_dataset(2)
    calls = []
    as_grid = pointseg.grids.as_grid

    def counting(*args, **kwargs):
        calls.append(1)
        return as_grid(*args, **kwargs)

    monkeypatch.setattr(pointseg.grids, "as_grid", counting)
    extra = {"channels": (2, 2, 3, 2)} if kind == "conv-ed" else {}
    cfg = TrainConfig(mode="pce+cv", model_kind=kind, total_iterations=1,
                      batch_size=2, augment=True, seed=0, **extra)
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
