"""Training: the batch gradient, SGD with momentum, poly LR decay, seeded
batch assembly and the loop.

`TrainConfig` extends the objective's `LossSettings` with the optimizer,
schedule, batching and model fields, so the loop hands its config to the loss
as it is. `batch_gradients` is the one step, in three phases: `forward` per
image, `total_loss`, then `models.backward_batch`, the batch-order gradient sum.
The loop and each end-to-end check trial run it, and a trial's complex-step
walks start from the caches of its one forward. Every source of randomness (epoch
permutations, positive-pair draws, augmentation) is a keyed stream, so two
runs with the same config and dataset produce bit-identical parameter
trajectories and checkpoints. The loop runs each step and its update under one floating-point
guard, so a divergence names the iteration whose values first overflowed.

Weight decay applies to convolution kernels only: decaying biases is
conventional to skip, and decaying a transductive logit field would drag
predictions toward uniform, which is supervision loss, not regularization.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .data import augment as augment_sample
from .errors import InvalidConfigError, InvalidInputError, TrainingDivergenceError
from .losses import LossSettings, domain, total_loss
from .models import (KINDS, DEFAULT_CHANNELS, ModelParams, ModelSpec, _checked_channels,
                     backward_batch, forward, init_params, save_checkpoint)
from .seeding import keyed_rng


@dataclass(frozen=True)
class TrainConfig(LossSettings):
    """Fully resolved training hyperparameters: the objective's LossSettings
    fields, then the optimizer, schedule, batching and model fields."""

    lr0: float = domain(None, "(0, inf)")  # per-kind default: 0.05 logit-field, 0.001 conv-ed
    power: float = domain(0.9, "(0, inf)")
    momentum: float = domain(0.9, "[0, 1)")
    weight_decay: float = domain(1e-5, "[0, inf)")
    batch_size: int = domain(8, "[1, inf)")
    total_iterations: int = domain(2000, "[0, inf)")
    seed: int = domain(0, "[0, inf)")
    model_kind: str = domain("conv-ed", choices=KINDS)
    channels: tuple = domain(DEFAULT_CHANNELS, "[1, inf)")
    central_bias_width: int = domain(0, "[0, inf)")
    augment: bool = domain(None)  # per-kind default: on for conv-ed, off for a logit field
    checkpoint_every: int = domain(0, "[0, inf)")  # 0 writes only the final checkpoint

    def __post_init__(self):
        field_kind = self.model_kind == "logit-field"
        if self.lr0 is None:
            # The transductive field tolerates hot steps; the conv stack
            # needs gentle ones or early momentum kicks kill its ReLUs.
            object.__setattr__(self, "lr0", 0.05 if field_kind else 0.001)
        if self.augment is None:
            object.__setattr__(self, "augment", not field_kind)
        elif self.augment is True and field_kind:
            raise InvalidConfigError("augment must be off for a logit field: "
                                     "augmentation turns an image, not its field")
        super().__post_init__()
        object.__setattr__(self, "channels", _checked_channels(self.channels))


@dataclass
class TrainState:
    """Mutable loop state: parameters and loss history, one row per iteration."""

    params: ModelParams
    history: list = field(default_factory=list)  # rows per HISTORY_COLUMNS


# The tail, from "pce" on, names LossBreakdown fields: train_loop reads each row's values by them.
HISTORY_COLUMNS = ("iteration", "lr", "pce", "ms_data", "cv_contrastive", "tv", "total")


def poly_lr(lr0: float, iteration: int, total: int, power: float) -> float:
    """Polynomial decay lr0 * (1 - iteration/total)^power."""
    if not 0 <= iteration <= max(total, 0):
        raise InvalidInputError(f"iteration {iteration} outside [0, {total}]")
    fraction = iteration / total if total > 0 else 0.0
    return lr0 * (1.0 - fraction) ** power


def sgd_step(params: ModelParams, grads: dict, lr: float, momentum: float,
             weight_decay: float) -> ModelParams:
    """In-place SGD with momentum; decay only touches convolution kernels, the
    rank-4 entries, as init_params tells them apart."""
    for name in sorted(grads):
        if name not in params.values:
            raise InvalidInputError(f"gradient for unknown parameter {name!r}")
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDivergenceError(f"non-finite gradient for parameter {name!r}")
        p = params.values[name]
        if g.shape != p.shape:
            raise InvalidInputError(f"gradient shape mismatch for {name!r}")
        if weight_decay and p.ndim == 4:
            g = g + weight_decay * p
        v = params.momentum[name]
        v *= momentum
        v += g
        p -= lr * v
    return params


def assemble_batch(samples, iteration: int, seed: int, batch_size: int):
    """Pick this iteration's batch and its positive-pair plan.

    Batches tile a per-epoch permutation without replacement; the trailing
    batch of an epoch may be short. For every (image, class) anchor, the
    positive partner is drawn uniformly from the other batch images whose
    annotation contains the class; anchors with no candidate are absent from
    the plan, and the plan's indices refer to positions within the batch.
    """
    n = len(samples)
    if n == 0:
        raise InvalidInputError("cannot assemble a batch from an empty dataset")
    if batch_size < 1:
        raise InvalidInputError("batch_size must be at least 1")
    per_epoch = math.ceil(n / batch_size)
    epoch, slot = divmod(iteration, per_epoch)
    perm = keyed_rng(seed, "perm", epoch).permutation(n)
    chosen = perm[slot * batch_size : (slot + 1) * batch_size]
    batch = [samples[int(i)] for i in chosen]

    pair_rng = keyed_rng(seed, "pair", iteration)
    classes = [() if s.annotation is None else s.annotation.classes for s in batch]
    partners = {}
    for local, own in enumerate(classes):
        for k in own:
            candidates = [m for m, other in enumerate(classes) if m != local and k in other]
            if candidates:
                partners[(local, k)] = candidates[int(pair_rng.integers(len(candidates)))]
    return batch, partners


def batch_gradients(params: ModelParams, batch, plan: dict, settings: LossSettings):
    """One batch's step in three phases: forward each sample, the settings'
    objective over the batch, then `backward_batch`. Returns (LossBreakdown,
    grads, caches), the forward caches for the end-to-end oracle to start from."""
    logits, caches = zip(*(forward(params, params.spec, s.image, s.id) for s in batch))
    breakdown = total_loss([s.image for s in batch], list(logits),
                           [s.annotation for s in batch], plan, settings)
    return breakdown, backward_batch(params, caches, breakdown.grad_wrt_logits), caches


def history_to_csv(history) -> str:
    lines = [",".join(HISTORY_COLUMNS)]
    for row in history:
        lines.append(",".join(
            str(int(row[0])) if i == 0 else repr(float(row[i]))
            for i in range(len(HISTORY_COLUMNS))
        ))
    return "\n".join(lines) + "\n"


def check_training_samples(samples, config: TrainConfig) -> ModelSpec:
    """The ModelSpec config gives a training set, once every sample is
    annotated and all share one grid and one class count. Callers run it
    before writing, so a spec the set cannot take (an odd grid for conv-ed, a
    repeated id for a logit field) fails before any file exists."""
    if not samples:
        raise InvalidInputError("training needs at least one sample")
    for s in samples:
        if s.annotation is None:
            raise InvalidInputError(f"sample {s.id}: training needs point annotations")
    K = samples[0].annotation.num_classes
    H, W = samples[0].image.intensities.shape
    for s in samples:
        if s.image.intensities.shape != (H, W):
            raise InvalidInputError("all training images must share one height and width")
        if s.annotation.num_classes != K:
            raise InvalidInputError("all annotations must share one class count")
    if config.model_kind == "logit-field":
        return ModelSpec("logit-field", K, H, W, image_ids=tuple(s.id for s in samples))
    return ModelSpec("conv-ed", K, H, W, channels=config.channels)


def train_loop(samples, config: TrainConfig, checkpoint_dir=None) -> TrainState:
    """Run the configured number of iterations over annotated samples.

    Returns the final TrainState; when checkpoint_dir is given, writes
    checkpoint_final.bin plus checkpoint_NNNNNN.bin at the configured
    cadence. Raises a divergence error naming the iteration and batch whose
    loss, gradient or update first went non-finite.
    """
    params = init_params(check_training_samples(samples, config), config.seed)
    state = TrainState(params)

    for it in range(config.total_iterations):
        batch, plan = assemble_batch(samples, it, config.seed, config.batch_size)
        if config.augment:
            batch = [augment_sample(s, config.seed, it) for s in batch]
        lr = poly_lr(config.lr0, it, config.total_iterations, config.power)

        # Inputs were validated before the loop, so an overflow or an invalid
        # operation in the step or the update means values left the finite range.
        ids = ", ".join(s.id for s in batch)
        try:
            with np.errstate(over="raise", invalid="raise"):
                # The caches are not bound, so they are freed before the next forward.
                breakdown, grads = batch_gradients(params, batch, plan, config)[:2]
                sgd_step(params, grads, lr, config.momentum, config.weight_decay)
        except FloatingPointError as exc:
            raise TrainingDivergenceError(
                f"non-finite values at iteration {it} on batch [{ids}]: {exc}"
            ) from exc

        state.history.append((it, lr, *(getattr(breakdown, c) for c in HISTORY_COLUMNS[2:])))
        if (checkpoint_dir is not None and config.checkpoint_every
                and (it + 1) % config.checkpoint_every == 0):
            save_checkpoint(
                os.path.join(checkpoint_dir, f"checkpoint_{it + 1:06d}.bin"), params
            )

    if checkpoint_dir is not None:
        save_checkpoint(os.path.join(checkpoint_dir, "checkpoint_final.bin"), params)
    return state
