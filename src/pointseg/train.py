"""Training loop: SGD with momentum, poly LR decay, seeded batch assembly.

Every source of randomness (epoch permutations, positive-pair draws,
augmentation) is a keyed stream, so two runs with the same config and dataset
produce bit-identical parameter trajectories and checkpoints. Gradients
accumulate over the batch in fixed image order.

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
from .losses import MODES, LossSettings, PairingPlan, total_loss
from .models import KINDS, DEFAULT_CHANNELS, ModelParams, ModelSpec, backward, forward, init_params, save_checkpoint
from .seeding import keyed_rng


@dataclass(frozen=True)
class TrainConfig:
    """Fully resolved training hyperparameters."""

    mode: str = "pce+cv"
    lambda_cv: float = 0.3
    lambda_ms: float = 0.3
    mu: float = 1e-5
    tau: float = 0.07
    lr0: float = None  # per-kind default: 0.05 logit-field, 0.001 conv-ed
    power: float = 0.9
    momentum: float = 0.9
    weight_decay: float = 1e-5
    batch_size: int = 8
    total_iterations: int = 2000
    seed: int = 0
    model_kind: str = "conv-ed"
    channels: tuple = DEFAULT_CHANNELS
    central_bias_width: int = 0
    freeze_means: bool = False
    augment: bool = True
    checkpoint_every: int = 0  # 0 writes only the final checkpoint

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidConfigError(f"unknown loss mode {self.mode!r}")
        if self.model_kind not in KINDS:
            raise InvalidConfigError(f"unknown model kind {self.model_kind!r}")
        if self.tau <= 0:
            raise InvalidConfigError("tau must be positive")
        if self.lr0 is None:
            # The transductive field tolerates hot steps; the conv stack
            # needs gentle ones or early momentum kicks kill its ReLUs.
            object.__setattr__(
                self, "lr0", 0.05 if self.model_kind == "logit-field" else 0.001
            )
        if self.lr0 <= 0:
            raise InvalidConfigError("lr0 must be positive")
        if self.power <= 0:
            raise InvalidConfigError("power must be positive")
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be at least 1")
        if self.total_iterations < 0:
            raise InvalidConfigError("total_iterations must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise InvalidConfigError("weight_decay must be nonnegative")
        if self.checkpoint_every < 0:
            raise InvalidConfigError("checkpoint_every must be nonnegative")
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))

    def loss_settings(self) -> LossSettings:
        return LossSettings(
            lambda_cv=self.lambda_cv,
            lambda_ms=self.lambda_ms,
            mu=self.mu,
            tau=self.tau,
            freeze_means=self.freeze_means,
        )


@dataclass
class TrainState:
    """Mutable loop state: the iteration counter, parameters, loss history."""

    iteration: int
    params: ModelParams
    history: list = field(default_factory=list)  # rows per HISTORY_COLUMNS


HISTORY_COLUMNS = ("iteration", "lr", "pce", "ms_data", "cv_contrastive", "tv", "total")


def poly_lr(lr0: float, iteration: int, total: int, power: float) -> float:
    """Polynomial decay lr0 * (1 - iteration/total)^power."""
    if not 0 <= iteration <= max(total, 0):
        raise InvalidInputError(f"iteration {iteration} outside [0, {total}]")
    fraction = iteration / total if total > 0 else 0.0
    return lr0 * (1.0 - fraction) ** power


def sgd_step(params: ModelParams, grads: dict, lr: float, momentum: float,
             weight_decay: float) -> ModelParams:
    """In-place SGD with momentum; decay only touches convolution kernels."""
    for name in sorted(grads):
        if name not in params.values:
            raise InvalidInputError(f"gradient for unknown parameter {name!r}")
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingDivergenceError(f"non-finite gradient for parameter {name!r}")
        p = params.values[name]
        if g.shape != p.shape:
            raise InvalidInputError(f"gradient shape mismatch for {name!r}")
        decays = name.endswith(".w") and not name.startswith("field.")
        if weight_decay and decays:
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
    partners = {}
    for local, sample in enumerate(batch):
        if sample.annotation is None:
            continue
        for k in sample.annotation.classes:
            candidates = [
                m for m, other in enumerate(batch)
                if m != local
                and other.annotation is not None
                and k in other.annotation.classes
            ]
            if candidates:
                partners[(local, k)] = candidates[int(pair_rng.integers(len(candidates)))]
    return batch, PairingPlan(partners)


def history_to_csv(history) -> str:
    lines = [",".join(HISTORY_COLUMNS)]
    for row in history:
        lines.append(",".join(
            str(int(row[0])) if i == 0 else repr(float(row[i]))
            for i in range(len(HISTORY_COLUMNS))
        ))
    return "\n".join(lines) + "\n"


def train_loop(samples, config: TrainConfig, checkpoint_dir=None) -> TrainState:
    """Run the configured number of iterations over annotated samples.

    Returns the final TrainState; when checkpoint_dir is given, writes
    checkpoint_final.bin plus checkpoint_NNNNNN.bin at the configured
    cadence. Raises a divergence error naming the offending batch when the
    loss stops being finite.
    """
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
        spec = ModelSpec("logit-field", K, H, W,
                         image_ids=tuple(s.id for s in samples))
    else:
        spec = ModelSpec("conv-ed", K, H, W, channels=config.channels)
    params = init_params(spec, config.seed)
    state = TrainState(0, params)
    settings = config.loss_settings()

    for it in range(config.total_iterations):
        batch, plan = assemble_batch(samples, it, config.seed, config.batch_size)
        if config.augment:
            batch = [augment_sample(s, config.seed, it) for s in batch]
        lr = poly_lr(config.lr0, it, config.total_iterations, config.power)

        # Inputs were validated before the loop, so an overflow, an invalid
        # operation or an invalid-input failure inside the step means the
        # activations or gradients left the finite range.
        ids = ", ".join(s.id for s in batch)
        try:
            with np.errstate(over="raise", invalid="raise"):
                fields, caches = [], []
                for s in batch:
                    lf, cache = forward(params, spec, s.image, s.id)
                    fields.append(lf)
                    caches.append(cache)
                breakdown = total_loss(
                    config.mode,
                    [s.image for s in batch],
                    fields,
                    [s.annotation for s in batch],
                    plan,
                    settings,
                )
                if not math.isfinite(breakdown.total):
                    raise TrainingDivergenceError(
                        f"non-finite loss at iteration {it} on batch [{ids}]"
                    )
                grads = {}
                for cache, g in zip(caches, breakdown.grad_wrt_logits):
                    for name, arr in backward(params, spec, cache, g).items():
                        if name in grads:
                            grads[name] += arr
                        else:
                            grads[name] = arr.copy()
        except (InvalidInputError, FloatingPointError) as exc:
            raise TrainingDivergenceError(
                f"non-finite values at iteration {it} on batch [{ids}]: {exc}"
            ) from exc
        sgd_step(params, grads, lr, config.momentum, config.weight_decay)

        state.iteration = it + 1
        state.history.append((
            it, lr, breakdown.pce, breakdown.ms_data,
            breakdown.cv_contrastive, breakdown.tv, breakdown.total,
        ))
        if (checkpoint_dir is not None and config.checkpoint_every
                and (it + 1) % config.checkpoint_every == 0):
            save_checkpoint(
                os.path.join(checkpoint_dir, f"checkpoint_{it + 1:06d}.bin"), params
            )

    if checkpoint_dir is not None:
        save_checkpoint(os.path.join(checkpoint_dir, "checkpoint_final.bin"), params)
    return state
