"""Dense-grid foundation: validated float64 grids, the softmax head, and a
finite-difference gradient oracle.

Every tensor in this package is a plain C-contiguous float64 ndarray ("grid").
The thin dataclasses below tag the three shapes that cross module boundaries:
a single-channel image in [0,1], a [K,H,W] logit field, and the per-pixel
probability simplex produced by :func:`softmax`.

The constructors validate what enters from outside; values the package derives
from validated ones (softmax output, augmented samples) skip the checks through
:func:`_trusted`. Per training image only forward's LogitField is checked, as
``pointseg eval`` runs forward outside ``np.errstate``. Inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

SIMPLEX_ATOL = 1e-9  # per-pixel probability sums must match 1 this closely
FD_STEP = 1e-5       # central-difference step of finite_diff_grad
PROBE_CHUNK_BYTES = 32 * 1024  # caps the probe stack a value step gets per call, in both oracles


def as_grid(values) -> np.ndarray:
    """Coerce `values` to a float64 array, checking finiteness."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("grid contains NaN or Inf")
    return arr


def _trusted(cls, *values):
    """Frozen dataclass `cls` built from validated field values without ``__post_init__``;
    the names come from ``cls.__dataclass_fields__``, not a ``fields()`` call per object."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Image:
    """Single-channel intensity grid with every value in [0, 1]."""

    intensities: np.ndarray  # (H, W) float64

    def __post_init__(self):
        arr = as_grid(self.intensities)
        if arr.ndim != 2:
            raise InvalidInputError(f"image must be 2-D, got shape {arr.shape}")
        if arr.min(initial=0.0) < 0.0 or arr.max(initial=0.0) > 1.0:
            raise InvalidInputError("image intensities must lie in [0, 1]")
        object.__setattr__(self, "intensities", arr)


@dataclass(frozen=True)
class LogitField:
    """Unconstrained pre-softmax scores, one [H, W] plane per class."""

    logits: np.ndarray  # (K, H, W) float64

    def __post_init__(self):
        arr = as_grid(self.logits)
        if arr.ndim != 3:
            raise InvalidInputError(f"logits must be [K, H, W], got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise InvalidInputError("logit field needs at least 2 classes")
        object.__setattr__(self, "logits", arr)


@dataclass(frozen=True)
class SoftPrediction:
    """Per-pixel probability simplex over K classes."""

    probabilities: np.ndarray  # (K, H, W) float64

    def __post_init__(self):
        arr = as_grid(self.probabilities)
        if arr.ndim != 3:
            raise InvalidInputError(f"probabilities must be [K, H, W], got shape {arr.shape}")
        if arr.min() < -SIMPLEX_ATOL or arr.max() > 1.0 + SIMPLEX_ATOL:
            raise InvalidInputError("probabilities must lie in [0, 1]")
        sums = arr.sum(axis=0)
        if np.abs(sums - 1.0).max() > SIMPLEX_ATOL:
            raise InvalidInputError("per-pixel probabilities must sum to 1")
        object.__setattr__(self, "probabilities", arr)

    @property
    def num_classes(self) -> int:
        return self.probabilities.shape[-3]

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.probabilities.shape[-2], self.probabilities.shape[-1]


def softmax(field: LogitField) -> SoftPrediction:
    """Class-wise softmax over the class axis, stabilized per pixel.

    The per-pixel maximum logit is subtracted before exponentiation, so the
    result is exact up to rounding for logit magnitudes far beyond float64's
    naive exp range. Finite logits give exps in [0, 1], one of them 1 per pixel.
    The class axis is the third from last, so a stack of (K, H, W) fields (a
    trusted one) gives each field's bits.
    """
    logits = field.logits
    e = logits - logits.max(axis=-3, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-3, keepdims=True)
    return _trusted(SoftPrediction, e)


def softmax_backward(pred: SoftPrediction, grad_wrt_probs: np.ndarray, out=None) -> np.ndarray:
    """Pull a gradient w.r.t. softmax probabilities back to the logits.

    `pred` is the :func:`softmax` output of the forward pass. Applies the
    per-pixel softmax Jacobian: with p the probability column at a pixel and
    g the incoming gradient, d/dlogits = p * (g - <g, p>). g is not NaN-scanned.
    The result goes into `out`, a float64 array of g's shape that may be g
    itself, or into a new array when `out` is None; either is returned.
    """
    g = np.asarray(grad_wrt_probs, dtype=np.float64)
    p = pred.probabilities
    if g.shape != p.shape:
        raise InvalidInputError(f"gradient shape {g.shape} != probabilities shape {p.shape}")
    inner = (g * p).sum(axis=-3, keepdims=True)
    out = np.subtract(g, inner, out=out)
    return np.multiply(p, out, out=out)


def finite_diff_grad(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function of a grid.

    Coordinate i's quotient is (f(x + h e_i) - f(x + h e_i - 2h e_i)) / 2h,
    with h = FD_STEP. `f` takes a stack of probes, shape (m, *x.shape), and
    returns their m values. The probes come in pairs, in coordinate order:
    x with x_i moved to x_i + h, then that probe with x_i moved again by -2h,
    i.e. (x_i + h) - 2h. Each call gets as many whole pairs as fit in
    PROBE_CHUNK_BYTES (one pair at least). A chunk's stack is one new array
    filled from x, its moved coordinates then written through two strided
    slices of its flat view. `x` is not modified. This is the
    reference oracle every analytic backward pass in the package is checked
    against; it deliberately knows nothing about the function. A non-finite
    value passes through.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    size = flat.size
    grad = np.empty(size)
    pairs = max(1, PROBE_CHUNK_BYTES // (2 * max(x.nbytes, 1)))
    for start in range(0, size, pairs):
        stop = min(start + pairs, size)
        stack = np.empty((stop - start, 2, size))
        stack[...] = flat
        # Probe (j, 0)'s coordinate start + j sits start + j * (2 size + 1) into
        # the flat stack, probe (j, 1)'s one size further on.
        moved = stack.reshape(-1)
        up = flat[start:stop] + FD_STEP
        moved[start :: 2 * size + 1] = up
        moved[start + size :: 2 * size + 1] = up - 2.0 * FD_STEP
        values = np.asarray(f(stack.reshape(-1, *x.shape)), dtype=np.float64)
        hi, lo = values.reshape(stop - start, 2).T
        grad[start:stop] = (hi - lo) / (2.0 * FD_STEP)
    return grad.reshape(x.shape)
