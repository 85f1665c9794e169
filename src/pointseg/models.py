"""Segmentation models mapping images to logit fields, with exact backward passes.

Two kinds share one interface:

* ``logit-field``: a free (K, H, W) logit grid per training image, updated
  directly by the optimizer. The image content is ignored; backward is the
  identity. This isolates the loss landscape from model capacity.
* ``conv-ed``: a fixed two-level convolutional encoder-decoder,
  conv3x3 + ReLU -> conv3x3 + ReLU -> maxpool2x2 -> conv3x3 + ReLU ->
  nearest-neighbor upsample x2 -> channel concat with the pre-pool
  activation -> conv3x3 + ReLU -> conv1x1 to K logits. All 3x3 convolutions
  use zero padding, so the output is exactly (K, H, W). `CONV_ED_LAYERS` holds
  this wiring; `walk_layers` runs it, on complex values too (gradcheck's oracle).

Checkpoints are a flat binary format: the magic string ``PSCV1``, then for
each entry a little-endian u32 name length, the UTF-8 name, a u32 rank,
rank u32 dims, and the raw float64 little-endian values. Parameters come
first in sorted name order, then momentum buffers under ``momentum:<name>``.
Writes go to a temp file in the same directory and are renamed into place.
"""

from __future__ import annotations

import numbers
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import IngestError, InvalidConfigError, InvalidInputError
from .grids import Image, LogitField
from .seeding import keyed_rng

CHECKPOINT_MAGIC = b"PSCV1"
MOMENTUM_PREFIX = "momentum:"
DEFAULT_CHANNELS = (16, 16, 32, 16)

KINDS = ("logit-field", "conv-ed")


def _checked_channels(channels) -> tuple:
    """conv-ed's four positive widths as ints; a float or bool is rejected, not truncated."""
    ch = tuple(channels)
    if len(ch) != 4 or any(isinstance(c, bool) or not isinstance(c, numbers.Integral) or c < 1
                           for c in ch):
        raise InvalidConfigError(f"channels must be 4 positive integers for conv-ed, got {channels}")
    return tuple(int(c) for c in ch)


@dataclass(frozen=True)
class ModelSpec:
    """Shape-level description of a model; enough to allocate its parameters."""

    kind: str
    num_classes: int
    height: int
    width: int
    channels: tuple = DEFAULT_CHANNELS  # conv-ed widths (c1, c2, c3, c4)
    image_ids: tuple = ()               # logit-field owners

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfigError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.num_classes < 2:
            raise InvalidConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.height < 1 or self.width < 1:
            raise InvalidConfigError(f"bad spatial shape {self.height}x{self.width}")
        if self.kind == "conv-ed":
            if self.height % 2 or self.width % 2:
                raise InvalidConfigError(
                    f"conv-ed needs even height and width, got {self.height}x{self.width}"
                )
            object.__setattr__(self, "channels", _checked_channels(self.channels))
        else:
            ids = tuple(str(i) for i in self.image_ids)
            if not ids or len(set(ids)) != len(ids):
                raise InvalidConfigError("logit-field needs a non-empty set of unique image ids")
            object.__setattr__(self, "image_ids", ids)


@dataclass
class ModelParams:
    """Named parameter arrays plus same-shaped optimizer momentum buffers."""

    spec: ModelSpec
    values: dict
    momentum: dict

    def __post_init__(self):
        if sorted(self.values) != sorted(self.momentum):
            raise InvalidInputError("parameter and momentum names disagree")
        for name, v in self.values.items():
            if self.momentum[name].shape != v.shape:
                raise InvalidInputError(f"momentum shape mismatch for {name!r}")


def _conv_shapes(spec: ModelSpec) -> dict:
    c1, c2, c3, c4 = spec.channels
    K = spec.num_classes
    return {
        "enc1.w": (c1, 1, 3, 3), "enc1.b": (c1,),
        "enc2.w": (c2, c1, 3, 3), "enc2.b": (c2,),
        "enc3.w": (c3, c2, 3, 3), "enc3.b": (c3,),
        "dec1.w": (c4, c2 + c3, 3, 3), "dec1.b": (c4,),
        "head.w": (K, c4, 1, 1), "head.b": (K,),
    }


def init_params(spec: ModelSpec, seed: int) -> ModelParams:
    """Fresh parameters: kernels uniform(-b, b) with b = sqrt(6 / fan_in),
    biases zero, logit fields zero (so softmax starts uniform)."""
    values = {}
    if spec.kind == "logit-field":
        for image_id in spec.image_ids:
            values[f"field.{image_id}"] = np.zeros(
                (spec.num_classes, spec.height, spec.width)
            )
    else:
        for name, shape in _conv_shapes(spec).items():
            if name.endswith(".w"):
                fan_in = int(np.prod(shape[1:]))
                bound = np.sqrt(6.0 / fan_in)
                rng = keyed_rng(seed, "init", name)
                values[name] = rng.uniform(-bound, bound, size=shape)
            else:
                values[name] = np.zeros(shape)
    momentum = {name: np.zeros_like(v) for name, v in values.items()}
    return ModelParams(spec, values, momentum)


def _pad_flat(x, ph, pw):
    """x (C, H, W) zero-padded by (ph, pw) into a flat (C, Hp*Wp + 2*pw) buffer.

    Tap (i, j)'s window is the H*Wp columns from i*Wp + j on, a strided matrix
    BLAS reads with no copy; the 2*pw trailing zeros keep the last in bounds.
    """
    C, H, W = x.shape
    if not (ph or pw):
        return x.reshape(C, H * W)
    Hp, Wp = H + 2 * ph, W + 2 * pw
    xf = np.zeros((C, Hp * Wp + 2 * pw), dtype=x.dtype)
    xf[:, : Hp * Wp].reshape(C, Hp, Wp)[:, ph : ph + H, pw : pw + W] = x
    return xf


def _conv2d(x, w, b=None):
    """Zero-padded 2-d convolution, x (Cin, H, W) -> (Cout, H, W); every input
    gradient is one too (see _conv2d_backward), so the narrower side is chosen here.
    Without a bias b the sums start from zeros.

    Output rows are Wp wide until the pad columns are dropped. With
    1 < Cout < Cin one matmul maps the flat input to each tap's Cout-channel
    plane and the shifted planes are added. Otherwise each tap's kernel slice
    multiplies its flat window, through np.dot when Cin == 1 (matmul does that
    outer product without BLAS). Each kept element gets the dots of one
    tensordot per tap on a copied window, added onto the bias in row-major tap
    order: the same bits (a single output row, stacked, would go to gemv).
    """
    cout, cin, kh, kw = w.shape
    H, W = x.shape[1:]
    ph, pw = kh // 2, kw // 2
    Wp = W + 2 * pw
    xf = _pad_flat(x, ph, pw)
    out = (np.zeros((cout, H * Wp), dtype=x.dtype) if b is None
           else np.broadcast_to(b[:, None], (cout, H * Wp)).copy())
    stacked = 1 < cout < cin
    if stacked:
        planes = (w.transpose(2, 3, 0, 1).reshape(-1, cin) @ xf).reshape(kh, kw, cout, -1)
    mul = np.dot if cin == 1 else np.matmul
    for i in range(kh):
        for j in range(kw):
            s = i * Wp + j
            if stacked:
                out += planes[i, j, :, s : s + H * Wp]
            else:
                out += mul(w[:, :, i, j], xf[:, s : s + H * Wp])
    return out.reshape(cout, H, Wp)[:, :, :W]


def _conv2d_backward(x, w, grad_out, need_input=True):
    """Gradients of a zero-padded convolution w.r.t. input, kernel and bias.

    With need_input=False the input gradient is None. The kernel gradient
    pads the input once, channels last; each tap's window reshapes into the
    (H*W, Cin) operand a per-tap tensordot builds (for an unpadded input, the
    same transposed view), so each tap is that tensordot's matmul. The input
    gradient is _conv2d of grad_out turned 180 degrees with the transposed
    kernel, turned back: turning the data, not the kernel, keeps the
    row-major tap order and so the bits. A 1x1 kernel needs no turn.
    """
    cout, cin, kh, kw = w.shape
    H, W = x.shape[1:]
    ph, pw = kh // 2, kw // 2
    xl = x.transpose(1, 2, 0)
    if ph or pw:
        xl = np.zeros((H + 2 * ph, W + 2 * pw, cin))
        xl[ph : ph + H, pw : pw + W] = x.transpose(1, 2, 0)
    g2 = np.ascontiguousarray(grad_out).reshape(cout, H * W)
    grad_w = np.empty_like(w)
    for i in range(kh):
        for j in range(kw):
            grad_w[:, :, i, j] = np.dot(g2, xl[i : i + H, j : j + W].reshape(H * W, cin))
    grad_b = grad_out.sum(axis=(1, 2))
    if not need_input:
        return None, grad_w, grad_b
    t = -1 if kh * kw > 1 else 1  # the 180-degree turn; a 1x1 kernel skips it
    grad_x = _conv2d(grad_out[:, ::t, ::t], w.transpose(1, 0, 2, 3))
    return grad_x[:, ::t, ::t], grad_w, grad_b


def _taps2(x):
    """The four strided (C, H/2, W/2) taps of 2x2 windows, in row-major window order."""
    return x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]


def _relu(z):
    """max(z, 0) by the real part: np.maximum on float64, but a complex z with
    real part 0 maps to 0 (np.maximum would keep it), as backward's mask a > 0 does."""
    if np.iscomplexobj(z):
        return np.where(z.real > 0, z, 0)
    return np.maximum(z, 0.0)


def _maxpool2(x):
    """2x2 max pooling by the real part; ties go to the first position in
    row-major window order."""
    taps = _taps2(x)
    out = taps[0]
    idx = np.zeros(out.shape, dtype=np.intp)
    for t in range(1, 4):
        better = taps[t].real > out.real
        out = np.where(better, taps[t], out)
        idx = np.where(better, t, idx)
    return out, idx


def _maxpool2_backward(idx, grad_out, shape):
    grad = np.empty(shape)
    for t, tap in enumerate(_taps2(grad)):
        tap[...] = np.where(idx == t, grad_out, 0.0)
    return grad


def _upsample2(x):
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def _upsample2_backward(grad_out):
    # The taps add in the order a reshape-sum over the window axes uses: in
    # turn when each row holds one window, else row pair plus row pair. Its
    # zero start is the +0.0 added last: a zero sum is never -0.0.
    g00, g01, g10, g11 = _taps2(grad_out)
    out = g00 + g01
    if grad_out.shape[2] == 2:
        out += g10
        out += g11
    else:
        out += g10 + g11
    out += 0.0
    return out


def _pool(acts):
    acts["pooled"], acts["idx"] = _maxpool2(acts["enc2"])
    return acts["pooled"]


def _skip_concat(acts):
    acts["cat"] = np.concatenate([acts["enc2"], _upsample2(acts["enc3"])], axis=0)
    return acts["cat"]


# conv-ed's layers in order, each with its input built from the activations
# before it ("x" is the image, a layer's name its output after the ReLU). The
# builders of enc3's pooled and dec1's skip-concat inputs keep them for backward.
CONV_ED_LAYERS = {
    "enc1": lambda acts: acts["x"],
    "enc2": lambda acts: acts["enc1"],
    "enc3": _pool,
    "dec1": _skip_concat,
    "head": lambda acts: acts["dec1"],
}


def walk_layers(values, acts, start="enc1"):
    """Run conv-ed from layer `start` on. acts holds the image ("x") and, for a
    later start, what the layers before it made from these values; the result
    is a copy with the remaining layers added ("head" holds the logits), so one
    walk's activations serve every walk that starts at a later layer."""
    acts = dict(acts)
    names = list(CONV_ED_LAYERS)
    for name in names[names.index(start):]:
        # The pre-activation is replaced, not kept, so it is freed before the
        # next layer allocates.
        acts[name] = _conv2d(CONV_ED_LAYERS[name](acts), values[f"{name}.w"], values[f"{name}.b"])
        if name != "head":
            acts[name] = _relu(acts[name])
    return acts


def forward(params: ModelParams, spec: ModelSpec, image: Image, image_id=None):
    """Predict logits for one image; returns (LogitField, cache for backward)."""
    if image.intensities.shape != (spec.height, spec.width):
        raise InvalidInputError(
            f"image shape {image.intensities.shape} does not match spec "
            f"{spec.height}x{spec.width}"
        )
    if spec.kind == "logit-field":
        name = f"field.{image_id}"
        if name not in params.values:
            raise InvalidInputError(f"no logit field for image id {image_id!r}")
        return LogitField(params.values[name].copy()), {"kind": spec.kind, "name": name}

    acts = walk_layers(params.values, {"kind": spec.kind, "x": image.intensities[None, :, :]})
    return LogitField(acts.pop("head")), acts


def backward(params: ModelParams, spec: ModelSpec, cache: dict, grad_wrt_logits: np.ndarray) -> dict:
    """Pull a logit gradient back to parameter gradients for one image."""
    if not isinstance(cache, dict) or cache.get("kind") != spec.kind:
        raise InvalidInputError("cache does not come from a matching forward pass")
    g = np.asarray(grad_wrt_logits, dtype=np.float64)
    if g.shape != (spec.num_classes, spec.height, spec.width):
        raise InvalidInputError(f"logit gradient shape {g.shape} does not match spec")

    if spec.kind == "logit-field":
        return {cache["name"]: g.copy()}

    grads = {}

    def back(name, x, grad_out, need_input=True):
        """Layer `name`'s input gradient; its kernel and bias gradients go to grads."""
        grad_x, grads[f"{name}.w"], grads[f"{name}.b"] = _conv2d_backward(
            x, params.values[f"{name}.w"], grad_out, need_input)
        return grad_x

    c2 = spec.channels[1]
    # Masks apply in place (g * mask's -0.0 kept), except on enc2's strided crop.
    grad_a4 = back("head", cache["dec1"], g)
    grad_a4 *= cache["dec1"] > 0
    grad_cat = back("dec1", cache["cat"], grad_a4)
    grad_a3 = _upsample2_backward(grad_cat[c2:])
    grad_a3 *= cache["enc3"] > 0
    grad_pooled = back("enc3", cache["pooled"], grad_a3)
    grad_a2 = grad_cat[:c2] + _maxpool2_backward(cache["idx"], grad_pooled, cache["enc2"].shape)
    grad_a2 *= cache["enc2"] > 0
    grad_a1 = back("enc2", cache["enc1"], grad_a2)
    back("enc1", cache["x"], grad_a1 * (cache["enc1"] > 0), need_input=False)
    return grads


def save_checkpoint(path, params: ModelParams) -> None:
    """Serialize parameters then momentum to the PSCV1 flat binary, atomically."""
    buf = bytearray(CHECKPOINT_MAGIC)
    entries = [(name, params.values[name]) for name in sorted(params.values)]
    entries += [
        (MOMENTUM_PREFIX + name, params.momentum[name]) for name in sorted(params.momentum)
    ]
    for name, arr in entries:
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += struct.pack("<I", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(buf)
    os.replace(tmp, path)


def _read_entries(path):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IngestError(f"{path}: {exc.strerror or exc}") from exc
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise IngestError(f"{path}: not a PSCV1 checkpoint")
    offset = len(CHECKPOINT_MAGIC)
    entries = {}
    try:
        while offset < len(blob):
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            count = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            offset += 8 * count
            if not np.all(np.isfinite(arr)):
                raise IngestError(f"{path}: entry {name!r} holds NaN or Inf")
            entries[name] = arr.reshape(dims).astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise IngestError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    if offset != len(blob):
        raise IngestError(f"{path}: trailing bytes after last checkpoint entry")
    return entries


def load_checkpoint(path, height=None, width=None) -> ModelParams:
    """Rebuild ModelParams from a PSCV1 file.

    The model kind, class count and channel widths are recovered from the
    entry names and shapes. conv-ed checkpoints do not record the image size,
    so callers supply height and width (from the dataset they evaluate on).
    """
    entries = _read_entries(path)
    values = {n: a for n, a in entries.items() if not n.startswith(MOMENTUM_PREFIX)}
    momentum = {
        n[len(MOMENTUM_PREFIX):]: a for n, a in entries.items() if n.startswith(MOMENTUM_PREFIX)
    }
    if not values:
        raise IngestError(f"{path}: checkpoint holds no parameters")
    if sorted(values) != sorted(momentum):
        raise IngestError(f"{path}: parameter and momentum entries disagree")

    field_names = sorted(n for n in values if n.startswith("field."))
    if field_names:
        if len(field_names) != len(values):
            raise IngestError(f"{path}: mixes logit fields with other parameters")
        shape = values[field_names[0]].shape
        for name in field_names:
            if len(shape) != 3 or values[name].shape != shape:
                raise IngestError(f"{path}: logit field {name!r} has shape "
                                  f"{values[name].shape}, not one (K, H, W) shared by all")
        K, H, W = shape
        ids = tuple(n[len("field."):] for n in field_names)
        spec = ModelSpec("logit-field", K, H, W, image_ids=ids)
    else:
        try:
            *channels, K = (values[f"{name}.w"].shape[0] for name in CONV_ED_LAYERS)
        except KeyError as exc:
            raise IngestError(f"{path}: missing conv-ed parameter {exc}") from exc
        if height is None or width is None:
            raise InvalidInputError(
                f"{path}: conv-ed checkpoint needs an image size to load against")
        spec = ModelSpec("conv-ed", K, height, width, channels=channels)
        expected = _conv_shapes(spec)
        for name, shape in expected.items():
            if name not in values or values[name].shape != shape:
                raise IngestError(f"{path}: parameter {name!r} missing or mis-shaped")
    return ModelParams(spec, values, momentum)
