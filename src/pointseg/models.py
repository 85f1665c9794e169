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
  this wiring, input builders beside adjoints, and both directions read it:
  `walk_layers` forward, on complex values too (gradcheck's oracle), and
  `backward` in reverse; both write dec1's skip concat into its padded operand.

Checkpoints are a flat binary format: the magic string ``PSCV1``, then for
each entry a little-endian u32 name length, the UTF-8 name, a u32 rank,
rank u32 dims, and the raw float64 little-endian values. Parameters come
first in sorted name order, then momentum buffers under ``momentum:<name>``:
a checkpoint holds exactly the entries of its spec's parameter table
(`_param_shapes`), each with its momentum twin, and no name twice.
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
from .losses import check_domains, domain
from .seeding import keyed_rng

CHECKPOINT_MAGIC = b"PSCV1"
MOMENTUM_PREFIX = "momentum:"
DEFAULT_CHANNELS = (16, 16, 32, 16)
# The per-tap convolution's blocks take as many output channels as keep one
# tap's (rows, H*Wp) product within this many bytes, so it and its block stay
# in L2: 8 rows on a 64x64 image, all 32 of enc3's on its 32x32 grid.
TAP_PRODUCT_BYTES = 270 * 1024

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

    kind: str = domain(choices=KINDS)
    num_classes: int = domain(interval="[2, inf)")
    height: int = domain(interval="[1, inf)")
    width: int = domain(interval="[1, inf)")
    channels: tuple = domain(DEFAULT_CHANNELS, "[1, inf)")  # conv-ed widths (c1, c2, c3, c4)
    image_ids: tuple = domain(())                            # logit-field owners

    def __post_init__(self):
        check_domains(self)
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
    """Named parameter arrays plus same-shaped optimizer momentum buffers, as
    init_params builds them and load_checkpoint checks them."""

    spec: ModelSpec
    values: dict
    momentum: dict


def _param_shapes(spec: ModelSpec) -> dict:
    """The model's parameter names and shapes, for init_params and load_checkpoint alike."""
    K = spec.num_classes
    if spec.kind == "logit-field":
        return {f"field.{image_id}": (K, spec.height, spec.width) for image_id in spec.image_ids}
    c1, c2, c3, c4 = spec.channels
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
    for name, shape in _param_shapes(spec).items():
        if len(shape) == 4:  # a kernel
            bound = np.sqrt(6.0 / int(np.prod(shape[1:])))
            values[name] = keyed_rng(seed, "init", name).uniform(-bound, bound, size=shape)
        else:
            values[name] = np.zeros(shape)
    momentum = {name: np.zeros_like(v) for name, v in values.items()}
    return ModelParams(spec, values, momentum)


def _padded(shape, dtype, ph=1, pw=1, xf=None):
    """The (..., C, H, W) interior of xf, or of a new zeroed buffer, as _pad_flat
    pads an input of `shape`: an input written there is read in place."""
    *lead, C, H, W = shape
    Hp, Wp = H + 2 * ph, W + 2 * pw
    xf = np.zeros((*lead, C, Hp * Wp + 2 * pw), dtype) if xf is None else xf
    return xf[..., : Hp * Wp].reshape(*lead, C, Hp, Wp)[..., ph : ph + H, pw : pw + W]


def _pad_flat(x, ph, pw):
    """x (..., C, H, W) zero-padded by (ph, pw) into a flat (..., C, Hp*Wp + 2*pw)
    buffer, any leading probe axes kept. An x that is the interior view of
    such a buffer (from _padded) gives that buffer back, with no copy.

    Tap (i, j)'s window is the H*Wp columns from i*Wp + j on, a strided matrix
    BLAS reads with no copy; the 2*pw trailing zeros keep the last in bounds.
    """
    *lead, C, H, W = x.shape
    if not (ph or pw):
        return x.reshape(*lead, C, H * W)
    xf = x.base
    if isinstance(xf, np.ndarray) and xf.shape == (*lead, C, (H + 2 * ph) * (W + 2 * pw) + 2 * pw):
        inner = _padded(x.shape, x.dtype, ph, pw, xf)
        if (inner.dtype, inner.strides, inner.ctypes.data) == (x.dtype, x.strides, x.ctypes.data):
            return xf
    np.copyto(inner := _padded(x.shape, x.dtype, ph, pw), x)
    return inner.base


def _conv2d(x, w, b=None):
    """Zero-padded 2-d convolution, x (..., Cin, H, W) -> (..., Cout, H, W); every input
    gradient is one too (see _conv2d_backward), so the narrower side is chosen here.
    Without a bias b the sums start from zeros.

    Leading probe axes on x, w (..., Cout, Cin, kh, kw) and b (..., Cout)
    broadcast: each probe's slice gets the bits of its own call, since a
    stacked matmul makes, slice by slice, the BLAS call an unstacked one makes.

    The input is padded into one flat buffer (or read in place, see _padded),
    where each tap's window is a strided view; output rows are Wp wide until
    the pad columns are dropped.
    With 1 < Cout < Cin one matmul maps the input to each tap's Cout-channel
    plane and the shifted planes are added (a single output row, stacked,
    would go to gemv). Otherwise the output is built in blocks of channels
    sized by TAP_PRODUCT_BYTES, adding each tap's kernel rows times its
    window in turn, so the product and its block stay in cache. With
    Cin == 1 that product is a broadcast multiply: one rounding per element,
    as BLAS's outer product (matmul would do it without BLAS). Either way
    each element gets one dot per tap, the same in any block, added onto the
    bias in row-major tap order: the bits of one tensordot per tap over the
    whole kernel.
    """
    cout, cin, kh, kw = w.shape[-4:]
    H, W = x.shape[-2:]
    lead = x.shape[:-3]
    if w.ndim > 4 or b is not None and b.ndim > 1:  # only a stacked w or b needs the broadcast
        lead = np.broadcast_shapes(lead, w.shape[:-4], np.shape(b)[:-1])
    ph, pw = kh // 2, kw // 2
    Wp = W + 2 * pw
    N = H * Wp
    xf = _pad_flat(x, ph, pw)
    out = np.empty((*lead, cout, N), dtype=x.dtype if b is None else b.dtype)
    out[:] = 0.0 if b is None else b[..., None]
    taps = [(i, j, i * Wp + j) for i in range(kh) for j in range(kw)]
    if 1 < cout < cin:
        planes = w.transpose(*range(w.ndim - 4), -2, -1, -4, -3).reshape(*w.shape[:-4], -1, cin) @ xf
        planes = planes.reshape(*planes.shape[:-2], kh, kw, cout, -1)
        for i, j, s in taps:
            out += planes[..., i, j, :, s : s + N]
    else:
        # No block holds a lone row unless Cout == 1: matmul sends one row to
        # gemv, whose sums can differ from gemm's in the last bit.
        rows = max(2, TAP_PRODUCT_BYTES // (N * out.itemsize))
        ends = [*range(rows, cout - 1, rows), cout]
        for c0, c1 in zip([0] + ends[:-1], ends):
            block, wb = out[..., c0:c1, :], w[..., c0:c1, :, :, :]
            for i, j, s in taps:
                if cin == 1:
                    block += wb[..., i, j] * xf[..., s : s + N]
                else:
                    block += wb[..., i, j] @ xf[..., s : s + N]
    return out.reshape(*lead, cout, H, Wp)[..., :W]


def _conv2d_backward(x, w, grad_out, need_input=True):
    """Gradients of a zero-padded convolution w.r.t. input, kernel and bias.

    With need_input=False the input gradient is None. The kernel gradient
    pads the input once, channels last, and copies it once per kernel
    column; each tap's (H*W, Cin) operand is then a contiguous view of that
    copy, the matrix a per-tap tensordot would copy out, so each tap is that
    tensordot's matmul. A 1x1 kernel keeps the unpadded input's transposed
    view, as the tensordot does: a copied operand there would send BLAS down
    its other transpose path and change the bits. The input gradient is
    _conv2d of grad_out turned 180 degrees with the transposed kernel, turned
    back: turning the data, not the kernel, keeps the row-major tap order and
    so the bits. A 1x1 kernel needs no turn.

    With a kernel wider than 1x1, x may also be a function that writes the
    input into the (Cin, H, W) view it is given, the padded copy's interior,
    so an input built for this call alone needs no buffer of its own. Each
    copy is freed once read, before the next allocation.
    """
    cout, cin, kh, kw = w.shape
    H, W = grad_out.shape[1:]
    ph, pw = kh // 2, kw // 2
    if ph or pw:
        xl = np.zeros((H + 2 * ph, W + 2 * pw, cin))
        write = x if callable(x) else lambda inner: np.copyto(inner, x)
        write(xl[ph : ph + H, pw : pw + W].transpose(2, 0, 1))
    else:
        xl = x.transpose(1, 2, 0)
    g2 = np.ascontiguousarray(grad_out).reshape(cout, H * W)
    grad_w = np.empty_like(w)
    for j in range(kw):
        xs = xl[:, j : j + W].copy() if pw else xl
        for i in range(kh):
            grad_w[:, :, i, j] = np.dot(g2, xs[i : i + H].reshape(H * W, cin))
        del xs  # each column copy is freed before the next is made
    del xl  # and the padded copy before the input gradient is built
    grad_b = grad_out.sum(axis=(1, 2))
    if not need_input:
        return None, grad_w, grad_b
    t = -1 if kh * kw > 1 else 1  # the 180-degree turn; a 1x1 kernel skips it
    grad_x = _conv2d(grad_out[:, ::t, ::t], w.transpose(1, 0, 2, 3))
    return grad_x[:, ::t, ::t], grad_w, grad_b


def _taps2(x):
    """The four strided (..., C, H/2, W/2) taps of 2x2 windows, in row-major window order."""
    return x[..., 0::2, 0::2], x[..., 0::2, 1::2], x[..., 1::2, 0::2], x[..., 1::2, 1::2]


def _relu(z, out=None):
    """max(z, 0) by the real part: np.maximum on float64, into out (any strided
    view) when given; a complex z takes no out, and real part 0 maps to 0
    (np.maximum would keep it), as _relu_backward's mask a > 0 does."""
    if np.iscomplexobj(z):
        return np.where(z.real > 0, z, 0)
    return np.maximum(z, 0.0, out=out)


def _relu_backward(a, grad):
    """ReLU's gradient rule, from its output a: grad where a > 0, else 0."""
    return grad * (a > 0)


def _maxpool2(x):
    """2x2 max pooling by the real part; ties go to the first position in
    row-major window order."""
    taps = _taps2(x)
    out = taps[0]
    idx = np.zeros(out.shape, dtype=np.uint8)  # the window position, 0-3
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


def _upsample2(x, out=None):
    """Nearest-neighbor x2 upsampling of x (..., C, h, w), written into out
    (..., C, 2h, 2w), any strided view, when given."""
    *lead, h, w = x.shape
    if out is None:
        out = np.empty((*lead, 2 * h, 2 * w), dtype=x.dtype)
    for tap in _taps2(out):
        tap[...] = x
    return out


def _upsample2_backward(grad_out):
    # The taps add in the order a reshape-sum over the window axes uses: in
    # turn when each row holds one window, else row pair plus row pair. Its
    # zero start is the +0.0 added last: a zero sum is never -0.0.
    g00, g01, g10, g11 = _taps2(grad_out)
    out = g00 + g01
    if grad_out.shape[-1] == 2:
        out += g10
        out += g11
    else:
        out += g10 + g11
    out += 0.0
    return out


def _pool(acts):
    acts["pooled"], acts["idx"] = _maxpool2(acts["enc2"])
    return acts["pooled"]


def _skip_concat(acts, out=None):
    """enc2 and the upsampled enc3 written into out (..., C, H, W), any strided
    view, with no temporaries; by default into the interior of dec1's padded
    operand (see _padded), their leading probe axes broadcast."""
    a2, a3 = acts["enc2"], acts["enc3"]
    c2 = a2.shape[-3]
    if out is None:
        lead = np.broadcast_shapes(a2.shape[:-3], a3.shape[:-3])
        out = _padded((*lead, c2 + a3.shape[-3], *a2.shape[-2:]), np.result_type(a2, a3))
    out[..., :c2, :, :] = a2
    _upsample2(a3, out=out[..., c2:, :, :])
    return out


# conv-ed's layers in order, each as (builder, adjoint): the builder makes its
# input from the activations before it ("x" is the image, a layer's name its
# output after the ReLU; enc3's also keeps "pooled" and "idx"), the adjoint
# takes that input's gradient to their shares.
CONV_ED_LAYERS = {
    "enc1": (lambda acts: acts["x"], None),
    "enc2": (lambda acts: acts["enc1"], lambda acts, grad: {"enc1": grad}),
    "enc3": (_pool, lambda acts, grad: {
        "enc2": _maxpool2_backward(acts["idx"], grad, acts["enc2"].shape)}),
    "dec1": (_skip_concat, lambda acts, grad: {  # the concat split at enc2's width
        "enc2": grad[:len(acts["enc2"])], "enc3": _upsample2_backward(grad[len(acts["enc2"]):])}),
    "head": (lambda acts: acts["dec1"], lambda acts, grad: {"dec1": grad}),
}


def walk_layers(values, acts, start="enc1"):
    """Run conv-ed from layer `start` on. acts holds the image ("x") and, for a
    later start, what the layers before it made from these values; the result
    is a copy with the remaining layers added ("head" holds the logits), so one
    walk's activations serve every walk that starts at a later layer. An array
    of values or acts may carry leading probe axes, (m, *shape): every layer
    broadcasts them, and each probe's activations are the bits of its own walk."""
    acts = dict(acts)
    names = list(CONV_ED_LAYERS)
    for name in names[names.index(start):]:
        # A real walk writes enc1's ReLU into enc2's padded operand, as dec1's builder
        # does, a complex one a new array; z is freed before the next layer allocates.
        z = _conv2d(CONV_ED_LAYERS[name][0](acts), values[f"{name}.w"], values[f"{name}.b"])
        into = name == "enc1" and not np.iscomplexobj(z)
        acts[name] = z if name == "head" else _relu(z, _padded(z.shape, z.dtype) if into else None)
        del z
    return acts


def forward(params: ModelParams, spec: ModelSpec, image: Image, image_id=None):
    """Predict logits for one image; returns (LogitField, cache for backward).
    conv-ed's cache holds each array backward reads once: the image, the four
    ReLU outputs, the pooled enc2 and its window indices."""
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
    """Pull a logit gradient back to parameter gradients for one image. conv-ed
    walks CONV_ED_LAYERS in reverse: each layer's ReLU-masked output gradient
    through its conv backward, then its input's adjoint (enc2 takes dec1's skip
    share, then enc3's pool share). Builders make the inputs but two: enc3 reads
    the cached "pooled", and dec1's skip concat is written into its kernel-gradient operand."""
    if not isinstance(cache, dict) or cache.get("kind") != spec.kind:
        raise InvalidInputError("cache does not come from a matching forward pass")
    g = np.asarray(grad_wrt_logits, dtype=np.float64)
    if g.shape != (spec.num_classes, spec.height, spec.width):
        raise InvalidInputError(f"logit gradient shape {g.shape} does not match spec")

    if spec.kind == "logit-field":
        return {cache["name"]: g.copy()}

    inputs = {"enc3": cache["pooled"], "dec1": lambda out: _skip_concat(cache, out)}
    grads, act_grads = {}, {}  # an activation's gradient is whole once the layers after it ran
    for name in reversed(CONV_ED_LAYERS):
        build, adjoint = CONV_ED_LAYERS[name]
        # No adjoint reaches the head, whose output is the logits, with no ReLU.
        grad_out = _relu_backward(cache[name], act_grads.pop(name)) if name in act_grads else g
        grad_x, grads[f"{name}.w"], grads[f"{name}.b"] = _conv2d_backward(
            inputs[name] if name in inputs else build(cache), params.values[f"{name}.w"],
            grad_out, need_input=adjoint is not None)
        if adjoint:
            for act, share in adjoint(cache, grad_x).items():
                act_grads[act] = act_grads[act] + share if act in act_grads else share
    return grads


def backward_batch(params: ModelParams, caches, grad_logits) -> dict:
    """A batch's parameter gradients: each image's `backward`, added left to
    right in batch order. Checkpoint bytes depend on that order."""
    grads = {}
    for cache, g in zip(caches, grad_logits):
        for name, arr in backward(params, params.spec, cache, g).items():
            if name in grads:
                grads[name] += arr
            else:
                grads[name] = arr  # backward returns fresh arrays
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
            if name in entries:
                raise IngestError(f"{path}: entry {name!r} appears twice")
            if not np.all(np.isfinite(arr)):
                raise IngestError(f"{path}: entry {name!r} holds NaN or Inf")
            entries[name] = arr.reshape(dims).astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise IngestError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    return entries


def load_checkpoint(path, height=None, width=None) -> ModelParams:
    """Rebuild ModelParams from a PSCV1 file holding exactly its spec's parameter
    table, each entry with its momentum twin. The spec comes from the entries: a
    logit field's sorted ids and first field's shape, or conv-ed's kernel row
    counts on the grid callers supply (from the dataset they evaluate on), which
    conv-ed checkpoints do not record."""
    entries = _read_entries(path)
    values = {n: a for n, a in entries.items() if not n.startswith(MOMENTUM_PREFIX)}
    ids = sorted(n[len("field."):] for n in values if n.startswith("field."))
    try:
        if ids:
            name = f"field.{ids[0]}"
            K, H, W = values[name].shape
            spec = ModelSpec("logit-field", K, H, W, image_ids=tuple(ids))
        else:
            widths = []
            for name in (f"{layer}.w" for layer in CONV_ED_LAYERS):
                widths.append(values[name].shape[0])
            if height is None or width is None:
                raise InvalidInputError(
                    f"{path}: conv-ed checkpoint needs an image size to load against")
            spec = ModelSpec("conv-ed", widths[-1], height, width, channels=widths[:-1])
    except KeyError as exc:
        raise IngestError(f"{path}: entry {name!r} is missing") from exc
    except (IndexError, ValueError, InvalidConfigError) as exc:  # name: the entry last read
        raise IngestError(f"{path}: entry {name!r} of shape {values[name].shape} "
                          f"gives no valid model: {exc}") from exc
    expected = _param_shapes(spec)
    expected.update({MOMENTUM_PREFIX + n: shape for n, shape in expected.items()})
    for name in sorted(expected.keys() | entries.keys()):
        if name not in expected or name not in entries:
            problem = "missing" if name in expected else "unexpected"
            raise IngestError(f"{path}: entry {name!r} is {problem}")
        if entries[name].shape != expected[name]:
            raise IngestError(f"{path}: entry {name!r} has shape {entries[name].shape}, "
                              f"not {expected[name]}")
    return ModelParams(spec, values, {n: entries[MOMENTUM_PREFIX + n] for n in values})
