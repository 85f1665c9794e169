import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from conftest import MALFORMED_CHECKPOINTS, blas_core, write_malformed_checkpoint
from oracles import (
    bit_equal,
    conv2d_backward_per_tap,
    conv2d_einsum,
    conv2d_per_tap,
    conv_ed_per_tap,
    maxpool2_argmax,
    maxpool2_backward_scatter,
    upsample2_backward_reshape_sum,
)

from pointseg import (
    Image,
    InvalidConfigError,
    InvalidInputError,
    IngestError,
    ModelSpec,
    backward,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    softmax,
)
from pointseg.models import (
    CONV_ED_LAYERS,
    DEFAULT_CHANNELS,
    TAP_PRODUCT_BYTES,
    _conv2d,
    _conv2d_backward,
    _maxpool2,
    _maxpool2_backward,
    _pad_flat,
    _padded,
    _relu,
    _upsample2,
    _upsample2_backward,
    backward_batch,
)


def conv_spec(K=2, H=8, W=8, channels=(2, 3, 4, 2)):
    return ModelSpec("conv-ed", K, H, W, channels=channels)


def field_spec(ids=("a", "b"), K=3, H=4, W=5):
    return ModelSpec("logit-field", K, H, W, image_ids=ids)


def test_spec_validation():
    with pytest.raises(InvalidConfigError):
        ModelSpec("conv-ed", 1, 8, 8)  # K too small
    with pytest.raises(InvalidConfigError):
        ModelSpec("conv-ed", 2, 7, 8)  # odd height
    with pytest.raises(InvalidConfigError):
        ModelSpec("conv-ed", 2, 8, 8, channels=(4, 4, 4))
    with pytest.raises(InvalidConfigError):
        ModelSpec("logit-field", 2, 4, 4, image_ids=())
    with pytest.raises(InvalidConfigError):
        ModelSpec("logit-field", 2, 4, 4, image_ids=("a", "a"))
    with pytest.raises(InvalidConfigError):
        ModelSpec("mlp", 2, 4, 4)
    assert ModelSpec("conv-ed", 2, 8, 8).channels == DEFAULT_CHANNELS


def test_logit_field_init_zero_and_uniform():
    spec = field_spec()
    params = init_params(spec, seed=0)
    assert set(params.values) == {"field.a", "field.b"}
    assert not params.values["field.a"].any()
    field, _ = forward(params, spec, Image(np.zeros((4, 5))), "a")
    probs = softmax(field).probabilities
    assert np.abs(probs - 1.0 / 3.0).max() <= 1e-12


def test_conv_init_bound_and_determinism():
    spec = conv_spec(channels=(4, 4, 8, 4))
    a = init_params(spec, seed=7)
    b = init_params(spec, seed=7)
    c = init_params(spec, seed=8)
    for name, w in a.values.items():
        assert np.array_equal(w, b.values[name])
        if name.endswith(".b"):
            assert not w.any()
        else:
            fan_in = w.shape[1] * w.shape[2] * w.shape[3]
            bound = np.sqrt(6.0 / fan_in)
            assert np.abs(w).max() <= bound
            assert np.abs(w).max() > 0.25 * bound  # actually fills the range
    assert any(not np.array_equal(a.values[n], c.values[n]) for n in a.values)


def test_forward_unknown_image_id():
    spec = field_spec()
    params = init_params(spec, 0)
    with pytest.raises(InvalidInputError):
        forward(params, spec, Image(np.zeros((4, 5))), "zzz")


def test_forward_shapes_and_determinism():
    spec = conv_spec(K=3, H=12, W=8)
    params = init_params(spec, 1)
    image = Image(np.random.default_rng(0).random((12, 8)))
    f1, cache = forward(params, spec, image)
    f2, _ = forward(params, spec, image)
    assert f1.logits.shape == (3, 12, 8)
    assert np.array_equal(f1.logits, f2.logits)
    grads = backward(params, spec, cache, np.ones_like(f1.logits))
    assert set(grads) == set(params.values)
    for name, g in grads.items():
        assert g.shape == params.values[name].shape


def test_backward_batch_adds_each_images_gradients_left_to_right():
    # Checkpoint bytes depend on the order: (image 0 + image 1) + image 2.
    spec = conv_spec()
    params = init_params(spec, 3)
    rng = np.random.default_rng(4)
    for name in params.values:
        params.values[name] += 0.1 * rng.normal(size=params.values[name].shape)
    caches = [forward(params, spec, Image(rng.random((8, 8))))[1] for _ in range(3)]
    grad_logits = [rng.normal(size=(2, 8, 8)) for _ in range(3)]
    per_image = [backward(params, spec, c, g) for c, g in zip(caches, grad_logits)]
    got = backward_batch(params, caches, grad_logits)
    assert set(got) == set(params.values)
    for name, arr in got.items():
        want = (per_image[0][name] + per_image[1][name]) + per_image[2][name]
        assert arr.shape == want.shape, name
        assert [float(v).hex() for v in arr.ravel()] == [float(v).hex() for v in want.ravel()], name


def test_default_conv_ed_cache_holds_each_array_once():
    # backward writes dec1's skip concat again from enc2 and enc3, and a pool
    # window's index (0-3) takes one byte: 3,702,784 bytes with the concat
    # and intp indices kept.
    spec = ModelSpec("conv-ed", 3, 64, 64)
    _, cache = forward(init_params(spec, 1), spec, Image(np.random.default_rng(0).random((64, 64))))
    assert set(cache) == {"kind", "x", "enc1", "enc2", "pooled", "idx", "enc3", "dec1"}
    assert cache["idx"].dtype == np.uint8
    assert sum(v.nbytes for v in cache.values() if isinstance(v, np.ndarray)) == 2_015_232


def test_default_conv_ed_forward_pads_only_the_image_and_the_pooled_enc2(monkeypatch):
    # enc1's ReLU output and dec1's skip concat are written straight into the
    # padded operands that enc2's and dec1's convolutions read, and the head's
    # 1x1 kernel reads dec1's output as it is: only two inputs are copied.
    import pointseg.models
    real, copied = pointseg.models._pad_flat, []

    def counting(x, ph, pw):
        xf = real(x, ph, pw)
        if not np.shares_memory(xf, x):
            copied.append(x.shape)
        return xf
    monkeypatch.setattr(pointseg.models, "_pad_flat", counting)
    spec = ModelSpec("conv-ed", 3, 64, 64)
    forward(init_params(spec, 1), spec, Image(np.random.default_rng(0).random((64, 64))))
    assert copied == [(1, 64, 64), (16, 32, 32)]


def test_pad_flat_reads_a_padded_interior_in_place():
    # Only the exact interior view of a buffer with the same padding is read
    # in place; any other view is copied, with the same padded values.
    rng = np.random.default_rng(3)
    inner = _padded((2, 3, 5, 4), complex)
    inner[...] = rng.normal(size=inner.shape) + 1j * rng.normal(size=inner.shape)
    assert _pad_flat(inner, 1, 1) is inner.base
    corner = inner.base[..., : 7 * 6].reshape(2, 3, 7, 6)[..., :5, :4]  # same strides, no pad above
    on_bytes = np.frombuffer(inner.real.tobytes(), dtype=float).reshape(inner.shape)  # base: bytes
    for other, pad in [(inner, (2, 1)), (inner, (1, 2)), (inner.real, (1, 1)), (inner.imag, (1, 1)),
                       (corner, (1, 1)), (inner[:1], (1, 1)), (on_bytes, (1, 1))]:
        got = _pad_flat(other, *pad)
        assert not np.shares_memory(got, other)
        assert np.array_equal(got, _pad_flat(other.copy(), *pad))


# (cout, cin, kernel): both sides of the cout < cin branch, cout == cin,
# a single input channel, a single output channel, and 1x1 kernels on both
# sides (with cout >= cin, the flat path with no pad columns). On a grid wide
# enough, the last four run the per-tap path in several channel blocks, the
# last of them partial: 9 and 17 output channels in the forward pass (one
# with a single input channel), 10 in an input gradient.
CONV_SHAPES = [(4, 3, 3), (2, 5, 3), (3, 3, 3), (4, 1, 3), (1, 3, 3), (2, 5, 1), (3, 2, 1),
               (9, 2, 3), (17, 3, 1), (9, 1, 3), (3, 10, 3)]


@pytest.mark.parametrize("cout,cin,k", CONV_SHAPES)
def test_conv2d_matches_naive_loops(cout, cin, k):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(cin, 5, 6))
    w = rng.normal(size=(cout, cin, k, k))
    b = rng.normal(size=cout)
    out = _conv2d(x, w, b)
    p = k // 2
    ref = np.zeros((cout, 5, 6))
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    for o in range(cout):
        for i in range(5):
            for j in range(6):
                acc = b[o]
                for c in range(cin):
                    for di in range(k):
                        for dj in range(k):
                            acc += w[o, c, di, dj] * xp[c, i + di, j + dj]
                ref[o, i, j] = acc
    assert np.abs(out - ref).max() <= 1e-12


@pytest.mark.parametrize("cout,cin,k", CONV_SHAPES)
def test_conv2d_backward_matches_naive_loops(cout, cin, k):
    rng = np.random.default_rng(3)
    # Besides 5x6, grids narrower than the kernel, where each kernel
    # column's copy of the padded input is mostly pad.
    for H, W in [(5, 6), (1, 1), (1, 2), (3, 1), (4, 2), (1, 5)]:
        x = rng.normal(size=(cin, H, W))
        w = rng.normal(size=(cout, cin, k, k))
        g = rng.normal(size=(cout, H, W))
        grad_x, grad_w, grad_b = _conv2d_backward(x, w, g)
        p = k // 2
        xp = np.pad(x, ((0, 0), (p, p), (p, p)))
        ref_x = np.zeros((cin, H, W))
        ref_w = np.zeros((cout, cin, k, k))
        for o in range(cout):
            for i in range(H):
                for j in range(W):
                    for c in range(cin):
                        for di in range(k):
                            for dj in range(k):
                                ref_w[o, c, di, dj] += g[o, i, j] * xp[c, i + di, j + dj]
                                r, q = i + di - p, j + dj - p
                                if 0 <= r < H and 0 <= q < W:
                                    ref_x[c, r, q] += w[o, c, di, dj] * g[o, i, j]
        assert np.abs(grad_x - ref_x).max() <= 1e-12, (H, W)
        assert np.abs(grad_w - ref_w).max() <= 1e-12, (H, W)
        assert np.abs(grad_b - g.sum(axis=(1, 2))).max() <= 1e-12, (H, W)
        skipped, grad_w2, grad_b2 = _conv2d_backward(x, w, g, need_input=False)
        assert skipped is None
        assert np.array_equal(grad_w2, grad_w) and np.array_equal(grad_b2, grad_b)


@pytest.mark.parametrize("cout,cin,k", CONV_SHAPES[-4:])
def test_conv2d_partial_channel_block_bit_identical_to_per_tap(cout, cin, k):
    # On a 132x132 grid one row of a tap's product is over half of
    # TAP_PRODUCT_BYTES, so the per-tap path runs in the smallest blocks, two
    # channels (a lone row would go to gemv), the last of three when the count
    # is odd; each row must still get the bits of one tensordot over the
    # whole kernel.
    H = W = 132
    assert TAP_PRODUCT_BYTES // (H * (W + 2 * (k // 2)) * 8) == 1
    rng = np.random.default_rng(9)
    x = rng.normal(size=(cin, H, W))
    w = rng.normal(size=(cout, cin, k, k))
    b = rng.normal(size=cout)
    g = rng.normal(size=(cout, H, W))
    kernel = f"bit identity measured on SkylakeX; this process runs {blas_core()}"
    assert bit_equal(_conv2d(x, w, b), conv2d_per_tap(x, w, b)), kernel
    # conv-ed never takes a one-channel input's gradient (enc1's), whose
    # one-row products go to gemv where the oracle's tensordot does not.
    grads = _conv2d_backward(x, w, g, need_input=cin > 1)
    for got, ref in zip(grads, conv2d_backward_per_tap(x, w, g)):
        assert got is None or bit_equal(got, ref), kernel


@pytest.mark.parametrize("cout,cin,k", [s for s in CONV_SHAPES if s[2] > 1])
def test_conv2d_backward_takes_a_writer_of_its_input(cout, cin, k):
    # backward writes dec1's skip concat straight into the kernel gradient's
    # padded operand; a writer must give the bits the input itself gives.
    rng = np.random.default_rng(4)
    x = rng.normal(size=(cin, 5, 6))
    w = rng.normal(size=(cout, cin, k, k))
    g = rng.normal(size=(cout, 5, 6))

    def write(out):
        out[...] = x

    for got, want in zip(_conv2d_backward(write, w, g), _conv2d_backward(x, w, g)):
        assert bit_equal(got, want)


def _crop(a, extra=2):
    """`a` as a row-strided crop of a wider C-ordered buffer, the layout of
    the input gradients the flat-buffer convolutions return."""
    wide = np.zeros(a.shape[:-1] + (a.shape[-1] + extra,), dtype=a.dtype)
    wide[..., : a.shape[-1]] = a
    return wide[..., : a.shape[-1]]


@pytest.mark.parametrize("layer", ["enc1", "enc2", "enc3", "dec1", "head"])
def test_conv2d_bit_identical_to_per_tap_at_default_shapes(layer):
    # The tap order of the per-tap oracle fixes checkpoint bytes; the default
    # model must reproduce it exactly, whichever side each layer shifts, for a
    # contiguous grad_out and for a strided crop of one.
    spec = ModelSpec("conv-ed", 3, 64, 64)
    w = init_params(spec, seed=0).values[f"{layer}.w"]
    rng = np.random.default_rng(4)
    cout, cin = w.shape[:2]
    size = 32 if layer == "enc3" else 64
    x = np.maximum(rng.normal(size=(cin, size, size)), 0.0)
    b = rng.normal(size=cout)
    g = rng.normal(size=(cout, size, size))
    assert np.array_equal(_conv2d(x, w, b), conv2d_per_tap(x, w, b))
    for grad_out in (g, _crop(g)):
        want = conv2d_backward_per_tap(x, w, grad_out)
        for got, ref in zip(_conv2d_backward(x, w, grad_out), want):
            assert bit_equal(got, ref)
        for got, ref in zip(_conv2d_backward(x, w, grad_out, need_input=False)[1:], want[1:]):
            assert bit_equal(got, ref)


@pytest.mark.parametrize("layer", ["enc1", "enc2", "enc3", "dec1", "head"])
def test_conv2d_bit_identical_to_per_tap_off_default_shapes(layer):
    # A non-square grid and other widths: mixing up Hp and Wp, or the pad
    # columns of a row with the next row's, cannot hide behind 64x64.
    spec = ModelSpec("conv-ed", 3, 16, 24, channels=(8, 12, 20, 8))
    w = init_params(spec, seed=1).values[f"{layer}.w"]
    rng = np.random.default_rng(5)
    cout, cin = w.shape[:2]
    H, W = (8, 12) if layer == "enc3" else (16, 24)
    x = np.maximum(rng.normal(size=(cin, H, W)), 0.0)
    b = rng.normal(size=cout)
    g = rng.normal(size=(cout, H, W))
    assert bit_equal(_conv2d(x, w, b), conv2d_per_tap(x, w, b))
    for grad_out in (g, _crop(g, extra=3)):
        want = conv2d_backward_per_tap(x, w, grad_out)
        for got, ref in zip(_conv2d_backward(x, w, grad_out), want):
            assert bit_equal(got, ref)


def test_maxpool_first_in_row_major_tie_break():
    x = np.zeros((1, 2, 4))
    x[0, 0, 0] = x[0, 1, 1] = 1.0   # tie in the left window
    x[0, 0, 2] = x[0, 0, 3] = 2.0   # tie in the right window
    pooled, idx = _maxpool2(x)
    assert pooled[0, 0, 0] == 1.0 and idx[0, 0, 0] == 0  # (0,0) beats (1,1)
    assert pooled[0, 0, 1] == 2.0 and idx[0, 0, 1] == 0  # (0,2) beats (0,3)


@given(st.integers(0, 300))
def test_maxpool_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 4, size=(2, 4, 6)).astype(np.float64)  # many ties
    pooled, idx = _maxpool2(x)
    for c in range(2):
        for i in range(2):
            for j in range(3):
                window = [x[c, 2 * i, 2 * j], x[c, 2 * i, 2 * j + 1],
                          x[c, 2 * i + 1, 2 * j], x[c, 2 * i + 1, 2 * j + 1]]
                best = max(window)
                first = window.index(best)  # first in row-major order
                assert pooled[c, i, j] == best
                assert idx[c, i, j] == first


# (C, H, W) of pooled activations: enc2's output at the default and the
# off-default spec, gradcheck-sized grids, and single-window rows and columns.
POOL_SHAPES = [(16, 64, 64), (12, 16, 24), (3, 8, 8), (2, 4, 6), (5, 16, 10), (1, 2, 2),
               (3, 6, 2), (2, 2, 8)]


def _pool_input(kind, shape, rng):
    if kind == "normal":
        return rng.normal(size=shape)
    if kind == "ties":
        return rng.integers(0, 3, size=shape).astype(np.float64)
    return rng.choice([0.0, -0.0, 1.0, -1.0], size=shape)  # signed zeros


@pytest.mark.parametrize("kind", ["normal", "ties", "zeros"])
@pytest.mark.parametrize("shape", POOL_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_pooling_helpers_bit_identical_to_oracles(shape, kind):
    # Pooling and upsampling sit between conv layers, so their bits reach the
    # checkpoint. Inputs come contiguous and as the strided crops backward
    # passes; ties must go to the first tap and zeros keep their sign.
    rng = np.random.default_rng(6)
    C, H, W = shape
    x = _pool_input(kind, shape, rng)
    g_pooled = _pool_input(kind, (C, H // 2, W // 2), rng)
    g_up = _pool_input(kind, shape, rng)
    for x_in, g_in, up_in in ((x, g_pooled, g_up), (_crop(x), _crop(g_pooled), _crop(g_up))):
        pooled, idx = _maxpool2(x_in)
        want_pooled, want_idx = maxpool2_argmax(x_in)
        assert bit_equal(pooled, want_pooled)
        assert np.array_equal(idx, want_idx)
        assert bit_equal(_maxpool2_backward(idx, g_in, shape),
                          maxpool2_backward_scatter(want_idx, g_in, shape))
        assert bit_equal(_upsample2_backward(up_in), upsample2_backward_reshape_sum(up_in))


@pytest.mark.parametrize("spec", [
    ModelSpec("conv-ed", 3, 64, 64),
    ModelSpec("conv-ed", 3, 16, 24, channels=(8, 12, 20, 8)),
    ModelSpec("conv-ed", 2, 4, 2, channels=(2, 3, 4, 8)),  # wide dec1; one-pixel pooled rows
    ModelSpec("conv-ed", 3, 16, 24, channels=(8, 12, 20, 1)),  # one-channel dec1 output
], ids=["default", "off-default", "wide-dec1", "narrow-dec1"])
def test_conv_ed_bit_identical_to_layer_oracles(spec):
    # The whole model, not only each layer: forward and backward composed
    # from the oracles give the same logits and gradients, bit for bit.
    params = init_params(spec, seed=2)
    rng = np.random.default_rng(7)
    for name in params.values:
        if name.endswith(".b"):
            params.values[name] = rng.normal(scale=0.1, size=params.values[name].shape)
    image = Image(rng.random((spec.height, spec.width)))
    g = rng.normal(size=(spec.num_classes, spec.height, spec.width))
    field, cache = forward(params, spec, image)
    grads = backward(params, spec, cache, g)
    want_logits, want_grads = conv_ed_per_tap(params.values, image.intensities, g)
    kernel = f"bit identity measured on SkylakeX; this process runs {blas_core()}"
    assert bit_equal(field.logits, want_logits), kernel
    assert sorted(grads) == sorted(want_grads)
    for name, grad in grads.items():
        assert bit_equal(grad, want_grads[name]), f"{name}: {kernel}"


# The default widths, and narrow ones where enc2 and enc3 differ in width, so
# an adjoint that split dec1's skip concat at enc3's width would fail.
ADJOINT_SPECS = [ModelSpec("conv-ed", 3, 64, 64),
                 ModelSpec("conv-ed", 2, 16, 24, channels=(3, 5, 7, 2))]


@pytest.mark.parametrize("spec", ADJOINT_SPECS, ids=["default", "3-5-7-2"])
@pytest.mark.parametrize("layer", list(CONV_ED_LAYERS))
def test_layer_adjoint_is_the_transpose_of_its_input_builder(layer, spec):
    # backward pulls each layer's input gradient back through the adjoint
    # beside the builder that made that input. On small-integer arrays every
    # sum is exact, so the dot-product identity
    # <adjoint(acts, g), d> = <g, build(acts + d) - build(acts)> holds exactly.
    build, adjoint = CONV_ED_LAYERS[layer]
    if layer == "enc1":
        assert adjoint is None  # its input is the image: nothing to pull back to
        return
    rng = np.random.default_rng(11)
    H, W = spec.height, spec.width
    c1, c2, c3, c4 = spec.channels
    shapes = {"x": (1, H, W), "enc1": (c1, H, W), "enc2": (c2, H, W),
              "enc3": (c3, H // 2, W // 2), "dec1": (c4, H, W)}
    acts = {name: rng.integers(-5, 6, size=shape).astype(float) for name, shape in shapes.items()}
    # One clear maximum per pooling window, so a move d of at most 5 keeps
    # the routing that enc3's builder records in "idx".
    tops = rng.integers(0, 4, size=(c2, H // 2, W // 2))
    for t in range(4):
        acts["enc2"][:, t // 2 :: 2, t % 2 :: 2] += 100.0 * (tops == t)
    d = {name: rng.integers(-5, 6, size=a.shape).astype(float) for name, a in acts.items()}
    at, moved = dict(acts), {name: a + d[name] for name, a in acts.items()}
    built = build(at)
    change = build(moved) - built
    if layer == "enc3":
        assert np.array_equal(moved["idx"], at["idx"])
    g = rng.integers(-5, 6, size=built.shape).astype(float)
    shares = adjoint(at, g)
    assert shares and set(shares) <= set(shapes)
    for name, share in shares.items():
        assert share.shape == shapes[name], name
    assert sum(np.vdot(share, d[name]) for name, share in shares.items()) == np.vdot(g, change)


def test_conv_ed_backward_keeps_its_bits_on_haswell():
    # The whole-model oracle test (all its specs) and the adjoint test, in one
    # child process on the Haswell kernel (numpy picks its kernel when it
    # loads), so the table-driven backward is checked on a second kernel.
    tests = pathlib.Path(__file__).resolve().parent
    script = (
        f"import sys; sys.path.insert(0, {str(tests)!r}); import test_models as t\n"
        "print(t.blas_core())\n"
        "[mark] = t.test_conv_ed_bit_identical_to_layer_oracles.pytestmark\n"
        "for spec in mark.args[1]:\n"
        "    t.test_conv_ed_bit_identical_to_layer_oracles(spec)\n"
        "for spec in t.ADJOINT_SPECS:\n"
        "    for layer in t.CONV_ED_LAYERS:\n"
        "        t.test_layer_adjoint_is_the_transpose_of_its_input_builder(layer, spec)\n"
        "print(len(mark.args[1]))\n")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(tests.parent / "src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.split() == ["Haswell", "4"]


# The complex-step oracle runs these layers on complex128 values.

@pytest.mark.parametrize("cout,cin,k", CONV_SHAPES)
def test_conv2d_on_complex_matches_einsum_conv(cout, cin, k):
    rng = np.random.default_rng(12)

    def cx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    for trial in range(20):
        H, W = (int(v) for v in rng.integers(1, 10, size=2))
        x, w, b = cx(cin, H, W), cx(cout, cin, k, k), cx(cout)
        for bias in (b, None):  # without a bias the sums start from complex zeros
            got = _conv2d(x, w, bias)
            want = conv2d_einsum(x, w, np.zeros(cout) if bias is None else bias)
            assert got.dtype == np.complex128
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (trial, H, W)


def test_relu_follows_the_real_part():
    # np.maximum keeps 0 + 1e-20j, the complex step of a dead unit's bias,
    # but backward's mask a > 0 zeroes it.
    z = np.array([0 + 1e-20j, 0 - 1e-20j, -1e-300 + 1j, -2 + 3j, 2 - 3j, 1e-300 + 0j])
    assert np.array_equal(_relu(z), [0, 0, 0, 0, 2 - 3j, 1e-300])
    assert _relu(z).dtype == np.complex128
    x = np.random.default_rng(4).choice([0.0, -0.0, 1.5, -1.5, 5e-324, -5e-324], size=(3, 8, 8))
    assert bit_equal(_relu(x), np.maximum(x, 0.0))


@pytest.mark.parametrize("shape", POOL_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_complex_pooling_and_upsampling_follow_the_real_part(shape):
    # Real parts tie often and imaginary parts differ, so a pool that compared
    # whole complex values would route some windows elsewhere.
    rng = np.random.default_rng(8)
    x = rng.integers(0, 3, size=shape) + 1j * rng.normal(size=shape)
    for x_in in (x, _crop(x)):
        pooled, idx = _maxpool2(x_in)
        want_pooled, want_idx = maxpool2_argmax(x_in)
        assert np.array_equal(idx, want_idx)
        assert bit_equal(pooled.real, want_pooled.real) and bit_equal(pooled.imag, want_pooled.imag)
        up = _upsample2(x_in)
        assert np.array_equal(up, np.kron(x_in, np.ones((1, 2, 2))))


def test_upsample_repeats_blocks():
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    up = _upsample2(x)
    assert np.array_equal(up[0], np.array([
        [1.0, 1.0, 2.0, 2.0],
        [1.0, 1.0, 2.0, 2.0],
        [3.0, 3.0, 4.0, 4.0],
        [3.0, 3.0, 4.0, 4.0],
    ]))


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    spec = conv_spec(K=3, H=8, W=10, channels=(3, 4, 5, 3))
    params = init_params(spec, 5)
    params.momentum["enc1.w"][:] = 0.25  # nonzero momentum must survive
    path = tmp_path / "model.bin"
    save_checkpoint(path, params)
    first = path.read_bytes()
    loaded = load_checkpoint(path, height=8, width=10)
    assert loaded.spec.kind == "conv-ed"
    assert loaded.spec.channels == (3, 4, 5, 3)
    assert loaded.spec.num_classes == 3
    for name in params.values:
        assert np.array_equal(loaded.values[name], params.values[name])
        assert np.array_equal(loaded.momentum[name], params.momentum[name])
    save_checkpoint(path, loaded)
    assert path.read_bytes() == first


def test_checkpoint_roundtrip_logit_field(tmp_path):
    spec = field_spec(ids=("x", "y"), K=2, H=3, W=7)
    params = init_params(spec, 0)
    params.values["field.x"][:] = 1.5
    path = tmp_path / "field.bin"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)  # grid size inferred from the fields
    assert loaded.spec.kind == "logit-field"
    assert loaded.spec.image_ids == ("x", "y")
    assert (loaded.spec.height, loaded.spec.width) == (3, 7)
    assert np.array_equal(loaded.values["field.x"], params.values["field.x"])


def test_checkpoint_rejects_corruption(tmp_path):
    spec = field_spec()
    path = tmp_path / "m.bin"
    save_checkpoint(path, init_params(spec, 0))
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.bin"

    bad.write_bytes(b"JUNK" + raw[5:])
    with pytest.raises(IngestError):
        load_checkpoint(bad)

    bad.write_bytes(raw[: len(raw) - 3])  # truncated payload
    with pytest.raises(IngestError):
        load_checkpoint(bad)

    bad.write_bytes(raw + b"\x00")  # trailing bytes
    with pytest.raises(IngestError):
        load_checkpoint(bad)

    params = init_params(spec, 0)
    params.values["field.b"][1, 2, 3] = np.nan
    save_checkpoint(bad, params)
    with pytest.raises(IngestError, match=r"bad\.bin: entry 'field\.b' holds NaN"):
        load_checkpoint(bad)

    params = init_params(spec, 0)
    # a (2, H, W) field beside field.a's (3, H, W): the class count is ambiguous
    params.values["field.b"] = params.momentum["field.b"] = np.zeros((2, 4, 5))
    save_checkpoint(bad, params)
    with pytest.raises(IngestError, match=r"bad\.bin: entry 'field\.b' has shape \(2, 4, 5\)"):
        load_checkpoint(bad)

    params = init_params(spec, 0)
    params.momentum["field.b"] = np.zeros((3, 4, 6))  # beside a (3, 4, 5) field
    save_checkpoint(bad, params)
    with pytest.raises(IngestError, match=r"bad\.bin: entry 'momentum:field\.b' has shape \(3, 4, 6\)"):
        load_checkpoint(bad)


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_checkpoint_rejects_malformed_entries(tmp_path, case):
    # Each is an IngestError naming the file and the entry: not an IndexError,
    # a spec error that names no file, or a silent load.
    spec = conv_spec() if MALFORMED_CHECKPOINTS[case][0] == "conv-ed" else field_spec()
    bad = tmp_path / "bad.bin"
    entry = write_malformed_checkpoint(bad, case, init_params(spec, 0))
    with pytest.raises(IngestError, match=rf"bad\.bin: .*'{re.escape(entry)}'"):
        load_checkpoint(bad, height=8, width=8)


STRAY_NAMES = ("bogus.w", "enc1.w", "head.b", "field.c", "x", "momentum:x")


@st.composite
def edited_params(draw):
    """A small model's parameters, about half the time with one to three entries
    dropped, added or replaced by an array of any small shape and one value,
    NaN and Inf included."""
    params = init_params(draw(st.sampled_from([conv_spec(), field_spec()])), 0)
    for _ in range(draw(st.just(0) | st.integers(1, 3))):
        table = draw(st.sampled_from([params.values, params.momentum]))
        name = draw(st.sampled_from(sorted(table) + list(STRAY_NAMES)))
        if name in table and draw(st.booleans()):
            del table[name]
        else:
            shape = tuple(draw(st.lists(st.integers(0, 4), max_size=4)))
            table[name] = np.full(shape, draw(st.floats()))
    return params


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(params=edited_params(), grid=st.sampled_from([(None, None), (8, 8), (7, 8)]))
def test_saved_checkpoint_loads_bit_equal_or_raises_a_pointseg_error(fuzz_dir, params, grid):
    path = fuzz_dir / "m.bin"
    save_checkpoint(path, params)
    try:
        loaded = load_checkpoint(path, *grid)
    except (IngestError, InvalidInputError):
        return
    for written, read in ((params.values, loaded.values), (params.momentum, loaded.momentum)):
        assert written.keys() == read.keys()
        assert all(bit_equal(written[n], read[n]) for n in written)


def test_conv_checkpoint_needs_grid_size(tmp_path):
    spec = conv_spec()
    path = tmp_path / "c.bin"
    save_checkpoint(path, init_params(spec, 0))
    with pytest.raises(InvalidInputError):
        load_checkpoint(path)
    loaded = load_checkpoint(path, height=8, width=8)
    assert loaded.spec.channels == spec.channels


def _tiny_conv_ed():
    spec = ModelSpec("conv-ed", 2, 4, 4, channels=(2, 2, 3, 2))
    return init_params(spec, 0), spec


BAD_MODEL_INPUTS = {
    "forward-image-shape": (lambda params, spec: forward(params, spec, Image(np.zeros((6, 4)))),
                            "image shape (6, 4) does not match spec 4x4"),
    "backward-foreign-cache": (
        lambda params, spec: backward(params, spec, {"kind": "logit-field"}, np.zeros((2, 4, 4))),
        "cache does not come from a matching forward pass"),
    "backward-no-cache": (lambda params, spec: backward(params, spec, None, np.zeros((2, 4, 4))),
                          "cache does not come from a matching forward pass"),
    "backward-gradient-shape": (
        lambda params, spec: backward(params, spec, forward(params, spec, Image(np.zeros((4, 4))))[1],
                                      np.zeros((2, 4, 2))),
        "logit gradient shape (2, 4, 2) does not match spec"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_INPUTS))
def test_bad_model_input_raises_naming_what_is_wrong(case):
    call, message = BAD_MODEL_INPUTS[case]
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        call(*_tiny_conv_ed())
