import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pointseg.grids
from pointseg import (
    Image,
    InvalidInputError,
    LogitField,
    SoftPrediction,
    finite_diff_grad,
    softmax,
    softmax_backward,
)

from oracles import bit_equal, finite_diff_copying, per_probe

fields = st.integers(0, 10_000).map(
    lambda s: np.random.default_rng(s).normal(scale=3.0, size=(3, 4, 5))
)


def test_image_validation():
    with pytest.raises(InvalidInputError):
        Image(np.zeros((2, 2)) * np.nan)
    with pytest.raises(InvalidInputError):
        Image(np.zeros(3))
    img = Image(np.full((2, 2), 0.5))
    assert img.intensities.dtype == np.float64


def test_logit_field_validation():
    with pytest.raises(InvalidInputError):
        LogitField(np.zeros((4, 4)))
    with pytest.raises(InvalidInputError):
        LogitField(np.full((2, 3, 3), np.inf))


@given(fields, st.sampled_from([1.0, 1e3, 1e150, 1e300]))
def test_softmax_simplex(logits, scale):
    # softmax skips the SoftPrediction checks, so its output must pass them,
    # up to the logit magnitudes of test_softmax_extreme_logits_stay_finite.
    p = softmax(LogitField(logits * scale)).probabilities
    assert np.array_equal(SoftPrediction(p).probabilities, p)
    assert np.all(p > 0) if scale == 1.0 else np.all(p >= 0)
    assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-9


@given(fields, st.floats(-500, 500))
def test_softmax_shift_invariance(logits, shift):
    a = softmax(LogitField(logits)).probabilities
    b = softmax(LogitField(logits + shift)).probabilities
    assert np.abs(a - b).max() <= 1e-12


def test_softmax_extreme_logits_stay_finite():
    p = softmax(LogitField(np.array([[[1e300]], [[-1e300]]]))).probabilities
    assert np.all(np.isfinite(p))
    assert p[0, 0, 0] == pytest.approx(1.0)


@given(st.integers(0, 200))
def test_softmax_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(2, 3, 3))
    probe = rng.normal(size=(2, 3, 3))
    field = LogitField(logits)
    analytic = softmax_backward(softmax(field), probe)

    def f(flat):
        return float((probe * softmax(LogitField(flat.reshape(2, 3, 3))).probabilities).sum())

    fd = finite_diff_grad(per_probe(f), logits.reshape(-1)).reshape(2, 3, 3)
    assert np.abs(analytic - fd).max() <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_finite_diff_grad_equals_a_copy_per_coordinate_bit_for_bit(seed):
    # Stacked probes, built a chunk at a time, must give the values a fresh
    # copy per coordinate gives, and leave x as it was.
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 5, size=3))
    x = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=shape)
    if seed % 2:
        x = x.transpose(2, 0, 1)  # a non-contiguous view

    def f(v):
        assert v.shape == x.shape
        return float(np.sin(v).sum() * (v**3).sum() + np.exp(-v * v).sum())

    before = x.copy()
    got = finite_diff_grad(per_probe(f), x)
    assert bit_equal(got, finite_diff_copying(f, x))
    assert bit_equal(x, before)


@pytest.mark.parametrize("shape, cap", [((3, 4), None), ((3, 20, 20), None), ((3, 4), 64)])
def test_finite_diff_grad_passes_probe_pairs_in_order_within_the_cap(monkeypatch, shape, cap):
    # Row 2j of the probes is x with coordinate i moved up by the step, row
    # 2j + 1 that row with coordinate i moved down by twice the step, for
    # i = 0, 1, ... in C order across calls. A call takes as many whole pairs
    # as fit in the cap, and one pair when none fits (the last case).
    if cap is not None:
        monkeypatch.setattr(pointseg.grids, "PROBE_CHUNK_BYTES", cap)
    cap = pointseg.grids.PROBE_CHUNK_BYTES
    x = np.random.default_rng(0).normal(size=shape).transpose()
    flat = x.reshape(-1)
    calls = []

    def f(stack):
        assert stack.shape[1:] == x.shape and stack.nbytes <= max(cap, 2 * x.nbytes)
        base = sum(calls) // 2
        calls.append(len(stack))
        for j, (hi, lo) in enumerate(zip(stack[0::2], stack[1::2], strict=True)):
            want = flat.copy()
            want[base + j] = up = flat[base + j] + pointseg.grids.FD_STEP
            assert bit_equal(hi.reshape(-1), want)
            want[base + j] = up - 2.0 * pointseg.grids.FD_STEP
            assert bit_equal(lo.reshape(-1), want)
        stack[...] = 0.0  # the probes are f's own: x must not change
        return np.zeros(len(stack))

    before = x.copy()
    assert not finite_diff_grad(f, x).any()
    assert bit_equal(x, before)
    pairs = max(1, cap // (2 * x.nbytes))
    assert calls == [2 * min(pairs, x.size - start) for start in range(0, x.size, pairs)]


def test_finite_diff_grad_on_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    g = finite_diff_grad(lambda stack: (stack**2).sum(axis=1), x)
    assert np.abs(g - 2 * x).max() <= 1e-6


CONTAINER_CHECKS = {
    "prediction-not-rank-3": (lambda: SoftPrediction(np.full((2, 2), 0.5)), "must be \\[K, H, W\\]"),
    "prediction-outside-unit": (lambda: SoftPrediction(np.array([[[1.5]], [[-0.5]]])), "lie in \\[0, 1\\]"),
    "prediction-not-summing-to-1": (lambda: SoftPrediction(np.full((2, 2, 2), 0.4)), "sum to 1"),
    "image-outside-unit": (lambda: Image(np.full((2, 2), 1.5)), "lie in \\[0, 1\\]"),
    "one-class-logit-field": (lambda: LogitField(np.zeros((1, 3, 3))), "at least 2 classes"),
    "backward-gradient-shape": (
        lambda: softmax_backward(softmax(LogitField(np.zeros((3, 3, 3)))), np.zeros((2, 3, 3))),
        "gradient shape \\(2, 3, 3\\) != probabilities shape \\(3, 3, 3\\)"),
}


@pytest.mark.parametrize("case", sorted(CONTAINER_CHECKS))
def test_container_checks_raise_invalid_input(case):
    build, message = CONTAINER_CHECKS[case]
    with pytest.raises(InvalidInputError, match=message):
        build()
