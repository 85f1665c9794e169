import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointseg import (
    Image,
    InvalidInputError,
    LogitField,
    SoftPrediction,
    finite_diff_grad,
    softmax,
    softmax_backward,
)

from oracles import bit_equal, finite_diff_copying

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

    fd = finite_diff_grad(f, logits.reshape(-1)).reshape(2, 3, 3)
    assert np.abs(analytic - fd).max() <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_finite_diff_grad_equals_a_copy_per_coordinate_bit_for_bit(seed):
    # One probe buffer, moved in place and restored, must give the values a
    # fresh copy per coordinate gives, and leave x as it was.
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(1, 5, size=3))
    x = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=shape)
    if seed % 2:
        x = x.transpose(2, 0, 1)  # a non-contiguous view

    def f(v):
        assert v.shape == x.shape
        return float(np.sin(v).sum() * (v**3).sum() + np.exp(-v * v).sum())

    before = x.copy()
    got = finite_diff_grad(f, x)
    assert bit_equal(got, finite_diff_copying(f, x))
    assert bit_equal(x, before)


def test_finite_diff_grad_on_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    g = finite_diff_grad(lambda v: float((v**2).sum()), x)
    assert np.abs(g - 2 * x).max() <= 1e-6
