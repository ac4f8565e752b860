"""Tests for activation functions and their derivatives."""

import timeit

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ConfigurationError
from repro.nn.activations import (
    ELU,
    GELU,
    LEAKY_RELU,
    LINEAR,
    RELU,
    SIGMOID,
    TANH,
    get_activation,
    log_softmax,
    softmax,
)

ALL_ACTIVATIONS = [RELU, LEAKY_RELU, SIGMOID, TANH, LINEAR, GELU, ELU]


def _numerical_derivative(activation, x, epsilon=1e-6):
    return (activation.forward(x + epsilon) - activation.forward(x - epsilon)) / (2 * epsilon)


class TestForwardValues:
    def test_relu(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(RELU.forward(x), [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-10, 10, 101)
        y = SIGMOID.forward(x)
        assert np.all((y > 0) & (y < 1))
        np.testing.assert_allclose(y + SIGMOID.forward(-x), 1.0, atol=1e-12)

    def test_sigmoid_extreme_values_are_stable(self):
        y = SIGMOID.forward(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(y))

    def test_tanh(self):
        np.testing.assert_allclose(TANH.forward(np.array([0.0])), [0.0])

    def test_linear_identity(self):
        x = np.array([[1.0, -2.0]])
        np.testing.assert_array_equal(LINEAR.forward(x), x)

    def test_gelu_at_zero(self):
        assert GELU.forward(np.array([0.0]))[0] == pytest.approx(0.0)

    def test_elu_negative_saturates(self):
        assert ELU.forward(np.array([-100.0]))[0] == pytest.approx(-1.0, abs=1e-6)


class TestDerivatives:
    @pytest.mark.parametrize("activation", ALL_ACTIVATIONS, ids=lambda a: a.name)
    def test_gradient_matches_numerical(self, activation):
        x = np.linspace(-2.0, 2.0, 41) + 0.013  # avoid the ReLU kink at exactly 0
        upstream = np.ones_like(x)
        cached = x if activation.cache_input else activation.forward(x)
        analytic = activation.gradient(upstream, cached)
        numerical = _numerical_derivative(activation, x)
        np.testing.assert_allclose(analytic, numerical, rtol=1e-4, atol=1e-6)

    def test_gradient_scales_with_upstream(self):
        x = np.array([0.5, 1.5])
        out = TANH.forward(x)
        g1 = TANH.gradient(np.ones_like(x), out)
        g3 = TANH.gradient(3.0 * np.ones_like(x), out)
        np.testing.assert_allclose(g3, 3.0 * g1)


_GELU_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-310, -1e-310, 30.0, -30.0]


def _gelu_inputs(dtype):
    """Arrays over |x| <= 30 with signed zeros, subnormals, infinities and NaN mixed in."""
    width = 8 * np.dtype(dtype).itemsize
    elements = st.one_of(
        st.floats(min_value=-30.0, max_value=30.0, width=width, allow_subnormal=True),
        st.floats(min_value=-4.0, max_value=4.0, width=width),
        st.sampled_from(_GELU_SPECIALS),
    )
    return arrays(dtype, st.integers(1, 64), elements=elements)


def _oracle_gelu_forward(x):
    """The textbook tanh-GELU, in float64, with the cube spelled ``np.power``."""
    x = x.astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * np.power(x, 3))))


def _oracle_gelu_gradient(upstream, x):
    x = x.astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    tanh_inner = np.tanh(c * (x + 0.044715 * np.power(x, 3)))
    d_inner = c * (1.0 + 3.0 * 0.044715 * np.power(x, 2))
    grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * (1.0 - np.power(tanh_inner, 2)) * d_inner
    return upstream.astype(np.float64) * grad


def _assert_matches_oracle(got, want, rtol, atol):
    """``|got - want| <= rtol*|want| + atol`` where finite; NaN/inf in the same places."""
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    infinite = np.isinf(want)
    np.testing.assert_array_equal(got[infinite], want[infinite])
    finite = np.isfinite(want)
    excess = np.abs(got[finite] - want[finite]) - (rtol * np.abs(want[finite]) + atol[finite])
    assert np.all(excess <= 0.0), f"worst excess {excess.max()} over the tolerance"


class TestGeluKernel:
    """GELU's cube is spelled as products; the value, shape and cost contracts."""

    # ``1 + tanh`` (forward) and ``1 - tanh**2`` (gradient) cancel for
    # negative x, so each carries an absolute rounding error of ~eps that the
    # formula then scales by |x| (forward) or by |x|·d_inner ~ x² (gradient).
    # The relative tolerance alone cannot hold there in any dtype; the
    # absolute term below is 4 eps of that scale (measured worst case: 1 eps
    # forward, 0.5 eps gradient, over 5e5 points).
    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-13)])
    def test_forward_and_gradient_match_the_power_oracle(self, dtype, rtol):
        eps = np.finfo(dtype).eps

        @settings(max_examples=200, deadline=None)
        @given(_gelu_inputs(dtype), st.sampled_from([1.0, -0.75, 3.0, 0.0]))
        def check(x, scale):
            upstream = np.full_like(x, scale)
            magnitude = np.abs(x.astype(np.float64))
            with np.errstate(all="ignore"):
                _assert_matches_oracle(
                    GELU.forward(x),
                    _oracle_gelu_forward(x),
                    rtol,
                    4.0 * eps * np.maximum(1.0, magnitude),
                )
                _assert_matches_oracle(
                    GELU.gradient(upstream, x),
                    _oracle_gelu_gradient(upstream, x),
                    rtol,
                    4.0 * eps * abs(scale) * np.maximum(1.0, magnitude * magnitude),
                )

        check()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
    def test_stack_equals_slices_exactly(self, dtype, layout):
        """The elementwise contract the engine relies on: (K, B, units) == K × (B, units)."""
        rng = np.random.default_rng(7)
        workers, batch, units = 5, 33, 37  # odd sizes leave SIMD tails
        if layout == "contiguous":
            x = (3.0 * rng.standard_normal((workers, batch, units))).astype(dtype)
            upstream = rng.standard_normal((workers, batch, units)).astype(dtype)
        elif layout == "strided":
            x = (3.0 * rng.standard_normal((workers, batch, 2 * units))).astype(dtype)[:, :, ::2]
            upstream = rng.standard_normal((workers, batch, 2 * units)).astype(dtype)[:, :, 1::2]
        else:
            x = (3.0 * rng.standard_normal((batch, workers, units))).astype(dtype)
            x = x.transpose(1, 0, 2)
            upstream = rng.standard_normal((batch, workers, units)).astype(dtype)
            upstream = upstream.transpose(1, 0, 2)
        assert x.flags.c_contiguous == (layout == "contiguous")
        forward = GELU.forward(x)
        gradient = GELU.gradient(upstream, x)
        for k in range(workers):
            np.testing.assert_array_equal(forward[k], GELU.forward(x[k]))
            np.testing.assert_array_equal(gradient[k], GELU.gradient(upstream[k], x[k]))
            np.testing.assert_array_equal(forward[k], GELU.forward(np.ascontiguousarray(x[k])))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtype_is_preserved(self, dtype):
        x = np.linspace(-4.0, 4.0, 64, dtype=dtype).reshape(4, 16)
        assert GELU.forward(x).dtype == dtype
        assert GELU.gradient(np.ones_like(x), x).dtype == dtype

    def test_forward_costs_a_few_tanh_not_a_pow(self):
        """Cost guard: ``x**3`` is libm pow, ~170 tanh; the product cube is ~5."""
        x = np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32)
        # Time the arithmetic, not the allocator: each temporary here is
        # 256 KiB, above glibc's initial 128 KiB mmap threshold, so in a
        # process that has never freed a large block every one of them is a
        # fresh mmap + page faults + munmap (4x the arithmetic).  Freeing one
        # 16 MiB block raises the threshold, as loading a dataset does in any
        # real run; with that the ratio reads 3-6 even on a loaded host.
        block = np.empty(1 << 24, dtype=np.uint8)
        del block
        gelu = min(timeit.repeat(lambda: GELU.forward(x), number=10, repeat=5))
        tanh = min(timeit.repeat(lambda: np.tanh(x), number=10, repeat=5))
        assert gelu < 10.0 * tanh, f"GELU.forward costs {gelu / tanh:.0f} tanh"


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0]])
        probs = softmax(logits, axis=1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_log_softmax_consistent(self):
        logits = np.array([[0.3, -1.2, 2.0]])
        np.testing.assert_allclose(np.exp(log_softmax(logits)), softmax(logits))

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            (3, 5),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    def test_softmax_always_valid_distribution(self, logits):
        probs = softmax(logits, axis=1)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestGetActivation:
    def test_by_name(self):
        assert get_activation("relu") is RELU
        assert get_activation("gelu") is GELU

    def test_none_is_linear(self):
        assert get_activation(None) is LINEAR

    def test_instance_passthrough(self):
        assert get_activation(TANH) is TANH

    def test_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            get_activation("swishy")
