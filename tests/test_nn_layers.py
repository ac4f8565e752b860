"""Tests for the neural-network layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ModelNotBuiltError, ShapeError
from repro.nn.layers import (
    Activation,
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    DenseBlock,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    TransitionDown,
)


def build(layer, input_shape, seed=0):
    layer.build(input_shape, np.random.default_rng(seed))
    return layer


def check_input_gradient(layer, x, rtol=1e-5, atol=1e-7):
    """Compare the layer's backward pass against a numerical input gradient.

    The scalar objective is ``sum(weights * forward(x))`` for a fixed random
    weighting, which exercises every output element.
    """
    rng = np.random.default_rng(99)
    out = layer.forward(x, training=True)
    weights = rng.normal(size=out.shape)
    analytic = layer.backward(weights)

    epsilon = 1e-6
    numerical = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_num = numerical.reshape(-1)
    for index in range(flat_x.size):
        original = flat_x[index]
        flat_x[index] = original + epsilon
        plus = float(np.sum(weights * layer.forward(x, training=True)))
        flat_x[index] = original - epsilon
        minus = float(np.sum(weights * layer.forward(x, training=True)))
        flat_x[index] = original
        flat_num[index] = (plus - minus) / (2 * epsilon)
    np.testing.assert_allclose(analytic, numerical, rtol=rtol, atol=atol)


def check_parameter_gradients(layer, x, rtol=1e-5, atol=1e-7):
    """Compare stored parameter gradients against numerical differentiation."""
    rng = np.random.default_rng(7)
    out = layer.forward(x, training=True)
    weights = rng.normal(size=out.shape)
    layer.backward(weights)
    analytic = [g.copy() for g in layer.gradients()]

    epsilon = 1e-6
    for param, grad in zip(layer.parameters(), analytic):
        numerical = np.zeros_like(param)
        flat_param = param.reshape(-1)
        flat_num = numerical.reshape(-1)
        for index in range(flat_param.size):
            original = flat_param[index]
            flat_param[index] = original + epsilon
            plus = float(np.sum(weights * layer.forward(x, training=True)))
            flat_param[index] = original - epsilon
            minus = float(np.sum(weights * layer.forward(x, training=True)))
            flat_param[index] = original
            flat_num[index] = (plus - minus) / (2 * epsilon)
        np.testing.assert_allclose(grad, numerical, rtol=rtol, atol=atol)


class TestDense:
    def test_output_shape_and_param_count(self):
        layer = build(Dense(7), (4,))
        assert layer.output_shape == (7,)
        assert layer.num_parameters == 4 * 7 + 7

    def test_forward_matches_matrix_product(self):
        layer = build(Dense(3), (2,))
        layer.bias[...] = [0.5, -1.0, 2.0]
        x = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_input_gradient(self):
        layer = build(Dense(5, activation="gelu"), (3,))
        check_input_gradient(layer, np.random.default_rng(0).normal(size=(4, 3)))

    def test_parameter_gradients(self):
        layer = build(Dense(4, activation="relu"), (3,))
        check_parameter_gradients(layer, np.random.default_rng(1).normal(size=(5, 3)) + 0.1)

    def test_rejects_wrong_input_width(self):
        layer = build(Dense(4), (3,))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 5)))

    def test_backward_requires_training_forward(self):
        layer = build(Dense(4), (3,))
        layer.forward(np.zeros((2, 3)), training=False)
        with pytest.raises(ModelNotBuiltError):
            layer.backward(np.zeros((2, 4)))

    def test_invalid_units(self):
        with pytest.raises(ConfigurationError):
            Dense(0)


class TestConv2D:
    @pytest.mark.parametrize("kernel_size,padding", [(1, 0), (3, 1), (5, 2)])
    def test_same_padding_preserves_spatial_size(self, kernel_size, padding):
        layer = build(Conv2D(4, kernel_size=kernel_size), (6, 6, 2))
        assert layer.padding == padding
        assert layer.output_shape == (6, 6, 4)

    def test_forward_known_value(self):
        # A ones kernel sums each 3x3 neighbourhood; the zero padding shows at the borders.
        layer = build(Conv2D(1, kernel_size=3), (3, 3, 1))
        layer.weight[...] = np.ones_like(layer.weight)
        layer.bias[...] = 0.5
        x = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
        expected = np.array([[8.0, 15.0, 12.0], [21.0, 36.0, 27.0], [20.0, 33.0, 24.0]]) + 0.5
        np.testing.assert_allclose(layer.forward(x)[0, :, :, 0], expected)

    def test_one_by_one_kernel_is_a_per_pixel_product(self):
        layer = build(Conv2D(3, kernel_size=1), (4, 4, 2))
        x = np.random.default_rng(6).normal(size=(2, 4, 4, 2))
        np.testing.assert_allclose(layer.forward(x), x @ layer.weight + layer.bias)

    def test_input_gradient(self):
        layer = build(Conv2D(3, kernel_size=3, activation="gelu"), (5, 5, 2))
        check_input_gradient(layer, np.random.default_rng(3).normal(size=(2, 5, 5, 2)))

    @pytest.mark.parametrize("kernel_size", [1, 3])
    def test_parameter_gradients(self, kernel_size):
        layer = build(Conv2D(2, kernel_size=kernel_size), (4, 4, 1))
        check_parameter_gradients(layer, np.random.default_rng(4).normal(size=(2, 4, 4, 1)))

    def test_rejects_wrong_input_shape(self):
        layer = build(Conv2D(2, kernel_size=3), (6, 6, 1))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 6, 6, 2)))


class TestPooling:
    def test_maxpool_forward(self):
        layer = build(MaxPool2D(2), (4, 4, 1))
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        np.testing.assert_array_equal(
            layer.forward(x)[0, :, :, 0], [[5.0, 7.0], [13.0, 15.0]]
        )

    def test_maxpool_backward_routes_to_argmax(self):
        layer = build(MaxPool2D(2), (2, 2, 1))
        x = np.array([[[[1.0], [3.0]], [[2.0], [0.0]]]])
        layer.forward(x, training=True)
        grad = layer.backward(np.array([[[[5.0]]]]))
        np.testing.assert_array_equal(grad[0, :, :, 0], [[0.0, 5.0], [0.0, 0.0]])

    def test_maxpool_input_gradient(self):
        layer = build(MaxPool2D(2), (4, 4, 2))
        # Use well-separated values so the argmax is stable under perturbation.
        x = np.random.default_rng(0).permutation(32).astype(np.float64).reshape(1, 4, 4, 2) * 10
        check_input_gradient(layer, x)

    def test_avgpool_forward(self):
        layer = build(AvgPool2D(2), (4, 4, 1))
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        np.testing.assert_array_equal(
            layer.forward(x)[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]]
        )

    def test_avgpool_input_gradient(self):
        layer = build(AvgPool2D(2), (4, 4, 3))
        check_input_gradient(layer, np.random.default_rng(2).normal(size=(2, 4, 4, 3)))

    def test_globalavgpool(self):
        layer = build(GlobalAvgPool2D(), (3, 3, 2))
        x = np.random.default_rng(5).normal(size=(2, 3, 3, 2))
        np.testing.assert_allclose(layer.forward(x), x.mean(axis=(1, 2)))
        check_input_gradient(layer, x)


def _col2im_pool_backward_reference(layer, grad_output):
    """The pre-vectorization backward scatter (patch matrix + col2im loop).

    Kept verbatim as the reference implementation for the flat ``np.add.at``
    scatter that replaced it; exercised for both pool types (windows never
    overlap: the stride is the pool size).
    """
    from repro.nn.functional import col2im
    from repro.nn.layers import AvgPool2D as _Avg

    if isinstance(layer, _Avg):
        shape = layer._cache_shape
        rows = grad_output.shape[0] * grad_output.shape[1] * grad_output.shape[2]
        window = layer.pool_size * layer.pool_size
        channels = shape[3]
        grad_flat = grad_output.reshape(rows, channels) / float(window)
        grad_patches = np.repeat(grad_flat[:, None, :], window, axis=1)
    else:
        shape = layer._cache_shape
        rows = layer._cache_argmax.shape[0]
        window = layer.pool_size * layer.pool_size
        channels = shape[3]
        grad_patches = np.zeros((rows, window, channels), dtype=grad_output.dtype)
        grad_flat = grad_output.reshape(rows, channels)
        np.put_along_axis(
            grad_patches, layer._cache_argmax[:, None, :], grad_flat[:, None, :], axis=1
        )
    grad_columns = grad_patches.reshape(rows, window * channels)
    return col2im(
        grad_columns, shape, layer.pool_size, layer.pool_size, layer.pool_size, 0
    )


class TestPoolBackwardScatter:
    """The vectorized flat-index scatter must match the col2im reference."""

    @pytest.mark.parametrize("pool_cls", [MaxPool2D, AvgPool2D])
    @pytest.mark.parametrize("pool_size", [2, 3], ids=["2x2", "3x3"])
    def test_matches_col2im_reference(self, pool_cls, pool_size):
        rng = np.random.default_rng(42)
        layer = build(pool_cls(pool_size), (7, 7, 3))
        x = rng.normal(size=(4, 7, 7, 3))
        out = layer.forward(x, training=True)
        grad_output = rng.normal(size=out.shape)
        vectorized = layer.backward(grad_output)
        reference = _col2im_pool_backward_reference(layer, grad_output)
        np.testing.assert_allclose(vectorized, reference, rtol=1e-12, atol=1e-12)
        assert vectorized.shape == x.shape


class TestFlattenDropoutActivation:
    def test_flatten_round_trip(self):
        layer = build(Flatten(), (2, 3, 4))
        x = np.random.default_rng(0).normal(size=(5, 2, 3, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (5, 24)
        np.testing.assert_array_equal(layer.backward(out), x)

    def test_dropout_inference_is_identity(self):
        layer = build(Dropout(0.5, seed=0), (10,))
        x = np.ones((4, 10))
        np.testing.assert_array_equal(layer.forward(x, training=False), x)

    def test_dropout_training_scales_survivors(self):
        layer = build(Dropout(0.5, seed=0), (1000,))
        out = layer.forward(np.ones((1, 1000)), training=True)
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 2.0)
        assert 0.35 < survivors.size / 1000 < 0.65

    def test_dropout_backward_uses_same_mask(self):
        layer = build(Dropout(0.3, seed=1), (50,))
        out = layer.forward(np.ones((2, 50)), training=True)
        grad = layer.backward(np.ones((2, 50)))
        np.testing.assert_array_equal(grad > 0, out > 0)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)

    def test_activation_layer_gradient(self):
        layer = build(Activation("gelu"), (6,))
        check_input_gradient(layer, np.random.default_rng(0).normal(size=(3, 6)))


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        layer = build(BatchNorm(), (8,))
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(64, 8))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_statistics_move_toward_batch(self):
        layer = build(BatchNorm(), (4,))
        x = np.full((16, 4), 2.0)
        layer.forward(x, training=True)
        np.testing.assert_allclose(layer.running_mean, 0.2)  # 0.9*0 + 0.1*2

    def test_inference_uses_running_statistics(self):
        layer = build(BatchNorm(), (2,))
        train_x = np.random.default_rng(1).normal(loc=3.0, size=(100, 2))
        for _ in range(100):  # the running statistics converge to the batch's
            layer.forward(train_x, training=True)
        out = layer.forward(train_x, training=False)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=0.1)

    def test_input_gradient_dense_input(self):
        layer = build(BatchNorm(), (5,))
        check_input_gradient(
            layer, np.random.default_rng(3).normal(size=(8, 5)), rtol=1e-4, atol=1e-6
        )

    def test_input_gradient_conv_input(self):
        layer = build(BatchNorm(), (3, 3, 2))
        check_input_gradient(
            layer, np.random.default_rng(4).normal(size=(4, 3, 3, 2)), rtol=1e-4, atol=1e-6
        )

    def test_parameter_gradients(self):
        layer = build(BatchNorm(), (4,))
        check_parameter_gradients(
            layer, np.random.default_rng(5).normal(size=(6, 4)), rtol=1e-4, atol=1e-6
        )

    def test_buffers_exposed(self):
        layer = build(BatchNorm(), (4,))
        assert len(layer.buffers()) == 2


class TestCompositeLayers:
    def test_dense_block_output_channels(self):
        layer = build(DenseBlock(num_layers=2, growth_rate=3), (4, 4, 2))
        assert layer.output_shape == (4, 4, 2 + 2 * 3)

    def test_dense_block_forward_backward_shapes(self):
        layer = build(DenseBlock(num_layers=2, growth_rate=2), (4, 4, 1))
        x = np.random.default_rng(0).normal(size=(3, 4, 4, 1))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape
        assert len(layer.parameters()) == len(layer.gradients())

    def test_dense_block_gradient_check(self):
        layer = build(DenseBlock(num_layers=1, growth_rate=2), (3, 3, 1))
        check_input_gradient(
            layer, np.random.default_rng(1).normal(size=(2, 3, 3, 1)), rtol=1e-4, atol=1e-6
        )

    def test_transition_down_halves_spatial_size(self):
        layer = build(TransitionDown(0.5), (6, 6, 8))
        assert layer.output_shape == (3, 3, 4)

    def test_transition_down_forward_backward(self):
        layer = build(TransitionDown(0.5), (4, 4, 4))
        x = np.random.default_rng(2).normal(size=(2, 4, 4, 4))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            DenseBlock(0, 4)
        with pytest.raises(ConfigurationError):
            TransitionDown(0.0)
