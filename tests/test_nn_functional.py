"""Tests for the low-level tensor helpers (im2col/col2im, one-hot, pooling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.oracles import one_hot
from repro.exceptions import ShapeError
from repro.nn.functional import (
    col2im,
    conv_output_size,
    flatten_batch,
    global_average_pool,
    im2col,
    pad_nhwc,
)


class TestOneHot:
    def test_basic_encoding(self):
        encoded = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            one_hot(np.array([0, 3]), 3)

    def test_rejects_2d_labels(self):
        with pytest.raises(ShapeError):
            one_hot(np.zeros((2, 2), dtype=int), 3)

    def test_empty_labels(self):
        assert one_hot(np.array([], dtype=int), 4).shape == (0, 4)


class TestConvOutputSize:
    def test_typical_cases(self):
        assert conv_output_size(28, 3, 1, 1) == 28
        assert conv_output_size(28, 2, 2, 0) == 14
        assert conv_output_size(10, 3, 1, 0) == 8

    def test_invalid_geometry_raises(self):
        with pytest.raises(ShapeError):
            conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_identity_kernel_recovers_input(self):
        x = np.arange(2 * 3 * 3 * 2, dtype=np.float64).reshape(2, 3, 3, 2)
        columns, (out_h, out_w) = im2col(x, 1, 1, 1, 0)
        assert (out_h, out_w) == (3, 3)
        np.testing.assert_array_equal(columns.reshape(2, 3, 3, 2), x)

    def test_known_patch_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 4, 4, 1)
        columns, (out_h, out_w) = im2col(x, 2, 2, 2, 0)
        assert (out_h, out_w) == (2, 2)
        np.testing.assert_array_equal(columns[0], [0, 1, 4, 5])
        np.testing.assert_array_equal(columns[3], [10, 11, 14, 15])

    def test_padding_adds_zeros(self):
        x = np.ones((1, 2, 2, 1))
        columns, (out_h, out_w) = im2col(x, 3, 3, 1, 1)
        assert (out_h, out_w) == (2, 2)
        # Corner patch includes 5 zero-padded positions.
        assert columns[0].sum() == 4.0

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((3, 3)), 2, 2, 1, 0)

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> for the linear operator pair.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 5, 3))
        columns, _ = im2col(x, 3, 3, 1, 1)
        y = rng.normal(size=columns.shape)
        lhs = float(np.sum(columns * y))
        rhs = float(np.sum(x * col2im(y, x.shape, 3, 3, 1, 1)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_shape_validation(self):
        with pytest.raises(ShapeError):
            col2im(np.zeros((3, 4)), (1, 4, 4, 1), 2, 2, 2, 0)

    @settings(max_examples=20, deadline=None)
    @given(
        kernel=st.integers(min_value=1, max_value=3),
        stride=st.integers(min_value=1, max_value=2),
        size=st.integers(min_value=4, max_value=7),
    )
    def test_adjoint_property_randomized(self, kernel, stride, size):
        rng = np.random.default_rng(size * 10 + kernel)
        x = rng.normal(size=(1, size, size, 2))
        columns, _ = im2col(x, kernel, kernel, stride, 0)
        y = rng.normal(size=columns.shape)
        lhs = float(np.sum(columns * y))
        rhs = float(np.sum(x * col2im(y, x.shape, kernel, kernel, stride, 0)))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestPaddingAndPooling:
    def test_pad_nhwc_zero_is_noop(self):
        x = np.ones((1, 2, 2, 1))
        assert pad_nhwc(x, 0) is x

    def test_pad_nhwc_shape(self):
        assert pad_nhwc(np.ones((2, 3, 3, 4)), 2).shape == (2, 7, 7, 4)

    def test_flatten_batch(self):
        assert flatten_batch(np.zeros((5, 2, 3, 4))).shape == (5, 24)

    def test_global_average_pool(self):
        x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
        pooled = global_average_pool(x)
        np.testing.assert_allclose(pooled, [[3.0, 4.0]])

    def test_global_average_pool_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            global_average_pool(np.zeros((2, 3)))
