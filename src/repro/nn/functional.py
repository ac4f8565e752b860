"""Low-level tensor helpers shared by the convolutional layers.

All image tensors use the NHWC layout (batch, height, width, channels).  The
conv/pool layers are implemented with im2col/col2im so the inner loop is a
single matrix multiplication, which is the standard way to get acceptable
convolution speed in pure NumPy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ShapeError


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad_nhwc(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the spatial dimensions of an NHWC tensor."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)), mode="constant")


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold NHWC patches into a matrix of shape (N * out_h * out_w, kernel_h * kernel_w * C).

    Returns the patch matrix and the (out_h, out_w) spatial output size.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects an NHWC tensor, got shape {x.shape}")
    batch, height, width, channels = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    padded = pad_nhwc(x, padding)

    # Gather patches with stride tricks: shape (N, out_h, out_w, kernel_h, kernel_w, C).
    batch_stride, row_stride, col_stride, chan_stride = padded.strides
    patches = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, out_h, out_w, kernel_h, kernel_w, channels),
        strides=(
            batch_stride,
            row_stride * stride,
            col_stride * stride,
            row_stride,
            col_stride,
            chan_stride,
        ),
        writeable=False,
    )
    columns = patches.reshape(batch * out_h * out_w, kernel_h * kernel_w * channels)
    return np.ascontiguousarray(columns), (out_h, out_w)


def col2im(
    columns: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a patch-gradient matrix back into an NHWC tensor (adjoint of im2col)."""
    batch, height, width, channels = input_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    expected_rows = batch * out_h * out_w
    expected_cols = kernel_h * kernel_w * channels
    if columns.shape != (expected_rows, expected_cols):
        raise ShapeError(
            f"col2im expected columns of shape {(expected_rows, expected_cols)}, "
            f"got {columns.shape}"
        )

    padded = np.zeros(
        (batch, height + 2 * padding, width + 2 * padding, channels), dtype=columns.dtype
    )
    patches = columns.reshape(batch, out_h, out_w, kernel_h, kernel_w, channels)
    for i in range(kernel_h):
        row_end = i + stride * out_h
        for j in range(kernel_w):
            col_end = j + stride * out_w
            padded[:, i:row_end:stride, j:col_end:stride, :] += patches[:, :, :, i, j, :]
    if padding == 0:
        return padded
    return padded[:, padding:-padding, padding:-padding, :]


def _pool_row_coordinates(
    input_shape: Tuple[int, int, int, int], out_h: int, out_w: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-output-row (sample, out-row, out-col) coordinates for pooling scatter.

    Pooling rows enumerate ``(n, oh, ow)`` in C order, exactly the layout
    produced by :func:`im2col` on an unpadded NHWC tensor.
    """
    batch = input_shape[0]
    row_ids = np.arange(batch * out_h * out_w)
    sample = row_ids // (out_h * out_w)
    remainder = row_ids % (out_h * out_w)
    return sample, remainder // out_w, remainder % out_w


def max_pool_backward(
    argmax: np.ndarray,
    grad_output: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    pool_size: int,
) -> np.ndarray:
    """Adjoint of max pooling via one flat ``np.add.at`` scatter.

    ``argmax`` is the ``(rows, channels)`` within-window winner index cached
    by the forward pass (``rows = N * out_h * out_w``).  Each pooled gradient
    is routed straight to its winning input element by flat indexing — no
    patch-matrix materialization, no per-kernel-position ``col2im`` loop.
    Windows do not overlap (stride = ``pool_size``), so no two gradients share
    a target; ``np.add.at`` stays all the same, because adding into zeros
    turns a ``-0.0`` gradient into ``+0.0`` as the ``col2im`` reference does,
    where a plain fancy-index assignment would store it as ``-0.0``.
    """
    batch, height, width, channels = input_shape
    out_h, out_w = grad_output.shape[1], grad_output.shape[2]
    rows = batch * out_h * out_w
    sample, out_row, out_col = _pool_row_coordinates(input_shape, out_h, out_w)
    in_row = out_row[:, None] * pool_size + argmax // pool_size
    in_col = out_col[:, None] * pool_size + argmax % pool_size
    flat_index = (
        (sample[:, None] * height + in_row) * width + in_col
    ) * channels + np.arange(channels)[None, :]
    grad_input = np.zeros(batch * height * width * channels, dtype=grad_output.dtype)
    np.add.at(grad_input, flat_index.ravel(), grad_output.reshape(rows * channels))
    return grad_input.reshape(input_shape)


def avg_pool_backward(
    grad_output: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    pool_size: int,
) -> np.ndarray:
    """Adjoint of average pooling via ``pool_size²`` strided window adds.

    Every input element covered by a window receives ``grad / window`` from
    that window, matching ``col2im``.  Unlike max pooling there are no
    data-dependent indices here, so a gather/scatter (``np.add.at``) would
    only add overhead — each within-window offset ``(i, j)`` contributes the
    *same* share tensor to a strided slice of the input, which is a plain
    vectorized add (and skips the old path's materialization of the full
    patch matrix).
    """
    out_h, out_w = grad_output.shape[1], grad_output.shape[2]
    share = grad_output / float(pool_size * pool_size)
    grad_input = np.zeros(input_shape, dtype=grad_output.dtype)
    for i in range(pool_size):
        row_end = i + pool_size * out_h
        for j in range(pool_size):
            col_end = j + pool_size * out_w
            grad_input[:, i:row_end:pool_size, j:col_end:pool_size, :] += share
    return grad_input


def flatten_batch(x: np.ndarray) -> np.ndarray:
    """Flatten everything but the batch dimension."""
    return x.reshape(x.shape[0], -1)


def global_average_pool(x: np.ndarray) -> np.ndarray:
    """Average over the spatial dimensions of an NHWC tensor, giving (N, C)."""
    if x.ndim != 4:
        raise ShapeError(f"global_average_pool expects an NHWC tensor, got shape {x.shape}")
    return x.mean(axis=(1, 2))
