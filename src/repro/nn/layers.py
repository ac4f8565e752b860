"""Neural-network layers with explicit forward and backward passes.

Every layer follows the same minimal contract:

* ``build(input_shape, rng)`` allocates parameters for a given per-sample
  input shape (no batch dimension) and returns the per-sample output shape;
* ``forward(x, training)`` computes the output, caching whatever the backward
  pass will need;
* ``backward(grad_output)`` consumes the upstream gradient, stores parameter
  gradients internally, and returns the gradient w.r.t. the layer input;
* ``PARAMETERS`` / ``BUFFERS`` name the arrays the layer owns (a composite builds
  its ``sublayers()`` instead); ``parameters()`` / ``gradients()`` /
  ``buffers()`` and the plane's ``*_refs()`` are all derived from that one
  declaration, in the order the model flattens them into the single parameter
  vector the FDA algorithm works on.

Image tensors use the NHWC layout.  Arithmetic is dtype-preserving: every
kernel computes in the dtype of the plane-owned arrays it touches (float64 —
the reference mode with headroom for the suite's gradient checks — or the
float32 fast mode; see :mod:`repro.backend`).  Constants are Python floats,
which NumPy's weak promotion keeps from upcasting float32 operands.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ModelNotBuiltError, ShapeError
from repro.nn.activations import ActivationFunction, get_activation
from repro.nn.functional import (
    avg_pool_backward,
    col2im,
    conv_output_size,
    flatten_batch,
    global_average_pool,
    im2col,
    max_pool_backward,
)
from repro.nn.initializers import get_initializer, ones_init, zeros_init

Shape = Tuple[int, ...]

#: A reference to an array-valued attribute, see :mod:`repro.nn.plane`.
ArrayRef = Tuple[object, str]


class Layer:
    """Base class for all layers."""

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name or type(self).__name__.lower()
        self.built = False
        self.input_shape: Optional[Shape] = None
        self.output_shape: Optional[Shape] = None
        self._children: Sequence["Layer"] = ()
        self._clear_owned()

    # -- construction ------------------------------------------------------

    def build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        """Allocate parameters for ``input_shape`` and return the output shape."""
        self.input_shape = tuple(input_shape)
        self.output_shape = self._build(self.input_shape, rng)
        self.built = True
        return self.output_shape

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        raise NotImplementedError

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- owned arrays ---------------------------------------------------------
    #
    # A layer says what it owns once: the names of its trainable arrays (each
    # ``name`` has its gradient in ``_grad_<name>``; ``bias`` is owned only
    # with ``use_bias``) and of its non-trainable buffers, in flat-vector
    # order.  A composite owns nothing itself: it builds its ``_children``.

    PARAMETERS: Tuple[str, ...] = ()
    BUFFERS: Tuple[str, ...] = ()

    def sublayers(self) -> Sequence["Layer"]:
        """A composite's child layers, in flat-vector order (a leaf has none)."""
        return self._children

    def with_sublayers(self, children: Sequence) -> "Layer":
        """A shallow copy of this composite that computes through ``children``.

        Anything with the children's ``forward`` / ``backward`` signatures
        will do: the batched engine passes their kernels, so a composite's
        arithmetic is written once (see :class:`repro.nn.batched.CompositeKernel`).
        """
        dup = copy.copy(self)
        dup._children = list(children)
        return dup

    def parameter_refs(self) -> List[ArrayRef]:
        """``(holder, attribute)`` pairs, one per trainable array.

        The :class:`~repro.nn.plane.ParameterPlane` uses these to replace the
        layer's arrays with views into the model's contiguous flat vector.
        """
        own = [(self, name) for name in self.PARAMETERS if name != "bias" or self.use_bias]
        return own + [ref for child in self.sublayers() for ref in child.parameter_refs()]

    def gradient_refs(self) -> List[ArrayRef]:
        """``(holder, attribute)`` pairs aligned with :meth:`parameter_refs`."""
        return [(holder, f"_grad_{name}") for holder, name in self.parameter_refs()]

    def buffer_refs(self) -> List[ArrayRef]:
        """``(holder, attribute)`` pairs, one per non-trainable state array."""
        own = [(self, name) for name in self.BUFFERS]
        return own + [ref for child in self.sublayers() for ref in child.buffer_refs()]

    def _arrays(self, refs: List[ArrayRef]) -> List[np.ndarray]:
        if refs:
            self._require_built()
        return [getattr(holder, name) for holder, name in refs]

    def parameters(self) -> List[np.ndarray]:
        """Trainable parameter arrays (possibly empty)."""
        return self._arrays(self.parameter_refs())

    def gradients(self) -> List[np.ndarray]:
        """Gradient arrays aligned one-to-one with :meth:`parameters`."""
        return self._arrays(self.gradient_refs())

    def buffers(self) -> List[np.ndarray]:
        """Non-trainable state arrays (e.g. batch-norm running statistics)."""
        return self._arrays(self.buffer_refs())

    def fresh(self) -> "Layer":
        """An unbuilt copy of this layer carrying only its constructor config.

        Used by :meth:`Sequential.clone` to rebuild a model structurally
        instead of deep-copying built layers (which would also snapshot
        transient activation caches).  Configuration objects (activations,
        initializers) are shared — they are stateless.
        """
        dup = copy.copy(self)
        dup.built = False
        dup.input_shape = None
        dup.output_shape = None
        dup._children = ()
        dup._clear_owned()
        dup._fresh_reset()
        return dup

    def _clear_owned(self) -> None:
        """Every owned array (and gradient) unallocated, as before ``build``."""
        for name in self.PARAMETERS:
            setattr(self, name, None)
            setattr(self, f"_grad_{name}", None)
        for name in self.BUFFERS:
            setattr(self, name, None)

    def _fresh_reset(self) -> None:
        """Subclasses clear caches here (owned arrays and children are already cleared)."""

    @property
    def num_parameters(self) -> int:
        """Total number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.parameters()))

    @property
    def rng(self) -> Optional[np.random.Generator]:
        """The layer's private random stream (``None``: the layer draws nothing)."""
        return None

    def _require_built(self) -> None:
        if not self.built:
            raise ModelNotBuiltError(f"layer {self.name!r} has not been built yet")

    def __repr__(self) -> str:
        shape = self.output_shape if self.built else "unbuilt"
        return f"{type(self).__name__}(name={self.name!r}, output_shape={shape})"


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b`` with an optional activation."""

    PARAMETERS = ("weight", "bias")

    def __init__(
        self,
        units: int,
        activation=None,
        use_bias: bool = True,
        kernel_initializer="glorot_uniform",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if units <= 0:
            raise ConfigurationError(f"units must be positive, got {units}")
        self.units = int(units)
        self.activation: ActivationFunction = get_activation(activation)
        self.use_bias = bool(use_bias)
        self.kernel_initializer = get_initializer(kernel_initializer)
        self._cache_x: Optional[np.ndarray] = None
        self._cache_act: Optional[np.ndarray] = None

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        if len(input_shape) != 1:
            raise ShapeError(
                f"Dense expects flat inputs of shape (features,), got {input_shape}"
            )
        fan_in = int(input_shape[0])
        fan_out = self.units
        self.weight = self.kernel_initializer((fan_in, fan_out), fan_in, fan_out, rng)
        self._grad_weight = np.zeros_like(self.weight)
        if self.use_bias:
            self.bias = zeros_init((fan_out,), fan_in, fan_out, rng)
            self._grad_bias = np.zeros_like(self.bias)
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise ShapeError(
                f"Dense {self.name!r} expected input of shape (N, {self.weight.shape[0]}), "
                f"got {x.shape}"
            )
        pre = x @ self.weight
        if self.use_bias:
            pre = pre + self.bias
        out = self.activation.forward(pre)
        if training:
            self._cache_x = x
            self._cache_act = pre if self.activation.cache_input else out
        return out

    def backward(self, grad_output: np.ndarray, input_gradient: bool = True):
        """Parameter gradients; returns ∂L/∂input unless ``input_gradient`` is off."""
        self._require_built()
        if self._cache_x is None:
            raise ModelNotBuiltError(
                f"Dense {self.name!r}: backward called without a training forward pass"
            )
        grad_pre = self.activation.gradient(grad_output, self._cache_act)
        self._grad_weight[...] = self._cache_x.T @ grad_pre
        if self.use_bias:
            self._grad_bias[...] = grad_pre.sum(axis=0)
        return grad_pre @ self.weight.T if input_gradient else None

    def _fresh_reset(self) -> None:
        self._cache_x = None
        self._cache_act = None


class Conv2D(Layer):
    """2-D convolution over NHWC tensors, implemented with im2col."""

    PARAMETERS = ("weight", "bias")

    def __init__(
        self,
        filters: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: str = "same",
        activation=None,
        use_bias: bool = True,
        kernel_initializer="glorot_uniform",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if filters <= 0:
            raise ConfigurationError(f"filters must be positive, got {filters}")
        if kernel_size <= 0:
            raise ConfigurationError(f"kernel_size must be positive, got {kernel_size}")
        if stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {stride}")
        if padding not in ("same", "valid"):
            raise ConfigurationError(f"padding must be 'same' or 'valid', got {padding!r}")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding_mode = padding
        self.activation: ActivationFunction = get_activation(activation)
        self.use_bias = bool(use_bias)
        self.kernel_initializer = get_initializer(kernel_initializer)
        self._padding_amount = 0
        self._cache_columns: Optional[np.ndarray] = None
        self._cache_input_shape: Optional[Tuple[int, int, int, int]] = None
        self._cache_act: Optional[np.ndarray] = None

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        if len(input_shape) != 3:
            raise ShapeError(f"Conv2D expects (H, W, C) inputs, got {input_shape}")
        height, width, channels = input_shape
        if self.padding_mode == "same":
            if self.stride != 1:
                raise ConfigurationError(
                    "padding='same' is only supported with stride=1 in this implementation"
                )
            self._padding_amount = (self.kernel_size - 1) // 2
        else:
            self._padding_amount = 0
        out_h = conv_output_size(height, self.kernel_size, self.stride, self._padding_amount)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self._padding_amount)
        fan_in = self.kernel_size * self.kernel_size * channels
        fan_out = self.kernel_size * self.kernel_size * self.filters
        # (kh*kw*cin, filters): one GEMM column block per filter.
        self.weight = self.kernel_initializer((fan_in, self.filters), fan_in, fan_out, rng)
        self._grad_weight = np.zeros_like(self.weight)
        if self.use_bias:
            self.bias = zeros_init((self.filters,), fan_in, fan_out, rng)
            self._grad_bias = np.zeros_like(self.bias)
        return (out_h, out_w, self.filters)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"Conv2D {self.name!r} expected input of shape (N, *{self.input_shape}), "
                f"got {x.shape}"
            )
        columns, (out_h, out_w) = im2col(
            x, self.kernel_size, self.kernel_size, self.stride, self._padding_amount
        )
        pre = columns @ self.weight
        if self.use_bias:
            pre = pre + self.bias
        pre = pre.reshape(x.shape[0], out_h, out_w, self.filters)
        out = self.activation.forward(pre)
        if training:
            self._cache_columns = columns
            self._cache_input_shape = x.shape
            self._cache_act = pre if self.activation.cache_input else out
        return out

    def backward(self, grad_output: np.ndarray, input_gradient: bool = True):
        """Parameter gradients; returns ∂L/∂input unless ``input_gradient`` is off."""
        self._require_built()
        if self._cache_columns is None:
            raise ModelNotBuiltError(
                f"Conv2D {self.name!r}: backward called without a training forward pass"
            )
        grad_pre = self.activation.gradient(grad_output, self._cache_act)
        batch = self._cache_input_shape[0]
        grad_matrix = grad_pre.reshape(batch * grad_pre.shape[1] * grad_pre.shape[2], self.filters)
        self._grad_weight[...] = self._cache_columns.T @ grad_matrix
        if self.use_bias:
            self._grad_bias[...] = grad_matrix.sum(axis=0)
        if not input_gradient:
            return None
        grad_columns = grad_matrix @ self.weight.T
        return col2im(
            grad_columns,
            self._cache_input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self._padding_amount,
        )

    def _fresh_reset(self) -> None:
        self._padding_amount = 0
        self._cache_columns = None
        self._cache_input_shape = None
        self._cache_act = None


class _Pool2D(Layer):
    """Shared geometry handling for max/average pooling."""

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None, name=None) -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ConfigurationError(f"pool_size must be positive, got {pool_size}")
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else int(pool_size)
        if self.stride <= 0:
            raise ConfigurationError(f"stride must be positive, got {stride}")

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        del rng
        if len(input_shape) != 3:
            raise ShapeError(f"{type(self).__name__} expects (H, W, C) inputs, got {input_shape}")
        height, width, channels = input_shape
        out_h = conv_output_size(height, self.pool_size, self.stride, 0)
        out_w = conv_output_size(width, self.pool_size, self.stride, 0)
        return (out_h, out_w, channels)

    def _columns(self, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        columns, out_hw = im2col(x, self.pool_size, self.pool_size, self.stride, 0)
        channels = x.shape[3]
        # (rows, pool_size*pool_size, C): patch window is contiguous before channels.
        return columns.reshape(columns.shape[0], self.pool_size * self.pool_size, channels), out_hw


class MaxPool2D(_Pool2D):
    """Max pooling over non-overlapping (or strided) windows."""

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None, name=None) -> None:
        super().__init__(pool_size, stride, name)
        self._cache_argmax: Optional[np.ndarray] = None
        self._cache_shape: Optional[Tuple[int, int, int, int]] = None

    def _fresh_reset(self) -> None:
        self._cache_argmax = None
        self._cache_shape = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        patches, (out_h, out_w) = self._columns(x)
        argmax = patches.argmax(axis=1)
        output = np.take_along_axis(patches, argmax[:, None, :], axis=1)[:, 0, :]
        output = output.reshape(x.shape[0], out_h, out_w, x.shape[3])
        if training:
            self._cache_argmax = argmax
            self._cache_shape = x.shape
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._cache_argmax is None:
            raise ModelNotBuiltError(
                f"MaxPool2D {self.name!r}: backward called without a training forward pass"
            )
        # One flat argmax-indexed scatter instead of the patch-matrix +
        # per-kernel-position col2im loop; see nn.functional.max_pool_backward.
        return max_pool_backward(
            self._cache_argmax, grad_output, self._cache_shape, self.pool_size, self.stride
        )


class AvgPool2D(_Pool2D):
    """Average pooling over (possibly strided) windows."""

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None, name=None) -> None:
        super().__init__(pool_size, stride, name)
        self._cache_shape: Optional[Tuple[int, int, int, int]] = None

    def _fresh_reset(self) -> None:
        self._cache_shape = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        patches, (out_h, out_w) = self._columns(x)
        output = patches.mean(axis=1).reshape(x.shape[0], out_h, out_w, x.shape[3])
        if training:
            self._cache_shape = x.shape
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._cache_shape is None:
            raise ModelNotBuiltError(
                f"AvgPool2D {self.name!r}: backward called without a training forward pass"
            )
        # Strided window adds of the shared gradient; see nn.functional.avg_pool_backward.
        return avg_pool_backward(
            grad_output, self._cache_shape, self.pool_size, self.stride
        )


class GlobalAvgPool2D(Layer):
    """Global average pooling: NHWC -> (N, C)."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self._cache_shape: Optional[Tuple[int, int, int, int]] = None

    def _fresh_reset(self) -> None:
        self._cache_shape = None

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        del rng
        if len(input_shape) != 3:
            raise ShapeError(f"GlobalAvgPool2D expects (H, W, C) inputs, got {input_shape}")
        return (input_shape[2],)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        if training:
            self._cache_shape = x.shape
        return global_average_pool(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._cache_shape is None:
            raise ModelNotBuiltError(
                f"GlobalAvgPool2D {self.name!r}: backward called without a training forward pass"
            )
        batch, height, width, channels = self._cache_shape
        scale = 1.0 / float(height * width)
        grad = np.broadcast_to(
            grad_output[:, None, None, :] * scale, (batch, height, width, channels)
        )
        return np.ascontiguousarray(grad)


class Flatten(Layer):
    """Flatten all non-batch dimensions."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self._cache_shape: Optional[Tuple[int, ...]] = None

    def _fresh_reset(self) -> None:
        self._cache_shape = None

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        del rng
        size = 1
        for dim in input_shape:
            size *= int(dim)
        return (size,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        if training:
            self._cache_shape = x.shape
        return flatten_batch(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._cache_shape is None:
            raise ModelNotBuiltError(
                f"Flatten {self.name!r}: backward called without a training forward pass"
            )
        return grad_output.reshape(self._cache_shape)


class Dropout(Layer):
    """Inverted dropout: active only during training."""

    def __init__(self, rate: float, seed: Optional[int] = None, name: Optional[str] = None) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = np.random.default_rng(seed)
        self._cache_mask: Optional[np.ndarray] = None

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def _fresh_reset(self) -> None:
        # The RNG is stateful: a clone must advance independently of the original.
        self._rng = copy.deepcopy(self._rng)
        self._cache_mask = None

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        del rng
        return tuple(input_shape)

    def sample_mask(self, shape: Shape, dtype=np.float64) -> np.ndarray:
        """Draw one inverted-dropout mask for ``shape`` from the private stream.

        The single place the layer's RNG is consumed: the layer's own
        :meth:`forward` and the batched kernel
        (:class:`repro.nn.batched.BatchedDropout`) both call it, so a worker
        replays exactly the same mask stream whichever of the two runs it.  The RNG draw
        itself is always float64 (dtype does not perturb the stream); the
        returned mask is materialized in ``dtype`` so a float32 activation is
        not upcast by the multiply.
        """
        keep = 1.0 - self.rate
        mask = (self._rng.random(shape) < keep).astype(dtype)
        mask /= keep
        return mask

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        if not training or self.rate == 0.0:
            self._cache_mask = None
            return x
        mask = self.sample_mask(x.shape, dtype=x.dtype)
        self._cache_mask = mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._cache_mask is None:
            return grad_output
        return grad_output * self._cache_mask


class BatchNorm(Layer):
    """Batch normalization over the last axis (channels or features).

    Trainable scale/shift (``gamma``/``beta``) are part of the model's flat
    parameter vector; running mean/variance are exposed via :meth:`buffers`
    and synchronized alongside the parameters by the distributed strategies.
    """

    PARAMETERS = ("gamma", "beta")
    BUFFERS = ("running_mean", "running_var")

    def __init__(
        self, momentum: float = 0.9, epsilon: float = 1e-5, name: Optional[str] = None
    ) -> None:
        super().__init__(name)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must lie in [0, 1), got {momentum}")
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        channels = int(input_shape[-1])
        self.gamma = ones_init((channels,), channels, channels, rng)
        self.beta = zeros_init((channels,), channels, channels, rng)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self._grad_gamma = np.zeros_like(self.gamma)
        self._grad_beta = np.zeros_like(self.beta)
        return tuple(input_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        axes = tuple(range(x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean[...] = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var[...] = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        normalized = (x - mean) * inv_std
        out = self.gamma * normalized + self.beta
        if training:
            self._cache = (normalized, inv_std)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._cache is None:
            raise ModelNotBuiltError(
                f"BatchNorm {self.name!r}: backward called without a training forward pass"
            )
        normalized, inv_std = self._cache
        axes = tuple(range(grad_output.ndim - 1))  # all batch + spatial axes
        self._grad_gamma[...] = (grad_output * normalized).sum(axis=axes)
        self._grad_beta[...] = grad_output.sum(axis=axes)
        grad_normalized = grad_output * self.gamma
        mean_grad = grad_normalized.mean(axis=axes)
        mean_grad_normalized = (grad_normalized * normalized).mean(axis=axes)
        grad_input = inv_std * (grad_normalized - mean_grad - normalized * mean_grad_normalized)
        return grad_input

    def _fresh_reset(self) -> None:
        self._cache = None


class Activation(Layer):
    """Standalone activation layer (useful between BatchNorm and Conv2D)."""

    def __init__(self, activation, name: Optional[str] = None) -> None:
        super().__init__(name)
        self.activation: ActivationFunction = get_activation(activation)
        self._cache: Optional[np.ndarray] = None

    def _fresh_reset(self) -> None:
        self._cache = None

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        del rng
        return tuple(input_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        out = self.activation.forward(x)
        if training:
            self._cache = x if self.activation.cache_input else out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._cache is None:
            raise ModelNotBuiltError(
                f"Activation {self.name!r}: backward called without a training forward pass"
            )
        return self.activation.gradient(grad_output, self._cache)


class DenseBlock(Layer):
    """A DenseNet-style block of ``num_layers`` BN-ReLU-Conv(3x3) units.

    The output of every unit is concatenated (along channels) with its input,
    exactly like the dense connectivity pattern of DenseNet.  Used by
    :func:`repro.nn.architectures.densenet_mini` as the scaled-down stand-in
    for DenseNet121/201.
    """

    def __init__(
        self,
        num_layers: int,
        growth_rate: int,
        kernel_initializer="he_normal",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if num_layers <= 0:
            raise ConfigurationError(f"num_layers must be positive, got {num_layers}")
        if growth_rate <= 0:
            raise ConfigurationError(f"growth_rate must be positive, got {growth_rate}")
        self.num_layers = int(num_layers)
        self.growth_rate = int(growth_rate)
        self.kernel_initializer = kernel_initializer
        self._cache_inputs: List[np.ndarray] = []

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        if len(input_shape) != 3:
            raise ShapeError(f"DenseBlock expects (H, W, C) inputs, got {input_shape}")
        height, width, channels = input_shape
        self._children = []
        current_channels = channels
        for index in range(self.num_layers):
            norm = BatchNorm(name=f"{self.name}_bn{index}")
            conv = Conv2D(
                self.growth_rate,
                kernel_size=3,
                stride=1,
                padding="same",
                activation=None,
                kernel_initializer=self.kernel_initializer,
                name=f"{self.name}_conv{index}",
            )
            norm.build((height, width, current_channels), rng)
            conv.build((height, width, current_channels), rng)
            self._children += [norm, conv]
            current_channels += self.growth_rate
        return (height, width, current_channels)

    def _units(self) -> List[Tuple[Layer, Layer]]:
        """The ``(BatchNorm, Conv2D)`` pairs, in order."""
        return list(zip(self._children[0::2], self._children[1::2]))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        features = x
        self._cache_inputs = []
        for norm, conv in self._units():
            normalized = norm.forward(features, training)
            activated = np.maximum(normalized, 0.0)
            if training:
                self._cache_inputs.append(activated)
            new_features = conv.forward(activated, training)
            features = np.concatenate([features, new_features], axis=-1)
        return features

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_built()
        if not self._cache_inputs:
            raise ModelNotBuiltError(
                f"DenseBlock {self.name!r}: backward called without a training forward pass"
            )
        grad_features = grad_output
        for (norm, conv), activated in zip(reversed(self._units()), reversed(self._cache_inputs)):
            channels = activated.shape[-1]  # the unit's input; the rest is what it added
            grad_activated = conv.backward(np.ascontiguousarray(grad_features[..., channels:]))
            grad_activated = grad_activated * (activated > 0.0)
            grad_features = grad_features[..., :channels] + norm.backward(grad_activated)
        return grad_features

    def _fresh_reset(self) -> None:
        self._cache_inputs = []


class TransitionDown(Layer):
    """DenseNet transition layer: BatchNorm -> 1x1 Conv (compression) -> 2x2 AvgPool."""

    def __init__(
        self,
        compression: float = 0.5,
        kernel_initializer="he_normal",
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name)
        if not 0.0 < compression <= 1.0:
            raise ConfigurationError(f"compression must lie in (0, 1], got {compression}")
        self.compression = float(compression)
        self.kernel_initializer = kernel_initializer
        self._cache_normalized: Optional[np.ndarray] = None

    def _build(self, input_shape: Shape, rng: np.random.Generator) -> Shape:
        if len(input_shape) != 3:
            raise ShapeError(f"TransitionDown expects (H, W, C) inputs, got {input_shape}")
        height, width, channels = input_shape
        out_channels = max(1, int(round(channels * self.compression)))
        norm = BatchNorm(name=f"{self.name}_bn")
        conv = Conv2D(
            out_channels,
            kernel_size=1,
            stride=1,
            padding="valid",
            activation=None,
            kernel_initializer=self.kernel_initializer,
            name=f"{self.name}_conv",
        )
        pool = AvgPool2D(pool_size=2, name=f"{self.name}_pool")
        self._children = [norm, conv, pool]
        shape = (height, width, channels)
        for child in self._children:
            shape = child.build(shape, rng)
        return shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._require_built()
        norm, conv, pool = self._children
        activated = np.maximum(norm.forward(x, training), 0.0)
        if training:
            self._cache_normalized = activated
        return pool.forward(conv.forward(activated, training), training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self._require_built()
        if self._cache_normalized is None:
            raise ModelNotBuiltError(
                f"TransitionDown {self.name!r}: backward called without a training forward pass"
            )
        norm, conv, pool = self._children
        grad = conv.backward(pool.backward(grad_output))
        return norm.backward(grad * (self._cache_normalized > 0.0))

    def _fresh_reset(self) -> None:
        self._cache_normalized = None
