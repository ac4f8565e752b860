"""Elementwise activation functions with explicit derivatives.

Each activation is a pair ``(forward, backward)`` where ``backward`` maps the
upstream gradient and the cached forward *output* (or input, where noted) to
the downstream gradient.  Keeping them as plain functions keeps the layer code
in :mod:`repro.nn.layers` free of activation-specific branches.

Every activation here is strictly elementwise, so the same function objects
serve a single layer's ``(B, ...)`` tensors and the engine's ``(K, B, ...)``
tensors with a leading worker axis, with identical per-element arithmetic
(see :mod:`repro.nn.batched`).  ``softmax``/``log_softmax`` reduce over ``axis``
only, so the same ``axis=-1`` invocation covers both layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ActivationFunction:
    """An activation: forward pass plus gradient w.r.t. its input.

    ``gradient(upstream, cached)`` receives whatever ``forward`` asked to
    cache (``cache_input=True`` means the input is cached, otherwise the
    output), so each activation can pick the cheaper representation.
    """

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cache_input: bool = False


def _relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_gradient(upstream: np.ndarray, output: np.ndarray) -> np.ndarray:
    return upstream * (output > 0.0)


def _leaky_relu_forward(x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    return np.where(x >= 0.0, x, alpha * x)


def _leaky_relu_gradient(upstream: np.ndarray, x: np.ndarray, alpha: float = 0.01) -> np.ndarray:
    return upstream * np.where(x >= 0.0, 1.0, alpha)


def _sigmoid_forward(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def _sigmoid_gradient(upstream: np.ndarray, output: np.ndarray) -> np.ndarray:
    return upstream * output * (1.0 - output)


def _tanh_forward(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_gradient(upstream: np.ndarray, output: np.ndarray) -> np.ndarray:
    return upstream * (1.0 - output * output)


def _linear_forward(x: np.ndarray) -> np.ndarray:
    return x


def _linear_gradient(upstream: np.ndarray, output: np.ndarray) -> np.ndarray:
    del output
    return upstream


# A Python float, not an np.float64 scalar: weak promotion then keeps the
# constant from upcasting float32 activations.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu_inner(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(c * (x + 0.044715 * x^3), x^2)``: the tanh argument and the shared square.

    The cube is spelled as products on purpose.  ``x**3`` on an ndarray is
    libm ``pow`` (numpy fast-paths only the exponent 2): measured on a
    (256, 256) float32 array, 57 ns/element for ``x**3`` against 0.35 for
    ``x*x*x`` and 0.34 for the ``tanh`` beside it, which made this one
    operator half of a transfer-learning sweep cell.  The two spellings differ
    in the last ulp of the cube at most.  Do not tidy it back
    (``tests/test_dtype_hygiene.py`` lints for it).
    """
    square = x * x
    return _GELU_C * (x + 0.044715 * (x * square)), square


def _gelu_forward(x: np.ndarray) -> np.ndarray:
    # tanh approximation of GELU (used by ConvNeXt-style heads).
    inner, _ = _gelu_inner(x)
    return 0.5 * x * (1.0 + np.tanh(inner))


def _gelu_gradient(upstream: np.ndarray, x: np.ndarray) -> np.ndarray:
    inner, square = _gelu_inner(x)
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner**2
    d_inner = _GELU_C * (1.0 + 3.0 * 0.044715 * square)
    grad = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
    return upstream * grad


def _elu_forward(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    return np.where(x >= 0.0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


def _elu_gradient(upstream: np.ndarray, x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    return upstream * np.where(x >= 0.0, 1.0, alpha * np.exp(np.minimum(x, 0.0)))


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


RELU = ActivationFunction("relu", _relu_forward, _relu_gradient, cache_input=False)
LEAKY_RELU = ActivationFunction(
    "leaky_relu", _leaky_relu_forward, _leaky_relu_gradient, cache_input=True
)
SIGMOID = ActivationFunction("sigmoid", _sigmoid_forward, _sigmoid_gradient, cache_input=False)
TANH = ActivationFunction("tanh", _tanh_forward, _tanh_gradient, cache_input=False)
LINEAR = ActivationFunction("linear", _linear_forward, _linear_gradient, cache_input=False)
GELU = ActivationFunction("gelu", _gelu_forward, _gelu_gradient, cache_input=True)
ELU = ActivationFunction("elu", _elu_forward, _elu_gradient, cache_input=True)

_NAMED_ACTIVATIONS = {
    "relu": RELU,
    "leaky_relu": LEAKY_RELU,
    "sigmoid": SIGMOID,
    "tanh": TANH,
    "linear": LINEAR,
    "identity": LINEAR,
    "gelu": GELU,
    "elu": ELU,
}


def get_activation(name_or_fn) -> ActivationFunction:
    """Resolve an activation by name, or pass an ActivationFunction through."""
    if isinstance(name_or_fn, ActivationFunction):
        return name_or_fn
    if name_or_fn is None:
        return LINEAR
    try:
        return _NAMED_ACTIVATIONS[name_or_fn]
    except KeyError:
        raise ConfigurationError(
            f"unknown activation {name_or_fn!r}; known: {sorted(_NAMED_ACTIVATIONS)}"
        ) from None
