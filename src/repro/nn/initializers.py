"""Weight initializers.

The paper uses Glorot uniform initialization for LeNet-5 and VGG16*, and He
normal for the DenseNet models; both are provided here together with the
common zero/constant/LeCun variants.  Every initializer takes an explicit
``fan_in``/``fan_out`` pair (computed by the layer) and a NumPy random
generator so the whole model build is reproducible from a single seed.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

Initializer = Callable[[Sequence[int], int, int, np.random.Generator], np.ndarray]


def glorot_uniform(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot (Xavier) uniform: U(-limit, limit) with limit = sqrt(6 / (fan_in + fan_out))."""
    _check_fans(fan_in, fan_out)
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=tuple(shape)).astype(np.float64)


def glorot_normal(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot (Xavier) normal: N(0, 2 / (fan_in + fan_out))."""
    _check_fans(fan_in, fan_out)
    stddev = float(np.sqrt(2.0 / (fan_in + fan_out)))
    return rng.normal(0.0, stddev, size=tuple(shape)).astype(np.float64)


def he_normal(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """He normal: N(0, 2 / fan_in), the initializer used for the DenseNets."""
    _check_fans(fan_in, fan_out)
    stddev = float(np.sqrt(2.0 / fan_in))
    return rng.normal(0.0, stddev, size=tuple(shape)).astype(np.float64)


def he_uniform(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """He uniform: U(-limit, limit) with limit = sqrt(6 / fan_in)."""
    _check_fans(fan_in, fan_out)
    limit = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-limit, limit, size=tuple(shape)).astype(np.float64)


def lecun_normal(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """LeCun normal: N(0, 1 / fan_in)."""
    _check_fans(fan_in, fan_out)
    stddev = float(np.sqrt(1.0 / fan_in))
    return rng.normal(0.0, stddev, size=tuple(shape)).astype(np.float64)


def zeros_init(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """All-zeros initializer (used for biases and batch-norm shifts)."""
    del fan_in, fan_out, rng
    return np.zeros(tuple(shape), dtype=np.float64)


def ones_init(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """All-ones initializer (used for batch-norm scales)."""
    del fan_in, fan_out, rng
    return np.ones(tuple(shape), dtype=np.float64)


_NAMED_INITIALIZERS = {
    "glorot_uniform": glorot_uniform,
    "glorot_normal": glorot_normal,
    "he_normal": he_normal,
    "he_uniform": he_uniform,
    "lecun_normal": lecun_normal,
    "zeros": zeros_init,
    "ones": ones_init,
}


def get_initializer(name_or_fn) -> Initializer:
    """Resolve an initializer by name or pass a callable through unchanged."""
    if callable(name_or_fn):
        return name_or_fn
    try:
        return _NAMED_INITIALIZERS[name_or_fn]
    except KeyError:
        raise ConfigurationError(
            f"unknown initializer {name_or_fn!r}; known: {sorted(_NAMED_INITIALIZERS)}"
        ) from None


def _check_fans(fan_in: int, fan_out: int) -> None:
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigurationError(
            f"fan_in and fan_out must be positive, got fan_in={fan_in}, fan_out={fan_out}"
        )
