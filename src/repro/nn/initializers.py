"""Weight initializers.

The paper uses Glorot uniform initialization for LeNet-5 and VGG16*, and He
normal for the DenseNet models; those two are the kernel initializers a layer
can name.  Biases and batch-norm shifts start at zero and batch-norm scales at
one (:func:`zeros_init`, :func:`ones_init`, called by the layers directly).
Every initializer takes an explicit ``fan_in``/``fan_out`` pair (computed by
the layer) and a NumPy random generator so the whole model build is
reproducible from a single seed.
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


def he_normal(
    shape: Sequence[int], fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """He normal: N(0, 2 / fan_in), the initializer used for the DenseNets."""
    _check_fans(fan_in, fan_out)
    stddev = float(np.sqrt(2.0 / fan_in))
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


_NAMED_INITIALIZERS = {"glorot_uniform": glorot_uniform, "he_normal": he_normal}


def get_initializer(name) -> Initializer:
    """Resolve an initializer by name."""
    try:
        return _NAMED_INITIALIZERS[name]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown initializer {name!r}; known: {sorted(_NAMED_INITIALIZERS)}"
        ) from None


def _check_fans(fan_in: int, fan_out: int) -> None:
    if fan_in <= 0 or fan_out <= 0:
        raise ConfigurationError(
            f"fan_in and fan_out must be positive, got fan_in={fan_in}, fan_out={fan_out}"
        )
