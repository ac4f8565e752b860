"""The dtype seam.

Every hot-path allocation in the library — the ``(K, d)`` parameter plane,
the stacked optimizer state, the error-feedback residual, the layer scratch
buffers — goes through one *active dtype* chosen at cluster construction.
This module is the single place that owns that choice:

* :data:`DEFAULT_DTYPE` (``float64``) is the bit-exact reference mode every
  golden trajectory is pinned against.
* ``float32`` is the supported fast mode: half the element size means half
  the memory traffic on every bandwidth-bound pass (engine steps, drifts,
  collectives, compression) and half the bytes on the fabric ledgers — the
  regime real FL deployments train and report in.

What deliberately stays float64 regardless of the active dtype:

* **Ledger accumulators** — byte counts are integers and virtual-time
  accumulators are Python floats; they count, they do not stream.
* **AMS sketch counters** (:mod:`repro.sketch.ams`) — the sketch's variance
  guarantees are proven for exact counters; its ``(depth, width)`` state is
  tiny compared to ``(K, d)``, so keeping it float64 costs nothing while the
  drift rows it consumes may arrive in either dtype.
* **Reference-path analysis** (theta calibration, KDE summaries, result
  aggregation) — offline, never on the per-step path.

Tolerances: float64 mode is compared exactly (``rtol=0, atol=0``); float32
mode is compared with :func:`tolerance`-scaled bounds derived from the
dtype's machine epsilon, so parity suites can parametrize over dtypes
without hand-tuning per-test bounds.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError

#: The bit-exact reference dtype; every golden trajectory is recorded in it.
DEFAULT_DTYPE: np.dtype = np.dtype(np.float64)

#: Dtypes the (K, d) plane stack accepts.
SUPPORTED_DTYPES: Tuple[np.dtype, ...] = (np.dtype(np.float32), np.dtype(np.float64))

DTypeLike = Union[str, type, np.dtype, None]


def resolve_dtype(dtype: DTypeLike = None) -> np.dtype:
    """Normalize a user-facing dtype spec to a supported ``np.dtype``.

    Accepts ``None`` (the float64 default), the strings ``"float32"`` /
    ``"float64"``, NumPy scalar types, and ``np.dtype`` instances.  Anything
    outside :data:`SUPPORTED_DTYPES` raises :class:`ConfigurationError` —
    the plane stack is written for real floating point only.
    """
    if dtype is None:
        return DEFAULT_DTYPE
    try:
        resolved = np.dtype(dtype)
    except TypeError as error:
        raise ConfigurationError(f"unrecognized dtype {dtype!r}") from error
    if resolved not in SUPPORTED_DTYPES:
        supported = ", ".join(str(d) for d in SUPPORTED_DTYPES)
        raise ConfigurationError(
            f"dtype {resolved} is not supported; expected one of: {supported}"
        )
    return resolved


def itemsize(dtype: DTypeLike = None) -> int:
    """Bytes per element of ``dtype`` — what the fabric charges per scalar."""
    return resolve_dtype(dtype).itemsize


def tolerance(dtype: DTypeLike = None, scale: float = 1.0) -> dict:
    """Dtype-aware comparison bounds as ``{"rtol": ..., "atol": ...}``.

    float64 is the bit-exact reference: both bounds are zero, so comparisons
    against it assert value-exactness.  float32 gets bounds scaled from its
    machine epsilon (``eps ≈ 1.2e-7``): ``rtol = 1e3·eps·scale`` absorbs the
    per-step rounding of a cast pipeline accumulated over a training run,
    ``atol`` guards values near zero.  ``scale`` lets long trajectories widen
    the bounds proportionally.
    """
    resolved = resolve_dtype(dtype)
    if resolved == DEFAULT_DTYPE:
        return {"rtol": 0.0, "atol": 0.0}
    eps = float(np.finfo(resolved).eps)
    return {"rtol": 1e3 * eps * scale, "atol": 10.0 * eps * scale}


def parity_tolerance(dtype: DTypeLike = None, steps: int = 1) -> dict:
    """Tolerance for comparing a ``dtype`` trajectory to the float64 golden.

    Rounding error in a float32 run grows with the number of optimizer steps
    taken; ``steps`` scales the bounds sub-linearly (``sqrt``), matching the
    random-walk accumulation of independent rounding errors.
    """
    return tolerance(dtype, scale=max(1.0, float(steps)) ** 0.5)


__all__ = [
    "DEFAULT_DTYPE",
    "SUPPORTED_DTYPES",
    "itemsize",
    "parity_tolerance",
    "resolve_dtype",
    "tolerance",
]
