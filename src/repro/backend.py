"""The host seam: the plane's dtype, and how a ``(K, d)`` pass uses the cores.

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

**Row shards.**  Between syncs the rows of the plane share nothing, so a
wide ``(rows × d)`` pass splits into contiguous row shards, one per core
(:func:`row_shards`), run concurrently on one thread pool (:func:`run_shards`).
Each shard computes what the whole pass computes for its rows, so the shard
count never shows in a result.  A pool thread runs only private code, so
every public method is entered and left on the calling thread.  Shards sit
above BLAS, which keeps the thread count the process gave it.  A job waited
for later (:func:`run_in_background`) runs on a thread of its own, never on the
pool, and like a shard runs only private code.  This is the only module that
starts threads.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError

#: Fewest elements a row shard holds: about 0.9 ms of stacked Adam against a
#: thread hand-off of about 50 µs.  A smaller pass runs whole, unthreaded.
SHARD_MIN_ELEMENTS = 1 << 18

# Process state: a forked child resets it (see _forget_parent_threads).
_cores: Optional[int] = None
_pool: Optional[ThreadPoolExecutor] = None
_background: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()

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


def row_shards(rows: int, width: int) -> int:
    """How many contiguous row shards a ``(rows × width)`` pass splits into.

    One per core the process may run on (its affinity, read once per
    process), each at least :data:`SHARD_MIN_ELEMENTS` elements and one row.
    A pass too small for two costs one comparison and runs whole.
    """
    global _cores
    elements = rows * width
    if elements < 2 * SHARD_MIN_ELEMENTS:
        return 1
    if _cores is None:
        affinity = getattr(os, "sched_getaffinity", None)
        _cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(_cores, rows, elements // SHARD_MIN_ELEMENTS))


def shard_bounds(rows: int, shards: int) -> List[Tuple[int, int]]:
    """``(start, stop)`` of ``shards`` near-equal ranges tiling ``range(rows)``, in order."""
    cuts = [rows * shard // shards for shard in range(shards + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def map_row_shards(function: Callable, *matrices: np.ndarray) -> None:
    """``function(*matrices)``, split into :func:`row_shards` of the first matrix.

    Every matrix is sliced ``[start:stop]`` along its rows, so all share the
    first one's row count; a pass too small to split runs whole, unthreaded.
    """
    rows, width = matrices[0].shape
    shards = row_shards(rows, width)
    if shards == 1:
        function(*matrices)
    else:
        bounds = shard_bounds(rows, shards)
        run_shards(function, [tuple(m[a:b] for m in matrices) for a, b in bounds])


def run_shards(function: Callable, shard_args: Sequence[tuple]) -> list:
    """``[function(*args) for args in shard_args]``, one shard per thread.

    The first shard runs on the calling thread, the others on a pool the
    first call starts, each in a copy of the caller's :mod:`contextvars`
    context (numpy keeps ``errstate`` there).  Every shard has finished
    before this returns or raises the first failing shard's error, in order.
    """
    pool = _shard_pool()
    futures = [
        pool.submit(contextvars.copy_context().run, function, *args)
        for args in shard_args[1:]
    ]
    try:
        first = function(*shard_args[0])
    finally:
        wait(futures)
    return [first] + [future.result() for future in futures]


def _shard_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=max(1, (_cores or 1) - 1), thread_name_prefix="repro-row-shard"
            )
        return _pool


def run_in_background(function: Callable, *args) -> Future:
    """Start ``function(*args)`` on the background thread, after the jobs before it."""
    global _background
    with _pool_lock:
        if _background is None:
            _background = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-background")
        return _background.submit(function, *args)


def _forget_parent_threads() -> None:
    """In a forked child: the parent's pool and background threads do not exist here."""
    global _cores, _pool, _background, _pool_lock
    _cores, _pool, _background, _pool_lock = None, None, None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_threads)


__all__ = [
    "DEFAULT_DTYPE",
    "SHARD_MIN_ELEMENTS",
    "SUPPORTED_DTYPES",
    "itemsize",
    "map_row_shards",
    "resolve_dtype",
    "row_shards",
    "run_in_background",
    "run_shards",
    "shard_bounds",
]
