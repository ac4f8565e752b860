"""Row shards on demand, for tests.

``repro.backend`` splits a pass into row shards only when it is wide enough
and the process has more than one core.  Tests make any pass split by
patching the two inputs of that decision: the core count the backend read
from the affinity, and :data:`repro.backend.SHARD_MIN_ELEMENTS`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import backend

#: The settings the shard-count properties sweep: every core count with a
#: minimum shard of one element (each pass splits as far as it can) and of
#: 2⁴⁰ (no pass ever splits).
SHARD_SETTINGS = [(cores, elements) for cores in (1, 2, 3, 7) for elements in (1, 2**40)]


def shard_every_pass(patch, cores: int = 3) -> None:
    """Split every pass of two or more rows into up to ``cores`` row shards."""
    patch.setattr(backend, "_cores", cores)
    patch.setattr(backend, "SHARD_MIN_ELEMENTS", 1)


def shard_no_pass(patch) -> None:
    """Run every pass whole, however wide."""
    patch.setattr(backend, "SHARD_MIN_ELEMENTS", 2**40)


def whole_then_sharded(patch):
    """Yield ``False`` with every pass whole, then ``True`` with every pass sharded."""
    shard_no_pass(patch)
    yield False
    shard_every_pass(patch)
    yield True


def under_every_shard_setting(run):
    """``run()`` once per :data:`SHARD_SETTINGS` entry; the outcomes, in order."""
    outcomes = []
    for cores, elements in SHARD_SETTINGS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend, "_cores", cores)
            patch.setattr(backend, "SHARD_MIN_ELEMENTS", elements)
            outcomes.append(run())
    return outcomes


def state_bytes(value, path: str = "") -> list:
    """A nested state (dicts, lists, arrays, scalars) as comparable ``(path, bytes)`` leaves."""
    if isinstance(value, dict):
        return [leaf for key in sorted(value, key=str) for leaf in state_bytes(value[key], f"{path}.{key}")]
    if isinstance(value, (list, tuple)):
        return [leaf for i, item in enumerate(value) for leaf in state_bytes(item, f"{path}[{i}]")]
    if isinstance(value, np.ndarray):
        return [(path, value.dtype.str, value.shape, value.tobytes())]
    return [(path, repr(value))]
