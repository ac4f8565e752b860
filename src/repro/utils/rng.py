"""Deterministic random-number handling.

Everything in the library that needs randomness accepts either an integer
seed, ``None``, or an existing :class:`numpy.random.Generator`.  These helpers
normalise that flexibility into concrete generators and make it easy to derive
independent per-worker streams from a single experiment seed, which is what
keeps whole training runs reproducible.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

SeedLike = Union[int, None, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be an integer, ``None`` (fresh entropy), an existing
    generator (returned unchanged), or a :class:`numpy.random.SeedSequence`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


class RngFactory:
    """Factory producing named, reproducible random generators.

    A single experiment seed fans out into independent streams keyed by a
    string label (``"data"``, ``"init"``, ``"worker-3"`` ...).  Requesting the
    same label twice returns generators with identical streams, so components
    can be re-created without advancing each other's randomness.
    """

    def __init__(self, seed: SeedLike = 0) -> None:
        if isinstance(seed, np.random.Generator):
            # Freeze the generator state into a root seed.
            seed = int(seed.integers(0, 2**63 - 1))
        self._root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(
            seed if seed is not None else None
        )

    def named(self, label: str) -> np.random.Generator:
        """Return a generator whose stream is a pure function of (seed, label)."""
        entropy = self._root.entropy
        digest = [int(byte) for byte in label.encode("utf-8")]
        child = np.random.SeedSequence([*_entropy_list(entropy), len(label), *digest])
        return np.random.default_rng(child)

    def worker(self, index: int) -> np.random.Generator:
        """Return the generator dedicated to worker ``index``."""
        if index < 0:
            raise ValueError(f"worker index must be non-negative, got {index}")
        return self.named(f"worker-{index}")


def _entropy_list(entropy: Optional[object]) -> List[int]:
    """Normalise a SeedSequence entropy value into a list of ints."""
    if entropy is None:
        return [0]
    if isinstance(entropy, (list, tuple)):
        return [int(item) for item in entropy]
    return [int(entropy)]
