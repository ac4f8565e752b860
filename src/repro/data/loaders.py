"""Batch sampling for local training.

Each worker samples mini-batches of size ``b`` from its own partition
(Algorithm 1, line 4).  :class:`BatchSampler` provides with-replacement
sampling driven by a worker-private random generator, and
:class:`EpochIterator` provides classic shuffled epoch iteration for the
FedOpt baselines that train whole local epochs between rounds.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.data.datasets import Dataset
from repro.exceptions import DataError
from repro.utils.rng import as_rng


class _PrivateStream:
    """A loader's worker-private generator, resumable through its state."""

    _rng: np.random.Generator

    @property
    def rng_state(self) -> dict:
        """The generator's bit-exact state (assignable, to resume it)."""
        return self._rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state


class BatchSampler(_PrivateStream):
    """Samples random mini-batches (with replacement) from one worker's data."""

    def __init__(self, dataset: Dataset, batch_size: int, seed=None) -> None:
        if batch_size <= 0:
            raise DataError(f"batch_size must be positive, got {batch_size}")
        if len(dataset) == 0:
            raise DataError("cannot sample batches from an empty dataset")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self._rng = as_rng(seed)

    def sample(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return one mini-batch ``(x, y)``."""
        indices = self._rng.integers(0, len(self.dataset), size=self.batch_size)
        return self.dataset.x[indices], self.dataset.y[indices]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.sample()


class StackedSampler:
    """Draws all ``K`` workers' mini-batches as one stacked ``(K, B, ...)`` array.

    Wraps the workers' own :class:`BatchSampler` instances, so each worker's
    with-replacement index stream is drawn from *its* private generator in
    exactly the order a loop over the workers would — stacking never
    perturbs which samples any worker sees.  The per-worker batches are
    stacked into one ``(K, B, *sample_shape)`` feature array and one
    ``(K, B)`` label array per call, which is the input layout of
    :class:`repro.nn.batched.BatchedModel`.

    All wrapped samplers must agree on the batch size and per-sample shape
    (they index different shards of the same dataset family).
    """

    def __init__(self, samplers: Sequence[BatchSampler]) -> None:
        if not samplers:
            raise DataError("StackedSampler needs at least one per-worker sampler")
        batch_sizes = {sampler.batch_size for sampler in samplers}
        if len(batch_sizes) != 1:
            raise DataError(
                f"all workers must share one batch size, got {sorted(batch_sizes)}"
            )
        sample_shapes = {sampler.dataset.x.shape[1:] for sampler in samplers}
        if len(sample_shapes) != 1:
            raise DataError(
                f"all workers must share one per-sample shape, got {sorted(sample_shapes)}"
            )
        self.samplers: List[BatchSampler] = list(samplers)
        self.batch_size = batch_sizes.pop()

    @property
    def num_workers(self) -> int:
        return len(self.samplers)

    def sample(self, rows=None) -> Tuple[np.ndarray, np.ndarray]:
        """One stacked mini-batch: ``(x, y)`` of shapes ``(A, B, ...)`` / ``(A, B)``.

        ``rows`` — an optional integer index array — restricts the draw to
        those workers (partial participation): only their samplers consume a
        draw, in ascending worker order, exactly as a loop over the active
        workers would, so every worker's private RNG stream stays aligned
        with its per-worker draws.  ``None`` draws from all ``K`` workers.
        """
        samplers = (
            self.samplers
            if rows is None
            else [self.samplers[int(k)] for k in rows]
        )
        batches = [sampler.sample() for sampler in samplers]
        x = np.stack([batch_x for batch_x, _ in batches], axis=0)
        y = np.stack([batch_y for _, batch_y in batches], axis=0)
        return x, y

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self.sample()


class EpochIterator(_PrivateStream):
    """Iterates a dataset in shuffled, non-overlapping batches (one epoch)."""

    def __init__(self, dataset: Dataset, batch_size: int, seed=None, drop_last: bool = False) -> None:
        if batch_size <= 0:
            raise DataError(f"batch_size must be positive, got {batch_size}")
        if len(dataset) == 0:
            raise DataError("cannot iterate an empty dataset")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.drop_last = bool(drop_last)
        self._rng = as_rng(seed)

    @property
    def batches_per_epoch(self) -> int:
        """Number of batches yielded by one full pass."""
        full, remainder = divmod(len(self.dataset), self.batch_size)
        if remainder and not self.drop_last:
            return full + 1
        return max(1, full)

    def epoch(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield one epoch of shuffled batches."""
        order = self._rng.permutation(len(self.dataset))
        end = len(order)
        if self.drop_last:
            end = (len(order) // self.batch_size) * self.batch_size
            end = max(end, self.batch_size) if len(order) >= self.batch_size else len(order)
        for start in range(0, end, self.batch_size):
            indices = order[start : start + self.batch_size]
            if self.drop_last and indices.shape[0] < self.batch_size:
                break
            yield self.dataset.x[indices], self.dataset.y[indices]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        return self.epoch()
