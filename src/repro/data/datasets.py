"""The :class:`Dataset` container and its row view, :class:`DatasetView`.

A dataset is simply a pair of aligned arrays (``x``: samples, ``y``: integer
labels) plus the number of classes; every generator here produces one.  A
worker's shard is a view of its rows, so a cluster holds its training set once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.utils.rng import as_rng


class _Samples:
    """What a dataset and a row view of one share."""

    def __len__(self) -> int:
        return int(self.y.shape[0])

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, length ``num_classes``."""
        return np.bincount(self.y, minlength=self.num_classes)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, samples={len(self)}, "
            f"shape={self.sample_shape}, classes={self.num_classes})"
        )


@dataclass(repr=False)
class Dataset(_Samples):
    """An in-memory supervised dataset with integer class labels."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0]:
            raise DataError(
                f"x and y must have the same number of samples, got {self.x.shape[0]} "
                f"and {self.y.shape[0]}"
            )
        if self.y.ndim != 1:
            raise DataError(f"y must be a 1-D array of labels, got shape {self.y.shape}")
        if self.num_classes <= 0:
            raise DataError(f"num_classes must be positive, got {self.num_classes}")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise DataError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{self.y.min()}, {self.y.max()}]"
            )

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        """Per-sample shape (no batch dimension)."""
        return tuple(self.x.shape[1:])

    def take(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The batch ``(x, y)`` at ``positions``, a fresh gather: the samplers' one accessor."""
        return self.x[positions], self.y[positions]

    def subset(self, indices: Sequence[int], name: str = None) -> "Dataset":
        """A new dataset restricted to ``indices`` (copies, does not alias)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise DataError(
                f"indices out of range [0, {len(self)}): "
                f"[{indices.min()}, {indices.max()}]"
            )
        return Dataset(  # a fancy index is already a copy
            self.x[indices],
            self.y[indices],
            self.num_classes,
            name=name or f"{self.name}[{indices.size}]",
        )

    def view(self, rows: Sequence[int], name: str = None) -> "DatasetView":
        """A read-only view of the samples at ``rows``, strictly increasing; copies no ``x``."""
        rows = np.array(rows, dtype=np.int64)  # its own, to freeze
        if rows.size and (rows[0] < 0 or rows[-1] >= len(self) or np.any(rows[1:] <= rows[:-1])):
            raise DataError(f"view rows must increase strictly within [0, {len(self)})")
        return DatasetView(self, rows, name or f"{self.name}[{rows.size}]")


class DatasetView(_Samples):
    """A shard: ``base``'s samples at sorted ``rows``, read by :meth:`take`; it has no ``x``."""

    def __init__(self, base: Dataset, rows: np.ndarray, name: str) -> None:
        self.base, self.rows, self.name = base, rows, name
        self.y = base.y[rows]  # 8 B a sample: gathered once
        self.rows.flags.writeable = self.y.flags.writeable = False
        self.num_classes, self.sample_shape = base.num_classes, base.sample_shape

    def take(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.base.x[self.rows[positions]], self.y[positions]


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.2, seed=None
) -> Tuple[Dataset, Dataset]:
    """Split a dataset into train and test parts with shuffling."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = as_rng(seed)
    order = rng.permutation(len(dataset))
    test_size = max(1, int(round(len(dataset) * test_fraction)))
    if test_size >= len(dataset):
        raise DataError(
            f"test_fraction {test_fraction} leaves no training samples for a dataset "
            f"of size {len(dataset)}"
        )
    test_indices = order[:test_size]
    train_indices = order[test_size:]
    return (
        dataset.subset(train_indices, name=f"{dataset.name}-train"),
        dataset.subset(test_indices, name=f"{dataset.name}-test"),
    )
