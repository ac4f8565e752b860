"""The :class:`Dataset` container.

A dataset is simply a pair of aligned arrays (``x``: samples, ``y``: integer
labels) plus the number of classes.  All generators and partitioners in this
subpackage produce and consume this type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.utils.rng import as_rng


@dataclass
class Dataset:
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

    def __len__(self) -> int:
        return int(self.x.shape[0])

    @property
    def sample_shape(self) -> Tuple[int, ...]:
        """Per-sample shape (no batch dimension)."""
        return tuple(self.x.shape[1:])

    def subset(self, indices: Sequence[int], name: str = None) -> "Dataset":
        """A new dataset restricted to ``indices`` (copies, does not alias)."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise DataError(
                f"indices out of range [0, {len(self)}): "
                f"[{indices.min()}, {indices.max()}]"
            )
        return Dataset(
            self.x[indices].copy(),
            self.y[indices].copy(),
            self.num_classes,
            name=name or f"{self.name}[{indices.size}]",
        )

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, length ``num_classes``."""
        return np.bincount(self.y, minlength=self.num_classes)

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, samples={len(self)}, "
            f"shape={self.sample_shape}, classes={self.num_classes})"
        )


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
