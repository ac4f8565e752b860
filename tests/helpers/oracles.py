"""Plain references the production paths are tested against.

Each function spells one operation the straightforward way — a one-hot
matrix, the mean of several models' flat parameters, a shuffled copy of a
dataset, class clusters drawn in one expression — so the fused, stacked or
chunked production code has something other than itself to equal.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset
from repro.data.synthetic import _balanced_labels
from repro.exceptions import ShapeError
from repro.utils.rng import as_rng


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Convert integer labels of shape (N,) to one-hot vectors (N, num_classes)."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def average_models(models) -> np.ndarray:
    """The average flat parameter vector of several models (the global model)."""
    vectors = [model.get_parameters() for model in models]
    if not vectors:
        raise ShapeError("average_models requires at least one model")
    return np.mean(np.stack(vectors, axis=0), axis=0)


def shuffled(dataset: Dataset, seed=None) -> Dataset:
    """A copy of ``dataset`` with shuffled sample order."""
    order = as_rng(seed).permutation(len(dataset))
    return dataset.subset(order, name=dataset.name)


def synthetic_features(
    num_samples: int,
    feature_dim: int,
    num_classes: int,
    class_separation: float = 3.0,
    noise: float = 1.0,
    seed=0,
) -> Dataset:
    """Gaussian class clusters as one expression: ``means[labels] + noise``, full size.

    The production generator adds the means into the noise in row chunks; its
    draws, in the same order, must give these bytes.
    """
    rng = as_rng(seed)
    directions = rng.normal(size=(num_classes, feature_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = directions * class_separation
    labels = _balanced_labels(num_samples, num_classes, rng)
    features = means[labels] + rng.normal(scale=noise, size=(num_samples, feature_dim))
    return Dataset(features, labels, num_classes)
