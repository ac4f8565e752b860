"""Partitioning a dataset across federated workers.

The paper evaluates three data-distribution scenarios (Section 4.1):

1. **IID** — samples are shuffled and split approximately equally.
2. **Non-IID: X %** — a fraction ``X`` of the dataset is sorted by label and
   allocated to workers sequentially (so some workers see mostly one or two
   labels); the remaining ``1 − X`` is distributed IID.
3. **Non-IID: Label Y** — every sample of label ``Y`` goes to a small group of
   workers; everything else is IID.

A Dirichlet partitioner is also provided as the standard additional
heterogeneity knob used in the broader FL literature.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.datasets import Dataset, DatasetView
from repro.exceptions import DataError
from repro.utils.rng import as_rng


def _check_workers(num_samples: int, num_workers: int) -> None:
    if num_workers <= 0:
        raise DataError(f"num_workers must be positive, got {num_workers}")
    if num_samples < num_workers:
        raise DataError(
            f"cannot split {num_samples} samples across {num_workers} workers "
            "(fewer samples than workers)"
        )


def iid_partition(labels: np.ndarray, num_workers: int, seed=None) -> List[np.ndarray]:
    """Shuffle all indices and deal them out approximately equally."""
    labels = np.asarray(labels)
    _check_workers(labels.shape[0], num_workers)
    rng = as_rng(seed)
    order = rng.permutation(labels.shape[0])
    return [np.sort(chunk) for chunk in np.array_split(order, num_workers)]


def noniid_sorted_fraction_partition(
    labels: np.ndarray, num_workers: int, fraction: float, seed=None
) -> List[np.ndarray]:
    """The paper's "Non-IID: X %" scheme.

    ``fraction`` of the dataset is sorted by label and dealt out to workers in
    contiguous runs (concentrating labels), the rest is distributed IID.
    """
    labels = np.asarray(labels)
    _check_workers(labels.shape[0], num_workers)
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"fraction must lie in [0, 1], got {fraction}")
    rng = as_rng(seed)
    order = rng.permutation(labels.shape[0])
    num_sorted = int(round(labels.shape[0] * fraction))
    sorted_part = order[:num_sorted]
    iid_part = order[num_sorted:]

    # Sort the heterogeneous part by label and split into contiguous runs.
    sorted_part = sorted_part[np.argsort(labels[sorted_part], kind="stable")]
    sorted_chunks = np.array_split(sorted_part, num_workers)
    iid_chunks = np.array_split(iid_part, num_workers)

    partitions = []
    for worker in range(num_workers):
        combined = np.concatenate([sorted_chunks[worker], iid_chunks[worker]])
        partitions.append(np.sort(combined))
    return partitions


def noniid_label_partition(
    labels: np.ndarray,
    num_workers: int,
    label: int,
    num_holders: Optional[int] = None,
    seed=None,
) -> List[np.ndarray]:
    """The paper's "Non-IID: Label Y" scheme.

    All samples of class ``label`` go to ``num_holders`` workers (default:
    roughly 10 % of the workers, at least one); the remaining samples are
    distributed IID across all workers.
    """
    labels = np.asarray(labels)
    _check_workers(labels.shape[0], num_workers)
    if label < 0 or label not in set(np.unique(labels)):
        raise DataError(f"label {label} does not occur in the dataset")
    if num_holders is None:
        num_holders = max(1, num_workers // 10)
    if not 1 <= num_holders <= num_workers:
        raise DataError(
            f"num_holders must lie in [1, {num_workers}], got {num_holders}"
        )
    rng = as_rng(seed)
    label_indices = np.flatnonzero(labels == label)
    other_indices = np.flatnonzero(labels != label)
    rng.shuffle(label_indices)
    rng.shuffle(other_indices)

    holders = rng.choice(num_workers, size=num_holders, replace=False)
    label_chunks = np.array_split(label_indices, num_holders)
    other_chunks = np.array_split(other_indices, num_workers)

    partitions: List[np.ndarray] = [other_chunks[worker] for worker in range(num_workers)]
    for holder_position, worker in enumerate(holders):
        partitions[worker] = np.concatenate([partitions[worker], label_chunks[holder_position]])
    return [np.sort(part) for part in partitions]


def dirichlet_partition(
    labels: np.ndarray, num_workers: int, alpha: float = 0.5, seed=None
) -> List[np.ndarray]:
    """Dirichlet(α) label-distribution partition (smaller α = more heterogeneous)."""
    labels = np.asarray(labels)
    _check_workers(labels.shape[0], num_workers)
    if alpha <= 0:
        raise DataError(f"alpha must be positive, got {alpha}")
    rng = as_rng(seed)
    num_classes = int(labels.max()) + 1
    buckets: List[List[int]] = [[] for _ in range(num_workers)]
    for class_index in range(num_classes):
        class_indices = np.flatnonzero(labels == class_index)
        rng.shuffle(class_indices)
        proportions = rng.dirichlet(np.full(num_workers, alpha))
        # Convert proportions to split points over this class's samples.
        cuts = (np.cumsum(proportions)[:-1] * class_indices.shape[0]).astype(int)
        for worker, chunk in enumerate(np.split(class_indices, cuts)):
            buckets[worker].extend(chunk.tolist())
    partitions = []
    for worker in range(num_workers):
        if not buckets[worker]:
            # Guarantee every worker holds at least one sample by stealing from
            # the largest bucket (keeps downstream batch sampling well-defined).
            largest = max(range(num_workers), key=lambda w: len(buckets[w]))
            buckets[worker].append(buckets[largest].pop())
        partitions.append(np.sort(np.asarray(buckets[worker], dtype=np.int64)))
    return partitions


def partition_dataset(
    dataset: Dataset,
    num_workers: int,
    scheme: str = "iid",
    seed=None,
    fraction: float = 0.6,
    label: int = 0,
    num_holders: Optional[int] = None,
    alpha: float = 0.5,
) -> List[DatasetView]:
    """Partition ``dataset`` into one read-only row view per worker (no sample is copied).

    ``scheme`` is one of ``"iid"``, ``"noniid-fraction"``, ``"noniid-label"``
    or ``"dirichlet"``; the remaining keyword arguments parameterize the
    chosen scheme (and are ignored by the others).
    """
    if scheme == "iid":
        parts = iid_partition(dataset.y, num_workers, seed)
    elif scheme == "noniid-fraction":
        parts = noniid_sorted_fraction_partition(dataset.y, num_workers, fraction, seed)
    elif scheme == "noniid-label":
        parts = noniid_label_partition(dataset.y, num_workers, label, num_holders, seed)
    elif scheme == "dirichlet":
        parts = dirichlet_partition(dataset.y, num_workers, alpha, seed)
    else:
        raise DataError(
            f"unknown partition scheme {scheme!r}; expected one of "
            "'iid', 'noniid-fraction', 'noniid-label', 'dirichlet'"
        )
    return [
        dataset.view(indices, name=f"{dataset.name}-worker{worker}")
        for worker, indices in enumerate(parts)
    ]


def partition_statistics(partitions: Sequence[DatasetView]) -> Dict[str, object]:
    """Summary statistics of a partition: sizes and per-worker label skew."""
    if not partitions:
        raise DataError("partition_statistics requires at least one partition")
    sizes = np.array([len(part) for part in partitions])
    num_classes = partitions[0].num_classes
    label_fractions = np.zeros((len(partitions), num_classes))
    for worker, part in enumerate(partitions):
        counts = part.class_counts()
        label_fractions[worker] = counts / max(1, counts.sum())
    # Earth-mover-free heterogeneity proxy: mean total-variation distance from
    # the global label distribution.
    global_fraction = label_fractions.mean(axis=0)
    heterogeneity = float(
        0.5 * np.abs(label_fractions - global_fraction).sum(axis=1).mean()
    )
    return {
        "num_workers": len(partitions),
        "sizes": sizes.tolist(),
        "min_size": int(sizes.min()),
        "max_size": int(sizes.max()),
        "heterogeneity": heterogeneity,
    }
