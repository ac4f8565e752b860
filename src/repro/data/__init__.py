"""Datasets, synthetic data generators, and federated partitioning.

The paper trains on MNIST, CIFAR-10 and CIFAR-100.  This environment has no
network access, so :mod:`repro.data.synthetic` generates procedurally defined
image-classification problems that stand in for them (documented in
DESIGN.md).  Partitioning across workers follows the paper's three schemes:
IID, "Non-IID: X%" (a sorted fraction) and "Non-IID: Label Y" (label
exclusivity).
"""

from repro.data.datasets import Dataset, DatasetView, train_test_split
from repro.data.synthetic import (
    gaussian_blobs,
    synthetic_cifar,
    synthetic_digits,
    synthetic_features,
)
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    noniid_label_partition,
    noniid_sorted_fraction_partition,
    partition_dataset,
    partition_statistics,
)
from repro.data.loaders import BatchSampler, EpochIterator, StackedSampler
from repro.data.features import PretrainedFeatureExtractor

__all__ = [
    "Dataset",
    "DatasetView",
    "train_test_split",
    "synthetic_digits",
    "synthetic_cifar",
    "synthetic_features",
    "gaussian_blobs",
    "iid_partition",
    "noniid_sorted_fraction_partition",
    "noniid_label_partition",
    "dirichlet_partition",
    "partition_dataset",
    "partition_statistics",
    "BatchSampler",
    "EpochIterator",
    "StackedSampler",
    "PretrainedFeatureExtractor",
]
