"""Tests for the federated data partitioners (IID and the paper's Non-IID schemes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.memory import peak_bytes
from repro.data.datasets import DatasetView
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    noniid_label_partition,
    noniid_sorted_fraction_partition,
    partition_dataset,
    partition_statistics,
)
from repro.data.synthetic import synthetic_features
from repro.exceptions import DataError


def make_labels(n=200, classes=10, seed=0):
    return np.random.default_rng(seed).integers(0, classes, size=n)


def assert_valid_partition(parts, total):
    """Every index appears in exactly one partition."""
    combined = np.concatenate(parts)
    assert combined.shape[0] == total
    assert set(combined.tolist()) == set(range(total))


class TestIidPartition:
    def test_covers_all_indices(self):
        labels = make_labels(103)
        parts = iid_partition(labels, 5, seed=0)
        assert_valid_partition(parts, 103)

    def test_sizes_balanced(self):
        parts = iid_partition(make_labels(100), 4, seed=0)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_label_distributions_similar(self):
        labels = make_labels(2000, classes=4)
        parts = iid_partition(labels, 4, seed=0)
        fractions = [np.bincount(labels[p], minlength=4) / len(p) for p in parts]
        for fraction in fractions:
            np.testing.assert_allclose(fraction, 0.25, atol=0.08)

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            iid_partition(make_labels(3), 5)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=300),
        workers=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_partition_is_always_exact_cover(self, n, workers, seed):
        if n < workers:
            return
        labels = make_labels(n, seed=seed)
        parts = iid_partition(labels, workers, seed=seed)
        assert_valid_partition(parts, n)


class TestNonIidFraction:
    def test_covers_all_indices(self):
        labels = make_labels(240)
        parts = noniid_sorted_fraction_partition(labels, 6, 0.6, seed=0)
        assert_valid_partition(parts, 240)

    def test_zero_fraction_is_iid_like(self):
        labels = make_labels(300, classes=3)
        parts = noniid_sorted_fraction_partition(labels, 3, 0.0, seed=0)
        stats_zero = partition_statistics(
            partition_dataset(
                synthetic_features(300, num_classes=3, seed=0), 3, "noniid-fraction",
                seed=0, fraction=0.0,
            )
        )
        assert_valid_partition(parts, 300)
        assert stats_zero["heterogeneity"] < 0.25

    def test_higher_fraction_increases_heterogeneity(self):
        data = synthetic_features(600, num_classes=6, seed=0)
        low = partition_statistics(
            partition_dataset(data, 6, "noniid-fraction", seed=0, fraction=0.1)
        )
        high = partition_statistics(
            partition_dataset(data, 6, "noniid-fraction", seed=0, fraction=0.9)
        )
        assert high["heterogeneity"] > low["heterogeneity"]

    def test_invalid_fraction(self):
        with pytest.raises(DataError):
            noniid_sorted_fraction_partition(make_labels(), 4, 1.5)


class TestNonIidLabel:
    def test_label_concentrated_on_holders(self):
        labels = make_labels(400, classes=5)
        parts = noniid_label_partition(labels, 8, label=2, num_holders=2, seed=0)
        assert_valid_partition(parts, 400)
        holders_with_label = [
            index for index, part in enumerate(parts) if np.any(labels[part] == 2)
        ]
        assert len(holders_with_label) <= 2

    def test_default_holder_count(self):
        labels = make_labels(300, classes=4)
        parts = noniid_label_partition(labels, 20, label=0, seed=0)
        assert_valid_partition(parts, 300)

    def test_missing_label_rejected(self):
        labels = np.zeros(50, dtype=int)
        with pytest.raises(DataError):
            noniid_label_partition(labels, 5, label=3)

    def test_invalid_holders(self):
        labels = make_labels(100, classes=3)
        with pytest.raises(DataError):
            noniid_label_partition(labels, 4, label=0, num_holders=9)


class TestDirichlet:
    def test_covers_all_indices(self):
        labels = make_labels(500, classes=10)
        parts = dirichlet_partition(labels, 7, alpha=0.5, seed=0)
        assert_valid_partition(parts, 500)

    def test_every_worker_nonempty(self):
        labels = make_labels(60, classes=3)
        parts = dirichlet_partition(labels, 10, alpha=0.1, seed=0)
        assert all(len(p) >= 1 for p in parts)

    def test_small_alpha_more_heterogeneous(self):
        data = synthetic_features(800, num_classes=8, seed=0)
        concentrated = partition_statistics(
            partition_dataset(data, 8, "dirichlet", seed=0, alpha=0.05)
        )
        spread = partition_statistics(
            partition_dataset(data, 8, "dirichlet", seed=0, alpha=100.0)
        )
        assert concentrated["heterogeneity"] > spread["heterogeneity"]

    def test_invalid_alpha(self):
        with pytest.raises(DataError):
            dirichlet_partition(make_labels(), 4, alpha=0.0)


class TestPartitionDataset:
    def test_returns_one_dataset_per_worker(self):
        data = synthetic_features(100, num_classes=4, seed=0)
        parts = partition_dataset(data, 5, "iid", seed=0)
        assert len(parts) == 5
        assert sum(len(p) for p in parts) == 100

    @pytest.mark.parametrize(
        "scheme, split",
        [("iid", iid_partition), ("dirichlet", dirichlet_partition)],
    )
    def test_each_worker_gets_a_view_of_its_scheme_rows(self, scheme, split):
        data = synthetic_features(120, num_classes=4, seed=0)
        parts = partition_dataset(data, 6, scheme, seed=3)
        for part, rows in zip(parts, split(data.y, 6, seed=3)):
            assert isinstance(part, DatasetView) and part.base is data
            np.testing.assert_array_equal(part.rows, rows)

    def test_partitioning_copies_no_sample(self):
        # 4096 × 256 float64 = 8 MiB over K = 8: shards of copied rows would
        # hold all 8 MiB again; views hold only their row indices and labels.
        data = synthetic_features(4096, feature_dim=256, num_classes=10, seed=0)
        assert data.x.nbytes == 8 << 20
        parts, peak = peak_bytes(partition_dataset, data, 8, "iid", seed=0)
        assert sum(len(part) for part in parts) == 4096
        assert peak < 0.05 * data.x.nbytes

    def test_unknown_scheme(self):
        data = synthetic_features(50, num_classes=4, seed=0)
        with pytest.raises(DataError):
            partition_dataset(data, 2, "zipf")

    def test_statistics_fields(self):
        data = synthetic_features(100, num_classes=4, seed=0)
        stats = partition_statistics(partition_dataset(data, 4, "iid", seed=0))
        assert stats["num_workers"] == 4
        assert stats["min_size"] > 0
        assert 0.0 <= stats["heterogeneity"] <= 1.0

    def test_statistics_requires_partitions(self):
        with pytest.raises(DataError):
            partition_statistics([])
