"""Tests for the Dataset container and train/test splitting."""

import numpy as np
import pytest

from helpers.oracles import shuffled
from repro.data.datasets import Dataset, train_test_split
from repro.exceptions import DataError


def make_dataset(n=20, classes=4):
    rng = np.random.default_rng(0)
    return Dataset(rng.normal(size=(n, 3)), rng.integers(0, classes, size=n), classes, name="t")


class TestDataset:
    def test_basic_properties(self):
        data = make_dataset(12, 4)
        assert len(data) == 12
        assert data.sample_shape == (3,)
        assert data.class_counts().sum() == 12

    def test_rejects_misaligned_arrays(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((5, 2)), np.zeros(4, dtype=int), 2)

    def test_rejects_2d_labels(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((5, 2)), np.zeros((5, 1), dtype=int), 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 3)

    def test_subset_copies(self):
        data = make_dataset()
        subset = data.subset([0, 1, 2])
        subset.x[...] = 0.0
        assert not np.all(data.x[:3] == 0.0)

    def test_subset_rejects_bad_indices(self):
        data = make_dataset(5)
        with pytest.raises(DataError):
            data.subset([0, 10])

    def test_a_permuted_subset_preserves_content(self):
        data = make_dataset(30)
        permuted = shuffled(data, seed=1)
        assert sorted(permuted.y.tolist()) == sorted(data.y.tolist())
        np.testing.assert_array_equal(permuted.class_counts(), data.class_counts())
        assert len(permuted) == len(data)


class TestTrainTestSplit:
    def test_sizes(self):
        data = make_dataset(100)
        train, test = train_test_split(data, test_fraction=0.25, seed=0)
        assert len(train) == 75 and len(test) == 25

    def test_disjoint_and_complete(self):
        data = Dataset(np.arange(40).reshape(40, 1), np.zeros(40, dtype=int), 1)
        train, test = train_test_split(data, test_fraction=0.5, seed=3)
        combined = sorted(train.x[:, 0].tolist() + test.x[:, 0].tolist())
        assert combined == list(range(40))

    def test_reproducible(self):
        data = make_dataset(50)
        a_train, _ = train_test_split(data, 0.2, seed=7)
        b_train, _ = train_test_split(data, 0.2, seed=7)
        np.testing.assert_array_equal(a_train.x, b_train.x)

    def test_invalid_fraction(self):
        with pytest.raises(DataError):
            train_test_split(make_dataset(), 0.0)
        with pytest.raises(DataError):
            train_test_split(make_dataset(), 1.0)
