"""Tests for the Dataset container, its row view and train/test splitting."""

import numpy as np
import pytest

from helpers.memory import peak_bytes
from helpers.oracles import shuffled
from repro.data.datasets import Dataset, DatasetView, train_test_split
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


    def test_a_subset_holds_its_samples_once(self):
        # 4096 × 256 float64 = 8 MiB; the subset is half of it.  A copy of
        # the fancy-index result would hold the subset twice.
        data = Dataset(np.ones((4096, 256)), np.zeros(4096, dtype=np.int64), 2)
        rows = np.arange(0, 4096, 2)
        subset, peak = peak_bytes(data.subset, rows)
        assert peak <= 1.1 * (subset.x.nbytes + subset.y.nbytes)


class TestDatasetView:
    def test_a_view_reads_its_rows_of_the_base(self):
        data = make_dataset(20, 4)
        rows = [1, 4, 5, 11, 19]
        view = data.view(rows, name="shard")
        copy = data.subset(rows)
        assert isinstance(view, DatasetView) and view.base is data
        assert view.rows.dtype == np.int64 and view.rows.tolist() == rows
        assert (len(view), view.name, view.num_classes) == (5, "shard", 4)
        assert view.sample_shape == copy.sample_shape == (3,)
        np.testing.assert_array_equal(view.y, copy.y)
        np.testing.assert_array_equal(view.class_counts(), copy.class_counts())
        positions = np.array([4, 0, 0, 2])
        for got, expected in zip(view.take(positions), copy.take(positions)):
            assert got.tobytes() == expected.tobytes()
        assert repr(view) == "DatasetView(name='shard', samples=5, shape=(3,), classes=4)"

    def test_a_view_has_no_x_and_cannot_be_written(self):
        data = make_dataset(10)
        caller_rows = np.array([2, 3, 7])
        view = data.view(caller_rows)
        assert not hasattr(view, "x")
        with pytest.raises(ValueError):
            view.rows[0] = 0
        with pytest.raises(ValueError):
            view.y[0] = 0
        caller_rows[0] = 0  # the view froze its own copy, not the caller's array
        assert view.rows.tolist() == [2, 3, 7]

    def test_a_batch_is_a_fresh_gather(self):
        data = make_dataset(10)
        x, y = data.view([2, 3, 7]).take(np.array([0, 1]))
        x[...] = 0.0
        y[...] = 0
        assert not np.all(data.x[2:4] == 0.0)

    @pytest.mark.parametrize("rows", [[0, 10], [-1, 2], [3, 1], [2, 2]])
    def test_a_view_refuses_rows_out_of_range_or_order(self, rows):
        with pytest.raises(DataError):
            make_dataset(10).view(rows)

    def test_the_default_name_counts_the_rows(self):
        assert make_dataset(10).view([1, 2]).name == "t[2]"


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
