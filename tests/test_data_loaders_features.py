"""Tests for batch sampling and the frozen feature extractor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.memory import peak_bytes
from repro.data.features import PretrainedFeatureExtractor
from repro.data.loaders import BatchSampler, EpochIterator, StackedSampler
from repro.data.synthetic import gaussian_blobs
from repro.exceptions import DataError


@pytest.fixture()
def data():
    return gaussian_blobs(57, feature_dim=5, num_classes=3, seed=0)


class TestBatchSampler:
    def test_batch_shapes(self, data):
        sampler = BatchSampler(data, batch_size=8, seed=0)
        x, y = sampler.sample()
        assert x.shape == (8, 5) and y.shape == (8,)

    def test_reproducible_with_seed(self, data):
        a = BatchSampler(data, 8, seed=5)
        b = BatchSampler(data, 8, seed=5)
        np.testing.assert_array_equal(a.sample()[0], b.sample()[0])

    def test_iteration_is_endless(self, data):
        sampler = BatchSampler(data, 4, seed=0)
        batches = [batch for batch, _ in zip(sampler, range(10))]
        assert len(batches) == 10

    def test_rejects_empty_dataset(self, data):
        empty = data.subset([])
        with pytest.raises(DataError):
            BatchSampler(empty, 4)

    def test_rejects_bad_batch_size(self, data):
        with pytest.raises(DataError):
            BatchSampler(data, 0)


class TestEpochIterator:
    def test_epoch_covers_every_sample_once(self, data):
        iterator = EpochIterator(data, batch_size=10, seed=0)
        seen = sum(batch_y.shape[0] for _, batch_y in iterator.epoch())
        assert seen == len(data)

    def test_batches_per_epoch(self, data):
        iterator = EpochIterator(data, batch_size=10)
        assert iterator.batches_per_epoch == 6  # 57 samples -> 5 full + 1 partial

    def test_shuffling_differs_across_epochs(self, data):
        iterator = EpochIterator(data, batch_size=57, seed=0)
        first = next(iter(iterator.epoch()))[1]
        second = next(iter(iterator.epoch()))[1]
        assert not np.array_equal(first, second)


@st.composite
def _row_sets(draw, size):
    """A strictly increasing row set of a ``size``-sample dataset: one row, all, or any."""
    kind = draw(st.sampled_from(["one", "all", "any"]))
    if kind == "one":
        return np.array([draw(st.integers(0, size - 1))])
    if kind == "all":
        return np.arange(size)
    rows = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    return np.sort(np.array(rows))


def _assert_same_batches(got, expected):
    for got_array, expected_array in zip(got, expected):
        assert got_array.dtype == expected_array.dtype
        assert got_array.shape == expected_array.shape
        assert got_array.tobytes() == expected_array.tobytes()


class TestViewsSampleAsCopies:
    """Samplers over ``dataset.view(rows)`` draw what they draw over ``dataset.subset(rows)``.

    Byte-identical batches and equal generator states after every draw: the
    property that keeps training on row-view shards bit-identical to training
    on copied shards.
    """

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), size=st.integers(1, 40), batch_size=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_sampler_and_epoch_iterator(self, data, size, batch_size, seed):
        dataset = gaussian_blobs(size, feature_dim=3, num_classes=3, seed=seed % 7)
        rows = data.draw(_row_sets(size))
        view, copy = dataset.view(rows), dataset.subset(rows)
        on_view, on_copy = BatchSampler(view, batch_size, seed), BatchSampler(copy, batch_size, seed)
        for _ in range(3):
            _assert_same_batches(on_view.sample(), on_copy.sample())
        assert on_view.rng_state == on_copy.rng_state
        on_view, on_copy = EpochIterator(view, batch_size, seed), EpochIterator(copy, batch_size, seed)
        for _ in range(2):
            epoch_view, epoch_copy = list(on_view.epoch()), list(on_copy.epoch())
            assert len(epoch_view) == len(epoch_copy) == on_copy.batches_per_epoch
            for got, expected in zip(epoch_view, epoch_copy):
                _assert_same_batches(got, expected)
        assert on_view.rng_state == on_copy.rng_state

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), size=st.integers(1, 40), workers=st.integers(1, 5),
           batch_size=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_masked_stacked_sampler(self, data, size, workers, batch_size, seed):
        dataset = gaussian_blobs(size, feature_dim=2, num_classes=2, seed=seed % 5)
        shards = [data.draw(_row_sets(size)) for _ in range(workers)]
        mask = np.flatnonzero(
            data.draw(st.lists(st.booleans(), min_size=workers, max_size=workers))
        )

        def stacked(make):
            return StackedSampler([
                BatchSampler(make(rows), batch_size, seed=[seed, worker])
                for worker, rows in enumerate(shards)
            ])

        on_views, on_copies = stacked(dataset.view), stacked(dataset.subset)
        for rows in (mask, None, mask):
            if rows is not None and not rows.size:
                continue
            _assert_same_batches(on_views.sample(rows), on_copies.sample(rows))
        for view_sampler, copy_sampler in zip(on_views.samplers, on_copies.samplers):
            assert view_sampler.rng_state == copy_sampler.rng_state


class TestStackedSampler:
    def test_a_stacked_draw_holds_its_batch_once(self):
        # K = 32 workers, B = 16, 150 features: the benchmark models' batch.
        # Stacking per-worker gathers would hold every sample twice (2.02×).
        data = gaussian_blobs(2048, feature_dim=150, num_classes=4, seed=0)

        def samplers():
            return [
                BatchSampler(data.view(np.arange(worker, 2048, 32)), 16, seed=worker)
                for worker in range(32)
            ]

        (x, y), peak = peak_bytes(StackedSampler(samplers()).sample)
        assert (x.shape, y.shape) == ((32, 16, 150), (32, 16))
        assert peak <= 1.1 * (x.nbytes + y.nbytes)
        for row, sampler in enumerate(samplers()):
            _assert_same_batches((x[row], y[row]), sampler.sample())


class TestFeatureExtractor:
    def test_output_dimension(self):
        extractor = PretrainedFeatureExtractor(input_dim=10, hidden_dims=(16, 8), seed=0)
        assert extractor.output_dim == 8
        features = extractor.transform(np.zeros((4, 10)))
        assert features.shape == (4, 8)

    def test_deterministic(self):
        a = PretrainedFeatureExtractor(6, (12,), seed=3)
        b = PretrainedFeatureExtractor(6, (12,), seed=3)
        x = np.random.default_rng(0).normal(size=(5, 6))
        np.testing.assert_array_equal(a.transform(x), b.transform(x))

    def test_flattens_image_inputs(self):
        extractor = PretrainedFeatureExtractor(input_dim=2 * 2 * 3, hidden_dims=(4,), seed=0)
        features = extractor.transform(np.zeros((7, 2, 2, 3)))
        assert features.shape == (7, 4)

    def test_transform_dataset_keeps_labels(self):
        data = gaussian_blobs(40, feature_dim=5, num_classes=2, seed=0)
        extractor = PretrainedFeatureExtractor(5, (6,), seed=0)
        transformed = extractor.transform_dataset(data)
        np.testing.assert_array_equal(transformed.y, data.y)
        assert transformed.x.shape == (40, 6)

    def test_rejects_wrong_input_dim(self):
        extractor = PretrainedFeatureExtractor(5, (6,), seed=0)
        with pytest.raises(DataError):
            extractor.transform(np.zeros((3, 4)))

    def test_rejects_invalid_configuration(self):
        with pytest.raises(DataError):
            PretrainedFeatureExtractor(0, (4,))
        with pytest.raises(DataError):
            PretrainedFeatureExtractor(4, ())
