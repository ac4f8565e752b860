"""Tests for batch sampling and the frozen feature extractor."""

import numpy as np
import pytest

from repro.data.features import PretrainedFeatureExtractor
from repro.data.loaders import BatchSampler, EpochIterator
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
