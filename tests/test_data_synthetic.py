"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data.synthetic import (
    gaussian_blobs,
    synthetic_cifar,
    synthetic_digits,
    synthetic_features,
)
from repro.exceptions import DataError


class TestSyntheticDigits:
    def test_shapes_and_labels(self):
        data = synthetic_digits(120, image_size=14, num_classes=10, seed=0)
        assert data.x.shape == (120, 14, 14, 1)
        assert data.num_classes == 10
        assert set(np.unique(data.y)).issubset(set(range(10)))

    def test_classes_are_balanced(self):
        data = synthetic_digits(200, num_classes=10, seed=0)
        counts = data.class_counts()
        assert counts.max() - counts.min() <= 1

    def test_reproducible(self):
        a = synthetic_digits(50, seed=3)
        b = synthetic_digits(50, seed=3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_give_different_tasks(self):
        a = synthetic_digits(50, seed=1)
        b = synthetic_digits(50, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_classes_are_distinguishable(self):
        # Nearest-class-prototype classification should beat chance by a lot.
        data = synthetic_digits(300, noise=0.2, seed=0)
        flat = data.x.reshape(len(data), -1)
        prototypes = np.stack([flat[data.y == c].mean(axis=0) for c in range(10)])
        predictions = np.argmin(
            ((flat[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2), axis=1
        )
        assert (predictions == data.y).mean() > 0.8

    def test_invalid_arguments(self):
        with pytest.raises(DataError):
            synthetic_digits(0)
        with pytest.raises(DataError):
            synthetic_digits(10, num_classes=1)
        with pytest.raises(DataError):
            synthetic_digits(10, image_size=3)
        with pytest.raises(DataError):
            synthetic_digits(10, noise=-1)


class TestSyntheticCifar:
    def test_shapes(self):
        data = synthetic_cifar(60, image_size=12, channels=3, seed=0)
        assert data.x.shape == (60, 12, 12, 3)

    def test_channel_count_configurable(self):
        data = synthetic_cifar(20, channels=1, seed=0)
        assert data.sample_shape[-1] == 1

    def test_reproducible(self):
        a = synthetic_cifar(30, seed=9)
        b = synthetic_cifar(30, seed=9)
        np.testing.assert_array_equal(a.x, b.x)


class TestSyntheticFeatures:
    def test_shapes(self):
        data = synthetic_features(100, feature_dim=16, num_classes=5, seed=0)
        assert data.x.shape == (100, 16)
        assert data.num_classes == 5

    def test_separation_controls_difficulty(self):
        easy = synthetic_features(400, feature_dim=8, num_classes=4, class_separation=8.0, seed=0)
        hard = synthetic_features(400, feature_dim=8, num_classes=4, class_separation=0.5, seed=0)

        def nearest_prototype_accuracy(data):
            prototypes = np.stack([data.x[data.y == c].mean(axis=0) for c in range(4)])
            predictions = np.argmin(
                ((data.x[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2), axis=1
            )
            return (predictions == data.y).mean()

        assert nearest_prototype_accuracy(easy) > nearest_prototype_accuracy(hard)

    def test_gaussian_blobs_wrapper(self):
        data = gaussian_blobs(90, feature_dim=4, num_classes=3, seed=0)
        assert data.x.shape == (90, 4) and data.num_classes == 3

    def test_invalid_arguments(self):
        with pytest.raises(DataError):
            synthetic_features(10, feature_dim=1)
        with pytest.raises(DataError):
            synthetic_features(10, class_separation=0.0)

