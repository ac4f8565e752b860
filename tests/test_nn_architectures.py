"""Tests for the scaled-down paper architectures."""

import numpy as np
import pytest

from helpers.per_worker import train_batch

from repro.exceptions import ConfigurationError
from repro.nn.architectures import densenet_mini, lenet5, mlp, transfer_head, vgg_mini


class TestFactories:
    def test_mlp_shapes(self):
        model = mlp(10, 4, hidden_units=(8, 6), seed=0)
        assert model.output_shape == (4,)
        out = model.forward(np.zeros((2, 10)))
        assert out.shape == (2, 4)

    def test_lenet5_builds_and_runs(self):
        model = lenet5(input_shape=(14, 14, 1), num_classes=10, seed=0)
        out = model.forward(np.zeros((3, 14, 14, 1)))
        assert out.shape == (3, 10)
        assert model.num_parameters > 1000

    def test_vgg_is_larger_than_lenet(self):
        lenet = lenet5(seed=0)
        vgg = vgg_mini(seed=0)
        assert vgg.num_parameters > lenet.num_parameters

    def test_densenet_variants_order_by_size(self):
        small = densenet_mini(blocks=(2, 2), seed=0)
        large = densenet_mini(blocks=(3, 3), seed=0)
        assert large.num_parameters > small.num_parameters

    def test_densenet_forward_and_backward(self):
        model = densenet_mini(input_shape=(10, 10, 3), num_classes=10, seed=0)
        x = np.random.default_rng(0).normal(size=(4, 10, 10, 3))
        loss = train_batch(model, x, np.array([0, 1, 2, 3]))
        assert np.isfinite(loss)
        assert model.num_buffers > 0  # batch-norm running statistics exist

    def test_transfer_head(self):
        model = transfer_head(feature_dim=32, num_classes=20, seed=0)
        out = model.forward(np.zeros((2, 32)))
        assert out.shape == (2, 20)

    def test_scaling_changes_parameter_count(self):
        small = lenet5(scale=0.5, seed=0)
        big = lenet5(scale=2.0, seed=0)
        assert big.num_parameters > small.num_parameters

    def test_relative_sizes_follow_the_paper_ordering(self):
        # Paper ordering: LeNet-5 < VGG16* < DenseNet121 < DenseNet201.
        sizes = [
            lenet5(seed=0).num_parameters,
            vgg_mini(seed=0).num_parameters,
        ]
        assert sizes == sorted(sizes)


class TestValidation:
    def test_mlp_rejects_bad_dims(self):
        with pytest.raises(ConfigurationError):
            mlp(0, 3)
        with pytest.raises(ConfigurationError):
            mlp(4, 1)

    def test_lenet_rejects_single_class(self):
        with pytest.raises(ConfigurationError):
            lenet5(num_classes=1)

    def test_densenet_requires_blocks(self):
        with pytest.raises(ConfigurationError):
            densenet_mini(blocks=())

    def test_transfer_head_rejects_bad_feature_dim(self):
        with pytest.raises(ConfigurationError):
            transfer_head(feature_dim=0, num_classes=5)

    def test_identical_seeds_are_reproducible(self):
        a = vgg_mini(seed=11)
        b = vgg_mini(seed=11)
        np.testing.assert_array_equal(a.get_parameters(), b.get_parameters())
