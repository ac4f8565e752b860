"""End-to-end training behaviour of every architecture family.

These tests train each miniature architecture on a tiny memorization problem
and check that loss decreases and the training data is (nearly) fit — the
classic "can it overfit a small batch" sanity check that exercises the full
forward/backward path of every layer type the architecture uses.
"""

import numpy as np
import pytest

from helpers.per_worker import solo_step, train_batch

from repro.nn.architectures import densenet_mini, lenet5, mlp, transfer_head, vgg_mini
from repro.nn.layers import BatchNorm, Dense, Dropout
from repro.nn.model import Sequential
from repro.optim.adam import Adam, AdamW
from repro.optim.sgd import SGD


def memorize(model, x, y, optimizer, steps=120):
    """Train on the full (tiny) batch repeatedly; return (first_loss, last_loss)."""
    first = model.evaluate(x, y)[0]
    for _ in range(steps):
        train_batch(model, x, y)
        model.set_parameters(solo_step(optimizer, model.get_parameters(), model.gradients_view()))
    last, accuracy = model.evaluate(x, y)
    return first, last, accuracy


class TestMemorization:
    def test_mlp_memorizes_random_labels(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(24, 6))
        y = rng.integers(0, 3, size=24)
        model = mlp(6, 3, hidden_units=(32, 16), seed=0)
        first, last, accuracy = memorize(model, x, y, Adam(0.01), steps=300)
        assert last < first
        assert accuracy > 0.9

    def test_lenet_memorizes_small_batch(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(16, 14, 14, 1))
        y = rng.integers(0, 10, size=16)
        model = lenet5(seed=0)
        first, last, accuracy = memorize(model, x, y, Adam(0.002), steps=200)
        assert last < first * 0.5
        assert accuracy > 0.8

    def test_vgg_mini_memorizes_small_batch(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 14, 14, 1))
        y = rng.integers(0, 10, size=12)
        model = vgg_mini(seed=0)
        first, last, accuracy = memorize(model, x, y, Adam(0.002), steps=200)
        assert last < first * 0.5
        assert accuracy > 0.8

    def test_densenet_mini_trains_with_sgd_nesterov(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(16, 10, 10, 3))
        y = rng.integers(0, 4, size=16)
        model = densenet_mini(input_shape=(10, 10, 3), num_classes=4, seed=0)
        optimizer = SGD(0.05, momentum=0.9, nesterov=True, weight_decay=1e-4)
        first, last, accuracy = memorize(model, x, y, optimizer, steps=150)
        assert last < first
        assert accuracy > 0.7

    def test_transfer_head_trains_with_adamw(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(32, 24))
        y = rng.integers(0, 5, size=32)
        model = transfer_head(feature_dim=24, num_classes=5, dropout_rate=0.0, seed=0)
        first, last, accuracy = memorize(model, x, y, AdamW(0.01, weight_decay=0.001), steps=300)
        assert last < first * 0.5
        assert accuracy > 0.85


class TestRegularizationBehaviour:
    def test_dropout_changes_training_but_not_inference(self):
        model = Sequential(
            [Dense(16, activation="relu"), Dropout(0.5, seed=1), Dense(3)]
        ).build((5,), seed=0)
        x = np.random.default_rng(0).normal(size=(8, 5))
        inference_a = model.forward(x, training=False)
        inference_b = model.forward(x, training=False)
        np.testing.assert_array_equal(inference_a, inference_b)
        training_a = model.forward(x, training=True)
        training_b = model.forward(x, training=True)
        assert not np.array_equal(training_a, training_b)

    def test_batchnorm_inference_consistent_after_training(self):
        model = Sequential(
            [Dense(8, activation="relu"), BatchNorm(), Dense(2)]
        ).build((4,), seed=0)
        optimizer = Adam(0.01)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 4))
        y = (x[:, 0] > 0).astype(int)
        for _ in range(30):
            train_batch(model, x, y)
            model.set_parameters(solo_step(optimizer, model.get_parameters(), model.gradients_view()))
        # Two inference passes agree exactly (running statistics frozen).
        np.testing.assert_array_equal(
            model.forward(x, training=False), model.forward(x, training=False)
        )
        # And inference accuracy reflects the learned separation.
        _, accuracy = model.evaluate(x, y)
        assert accuracy > 0.9

    def test_weight_decay_reduces_parameter_norm(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, 6))
        y = rng.integers(0, 3, size=32)
        plain = mlp(6, 3, hidden_units=(16,), seed=0)
        decayed = mlp(6, 3, hidden_units=(16,), seed=0)
        memorize(plain, x, y, SGD(0.05), steps=150)
        memorize(decayed, x, y, SGD(0.05, weight_decay=0.05), steps=150)
        assert np.linalg.norm(decayed.get_parameters()) < np.linalg.norm(plain.get_parameters())


class TestDeterminism:
    def test_identical_training_runs_are_bitwise_identical(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 6))
        y = rng.integers(0, 3, size=20)

        def train_once():
            model = mlp(6, 3, hidden_units=(8,), seed=3)
            optimizer = Adam(0.01)
            for _ in range(50):
                train_batch(model, x, y)
                model.set_parameters(
                    solo_step(optimizer, model.get_parameters(), model.gradients_view())
                )
            return model.get_parameters()

        np.testing.assert_array_equal(train_once(), train_once())
