"""Shared fixtures for the test-suite.

Everything here is intentionally tiny (a few hundred samples, models with a
few hundred parameters) so the whole suite runs in well under a minute while
still exercising every code path of the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers.shards import shard_every_pass
from repro.data.synthetic import gaussian_blobs
from repro.experiments.setup import WorkloadConfig, make_optimizer
from repro.nn.architectures import mlp


BLOBS_FEATURES = 8
BLOBS_CLASSES = 3


@pytest.fixture()
def rng():
    """A deterministic NumPy generator for ad-hoc randomness in tests."""
    return np.random.default_rng(1234)


@pytest.fixture()
def every_pass_sharded(monkeypatch):
    """Every ``(rows × d)`` pass of two or more rows splits into row shards (three cores' worth)."""
    shard_every_pass(monkeypatch)


@pytest.fixture()
def blobs_train():
    """A small, easily separable training dataset."""
    return gaussian_blobs(360, feature_dim=BLOBS_FEATURES, num_classes=BLOBS_CLASSES, seed=0)


@pytest.fixture()
def blobs_test():
    """Held-out samples from the same class structure as ``blobs_train``."""
    return gaussian_blobs(150, feature_dim=BLOBS_FEATURES, num_classes=BLOBS_CLASSES, seed=0)


def small_model_factory(seed: int = 0):
    """A factory for a small MLP used as the worker model in cluster tests."""
    return lambda: mlp(
        BLOBS_FEATURES, BLOBS_CLASSES, hidden_units=(16,), seed=seed, name="test-mlp"
    )


@pytest.fixture()
def blobs_workload(blobs_train, blobs_test):
    """A ready-to-build workload over the blobs data with a small MLP."""
    return WorkloadConfig(
        name="blobs",
        model_factory=small_model_factory(),
        train_dataset=blobs_train,
        test_dataset=blobs_test,
        optimizer_factory=make_optimizer("adam", learning_rate=0.01),
        num_workers=4,
        batch_size=16,
        seed=0,
    )


def numerical_gradient(function, x, epsilon: float = 1e-6):
    """Central-difference numerical gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function(x)
        flat[index] = original - epsilon
        minus = function(x)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * epsilon)
    return grad
