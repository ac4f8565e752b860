"""Tests for loss functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers.oracles import one_hot
from repro.exceptions import ShapeError
from repro.nn.losses import SoftmaxCrossEntropy


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_has_low_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[10.0, -10.0, -10.0]])
        assert loss.value(logits, np.array([0])) < 1e-6

    def test_uniform_prediction_is_log_num_classes(self):
        loss = SoftmaxCrossEntropy()
        logits = np.zeros((4, 5))
        assert loss.value(logits, np.array([0, 1, 2, 3])) == pytest.approx(np.log(5))

    def test_gradient_matches_softmax_minus_onehot(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        targets = np.array([1, 2])
        _, grad = loss.gradient(logits, targets)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(grad, (probs - one_hot(targets, 3)) / 2.0)

    def test_gradient_matches_numerical(self):
        loss = SoftmaxCrossEntropy()
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 4))
        targets = np.array([0, 3, 2])
        _, grad = loss.gradient(logits, targets)
        epsilon = 1e-6
        numerical = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                perturbed = logits.copy()
                perturbed[i, j] += epsilon
                plus = loss.value(perturbed, targets)
                perturbed[i, j] -= 2 * epsilon
                minus = loss.value(perturbed, targets)
                numerical[i, j] = (plus - minus) / (2 * epsilon)
        np.testing.assert_allclose(grad, numerical, rtol=1e-5, atol=1e-8)

    def test_label_smoothing_increases_loss_of_confident_prediction(self):
        plain = SoftmaxCrossEntropy()
        smoothed = SoftmaxCrossEntropy(label_smoothing=0.1)
        logits = np.array([[15.0, -15.0]])
        targets = np.array([0])
        assert smoothed.value(logits, targets) > plain.value(logits, targets)

    def test_value_and_gradient_agree(self):
        loss = SoftmaxCrossEntropy(label_smoothing=0.05)
        logits = np.random.default_rng(1).normal(size=(5, 3))
        targets = np.array([0, 1, 2, 1, 0])
        value_only = loss.value(logits, targets)
        value_from_gradient, _ = loss.gradient(logits, targets)
        assert value_only == pytest.approx(value_from_gradient)

    def test_rejects_non_2d_outputs(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(ShapeError):
            loss.value(np.zeros(3), np.array([0]))

    def test_rejects_invalid_smoothing(self):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy(label_smoothing=1.0)

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.float64,
            (4, 6),
            elements=st.floats(min_value=-30, max_value=30, allow_nan=False),
        )
    )
    def test_loss_is_always_non_negative(self, logits):
        loss = SoftmaxCrossEntropy()
        targets = np.arange(4) % 6
        assert loss.value(logits, targets) >= 0.0
