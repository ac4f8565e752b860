"""Tests for classification metrics."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn.metrics import accuracy


class TestAccuracy:
    def test_from_predicted_labels(self):
        assert accuracy(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])) == 0.75

    def test_from_logits(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 4.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_empty_inputs(self):
        assert accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([0, 1]), np.array([0, 1, 2]))
