"""Classification metrics used by the evaluation harness."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError


def accuracy(logits_or_predictions: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy.

    Accepts either a ``(N, num_classes)`` matrix of logits/probabilities or a
    1-D vector of predicted labels.
    """
    labels = np.asarray(labels)
    predictions = np.asarray(logits_or_predictions)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    if predictions.shape != labels.shape:
        raise ShapeError(
            f"predictions and labels must align, got {predictions.shape} and {labels.shape}"
        )
    if labels.size == 0:
        return 0.0
    return float(np.mean(predictions == labels))
