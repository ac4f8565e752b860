"""Loss functions.

Losses take raw model outputs and integer labels (or regression targets) and
return a scalar loss plus the gradient with respect to the model outputs, so
the training loop is a plain ``loss.gradient`` → ``model.backward`` chain.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.activations import log_softmax, softmax


class Loss:
    """Base class: ``value`` returns the scalar loss, ``gradient`` both loss and grad."""

    def value(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        raise NotImplementedError

    def gradient(self, outputs: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        raise NotImplementedError

    def batched_gradient(
        self, outputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-worker losses and gradients for stacked ``(K, B, ...)`` outputs.

        Used by the engine: ``outputs`` carries one leading
        worker axis, ``targets`` is ``(K, B)``-shaped, and the return value is
        ``(losses, grads)`` with ``losses`` of shape ``(K,)`` and ``grads``
        aligned with ``outputs``.  Worker ``k``'s slice must equal what
        :meth:`gradient` computes on its mini-batch alone.  The default
        iterates; subclasses override with one vectorized evaluation.
        """
        # Per-worker losses are float64 scalars regardless of the compute
        # dtype; the gradient tensor stays in the outputs' dtype.
        losses = np.empty(outputs.shape[0], dtype=np.float64)
        grads = np.empty_like(outputs)
        for worker, (worker_out, worker_targets) in enumerate(zip(outputs, targets)):
            losses[worker], grads[worker] = self.gradient(worker_out, worker_targets)
        return losses, grads


class SoftmaxCrossEntropy(Loss):
    """Cross-entropy over logits with integrated softmax.

    ``outputs`` are raw logits of shape ``(N, num_classes)`` and ``targets``
    are integer class labels of shape ``(N,)``.  The gradient is the familiar
    ``softmax(logits) - one_hot(targets)`` divided by the batch size.
    """

    def __init__(self, label_smoothing: float = 0.0) -> None:
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must lie in [0, 1), got {label_smoothing}")
        self.label_smoothing = float(label_smoothing)

    def _target_distribution(
        self, targets: np.ndarray, num_classes: int, dtype=np.float64
    ) -> np.ndarray:
        targets = np.asarray(targets)
        if targets.ndim != 1:
            raise ShapeError(f"targets must be 1-D integer labels, got shape {targets.shape}")
        distribution = np.full(
            (targets.shape[0], num_classes),
            self.label_smoothing / num_classes,
            dtype=dtype,
        )
        distribution[np.arange(targets.shape[0]), targets.astype(int)] += 1.0 - self.label_smoothing
        return distribution

    def value(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        if outputs.ndim != 2:
            raise ShapeError(f"outputs must be (N, num_classes) logits, got shape {outputs.shape}")
        log_probs = log_softmax(outputs, axis=1)
        distribution = self._target_distribution(targets, outputs.shape[1], outputs.dtype)
        return float(-(distribution * log_probs).sum(axis=1).mean())

    def gradient(self, outputs: np.ndarray, targets: np.ndarray) -> Tuple[float, np.ndarray]:
        if outputs.ndim != 2:
            raise ShapeError(f"outputs must be (N, num_classes) logits, got shape {outputs.shape}")
        probs = softmax(outputs, axis=1)
        log_probs = log_softmax(outputs, axis=1)
        distribution = self._target_distribution(targets, outputs.shape[1], outputs.dtype)
        loss = float(-(distribution * log_probs).sum(axis=1).mean())
        grad = (probs - distribution) / outputs.shape[0]
        return loss, grad

    def batched_gradient(
        self, outputs: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One softmax/log-softmax sweep over all ``K`` workers' logits at once."""
        if outputs.ndim != 3:
            raise ShapeError(
                f"batched outputs must be (K, B, num_classes) logits, got shape {outputs.shape}"
            )
        targets = np.asarray(targets)
        if targets.shape != outputs.shape[:2]:
            raise ShapeError(
                f"batched targets must have shape {outputs.shape[:2]}, got {targets.shape}"
            )
        num_workers, batch, num_classes = outputs.shape
        probs = softmax(outputs, axis=-1)
        log_probs = log_softmax(outputs, axis=-1)
        # One flattened (K*B, C) target distribution via the shared helper
        # (single source of the label-smoothing semantics), regrouped per worker.
        distribution = self._target_distribution(
            targets.reshape(-1), num_classes, outputs.dtype
        ).reshape(outputs.shape)
        losses = -(distribution * log_probs).sum(axis=-1).mean(axis=-1)
        grads = (probs - distribution) / batch
        return losses, grads
