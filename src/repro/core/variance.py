"""Model-variance algebra (Section 3 of the paper).

The model variance quantifies how far the worker models have drifted apart:

    Var(w_t) = (1/K) Σ_k ‖w_t^{(k)} − w̄_t‖²                      (Eq. 2)

Using the local drifts ``u_t^{(k)} = w_t^{(k)} − w_{t0}`` (difference from the
model at the last synchronization) the variance decomposes into

    Var(w_t) = (1/K) Σ_k ‖u_t^{(k)}‖² − ‖ū_t‖²                    (Eq. 4)

which is the identity both FDA variants monitor: the first term is cheap to
AllReduce (scalars), and the second is what the sketch / linear states
approximate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ShapeError


def _as_matrix(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Stack per-worker vectors into a (K, d) matrix with validation."""
    if len(vectors) == 0:
        raise ShapeError("at least one worker vector is required")
    matrix = np.stack([np.asarray(v, dtype=np.float64) for v in vectors], axis=0)
    if matrix.ndim != 2:
        raise ShapeError(f"worker vectors must be 1-D, got stacked shape {matrix.shape}")
    return matrix


def model_variance(parameters: Sequence[np.ndarray]) -> float:
    """Exact model variance Var(w_t) from the worker parameter vectors (Eq. 2)."""
    matrix = _as_matrix(parameters)
    average = matrix.mean(axis=0)
    deviations = matrix - average
    return float(np.mean(np.sum(deviations * deviations, axis=1)))


def drift_matrix(parameters: Sequence[np.ndarray], reference: np.ndarray) -> np.ndarray:
    """The (K, d) matrix of local drifts ``u_t^{(k)} = w_t^{(k)} − reference``."""
    matrix = _as_matrix(parameters)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape != (matrix.shape[1],):
        raise ShapeError(
            f"reference must have shape ({matrix.shape[1]},), got {reference.shape}"
        )
    return matrix - reference


def variance_from_drifts(drifts: Sequence[np.ndarray]) -> float:
    """Model variance computed through the drift decomposition (Eq. 4).

    Equal to :func:`model_variance` of the corresponding parameters for any
    common reference vector — the offset cancels.  The test-suite verifies the
    identity with property-based tests.
    """
    matrix = _as_matrix(drifts)
    mean_sq_norm = float(np.mean(np.sum(matrix * matrix, axis=1)))
    average_drift = matrix.mean(axis=0)
    return mean_sq_norm - float(np.dot(average_drift, average_drift))


def average_drift(drifts: Sequence[np.ndarray]) -> np.ndarray:
    """The global drift ū_t = (1/K) Σ_k u_t^{(k)}."""
    matrix = _as_matrix(drifts)
    return matrix.mean(axis=0)
