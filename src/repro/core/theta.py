"""Selecting and adapting the variance threshold Θ.

Section 4.3 / Figure 12 of the paper reports that the useful range of Θ grows
linearly with the model dimension ``d`` and gives three empirically fitted
slopes (FL, balanced, HPC).  :func:`theta_guideline` exposes those guidelines,
:func:`fit_theta_slope` re-fits the linear relationship from (d, best-Θ)
pairs (used by the Figure-12 benchmark), and :func:`calibrate_theta` derives a
workload-specific Θ by probing the drift magnitude of a short synchronous run
(the practical recipe for this scaled-down reproduction, whose drift
magnitudes differ from full-size TensorFlow models).

The paper's future-work section sketches adapting Θ online to meet a target
bandwidth budget; :class:`DynamicThetaController` implements that controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: Slopes of the Θ ≈ c·d guidelines reported in Figure 12 of the paper.
PAPER_THETA_SLOPES: Dict[str, float] = {
    "fl": 4.91e-5,
    "balanced": 3.89e-5,
    "hpc": 2.74e-5,
}


@dataclass(frozen=True)
class ThetaGuideline:
    """A linear Θ-versus-d guideline: Θ(d) = slope · d."""

    name: str
    slope: float

    def __post_init__(self) -> None:
        if self.slope <= 0:
            raise ConfigurationError(f"slope must be positive, got {self.slope}")

    def theta(self, model_dimension: int) -> float:
        """Recommended Θ for a model with ``model_dimension`` parameters."""
        if model_dimension <= 0:
            raise ConfigurationError(
                f"model_dimension must be positive, got {model_dimension}"
            )
        return self.slope * model_dimension


def theta_guideline(model_dimension: int, setting: str = "balanced") -> float:
    """The paper's empirical Θ guideline for a given deployment setting.

    ``setting`` is ``"fl"`` (slow shared channel, favour less communication),
    ``"balanced"``, or ``"hpc"`` (fast interconnect, favour less computation).
    """
    try:
        slope = PAPER_THETA_SLOPES[setting]
    except KeyError:
        raise ConfigurationError(
            f"unknown setting {setting!r}; known: {sorted(PAPER_THETA_SLOPES)}"
        ) from None
    return ThetaGuideline(setting, slope).theta(model_dimension)


def fit_theta_slope(
    model_dimensions: Sequence[int], best_thetas: Sequence[float]
) -> Tuple[float, float]:
    """Least-squares fit of Θ = slope · d through the origin.

    Returns ``(slope, r_squared)``.  Used by the Figure-12 benchmark to verify
    that the best Θ found per learning task grows linearly with the model
    dimension, as the paper reports.
    """
    dims = np.asarray(model_dimensions, dtype=np.float64)
    thetas = np.asarray(best_thetas, dtype=np.float64)
    if dims.shape != thetas.shape or dims.ndim != 1:
        raise ConfigurationError(
            "model_dimensions and best_thetas must be 1-D sequences of equal length"
        )
    if dims.size < 2:
        raise ConfigurationError("at least two (dimension, theta) pairs are required")
    if np.any(dims <= 0):
        raise ConfigurationError("model dimensions must be positive")
    slope = float(np.dot(dims, thetas) / np.dot(dims, dims))
    predictions = slope * dims
    residual = float(np.sum((thetas - predictions) ** 2))
    total = float(np.sum((thetas - thetas.mean()) ** 2))
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return slope, r_squared


def calibrate_theta(
    drift_sq_norms: Sequence[float],
    target_sync_interval: int = 20,
) -> float:
    """Derive a workload-specific Θ from observed per-step drift magnitudes.

    ``drift_sq_norms`` are the mean squared drift norms observed over a few
    steps of plain synchronous training (so each entry is roughly the variance
    accumulated by one local step).  Scaling the per-step magnitude by the
    desired number of local steps between synchronizations gives a Θ in the
    right order of magnitude — the practical analogue of the paper's
    exploratory Θ-range search.
    """
    values = np.asarray(list(drift_sq_norms), dtype=np.float64)
    if values.size == 0:
        raise ConfigurationError("drift_sq_norms must contain at least one value")
    if np.any(values < 0):
        raise ConfigurationError("drift_sq_norms must be non-negative")
    if target_sync_interval <= 0:
        raise ConfigurationError(
            f"target_sync_interval must be positive, got {target_sync_interval}"
        )
    return float(np.median(values) * target_sync_interval)


class DynamicThetaController:
    """Adapts Θ online to track a target bandwidth budget (paper's future work).

    The controller watches the average bytes transmitted per step over a
    sliding window.  If the consumption exceeds the budget, Θ is increased
    (fewer synchronizations, less bandwidth); if consumption is below the
    budget, Θ is decreased (more synchronizations, faster convergence).  The
    multiplicative adjustment keeps Θ within ``[min_theta, max_theta]``.
    """

    def __init__(
        self,
        target_bytes_per_step: float,
        window: int = 20,
        adjustment: float = 1.1,
        min_theta: float = 1e-12,
        max_theta: float = 1e12,
    ) -> None:
        if target_bytes_per_step <= 0:
            raise ConfigurationError(
                f"target_bytes_per_step must be positive, got {target_bytes_per_step}"
            )
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        if adjustment <= 1.0:
            raise ConfigurationError(f"adjustment must be > 1, got {adjustment}")
        if min_theta <= 0 or max_theta <= min_theta:
            raise ConfigurationError(
                f"need 0 < min_theta < max_theta, got {min_theta}, {max_theta}"
            )
        self.target_bytes_per_step = float(target_bytes_per_step)
        self.window = int(window)
        self.adjustment = float(adjustment)
        self.min_theta = float(min_theta)
        self.max_theta = float(max_theta)
        self._recent_bytes = []
        self._adjustment_count = 0

    def update(self, current_theta: float, step_bytes: float, synchronized: bool) -> float:
        """Observe one step's traffic and return the (possibly adjusted) Θ."""
        del synchronized  # the byte count already reflects whether a sync happened
        self._recent_bytes.append(float(step_bytes))
        if len(self._recent_bytes) < self.window:
            return current_theta
        average = float(np.mean(self._recent_bytes))
        self._recent_bytes = []
        self._adjustment_count += 1
        if average > self.target_bytes_per_step:
            adjusted = current_theta * self.adjustment
        else:
            adjusted = current_theta / self.adjustment
        return float(np.clip(adjusted, self.min_theta, self.max_theta))

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the open byte window and the adjustment count."""
        return {
            "recent_bytes": list(self._recent_bytes),
            "adjustment_count": self._adjustment_count,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self._recent_bytes = [float(b) for b in state["recent_bytes"]]
        self._adjustment_count = int(state["adjustment_count"])

    def __repr__(self) -> str:
        return (
            f"DynamicThetaController(target={self.target_bytes_per_step}, "
            f"window={self.window}, adjustment={self.adjustment})"
        )
