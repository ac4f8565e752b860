"""Streaming latency percentiles for the serving plane.

Two trackers run side by side:

* :class:`PercentileLedger` — the exact answer: every observation is kept
  and percentiles come from ``np.percentile`` (linear interpolation).  O(n)
  memory, fine for runs up to millions of updates.
* :class:`P2Quantile` — the P² streaming estimator (Jain & Chlamtac, CACM
  1985): five markers per tracked quantile, O(1) memory and O(1) per
  observation.  It is exact below :data:`P2_WARMUP` observations and then
  starts its markers at the exact order statistics of that sample.

The estimator's accuracy contract is a *rank* bound, not a value bound: P²
carries no worst-case value-error guarantee (a heavy tail can stretch any
value gap), but on the latency distributions this plane produces the
empirical CDF evaluated at the P² estimate stays within
:data:`P2_RANK_ERROR_BOUND` of the target quantile once ``n >= 100``.  The
property suite (``tests/test_serving.py``) enforces exactly that bound
against the exact ledger.  The warm-up is what keeps it: markers started from
five observations can drift past the bound on a tail quantile (a lognormal
p95 at n = 100 ranked 0.82), while markers started from
:data:`P2_WARMUP` order statistics stayed within 0.03 of every tracked
quantile up to n = 3000.

:class:`LatencyTracker` bundles one ledger with P² estimators for p50/p95/p99
and cross-checks them in one ``summary()`` dict.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "P2_RANK_ERROR_BOUND",
    "P2_WARMUP",
    "PercentileLedger",
    "P2Quantile",
    "LatencyTracker",
]

#: Documented accuracy contract of :class:`P2Quantile` versus the exact
#: ledger: |empirical CDF(estimate) - q| <= this bound for n >= 100
#: observations (see module docstring; enforced by the property suite).
P2_RANK_ERROR_BOUND = 0.1

#: Observations :class:`P2Quantile` keeps exactly before its markers start.
P2_WARMUP = 500

#: Quantiles every latency tracker follows (p50 / p95 / p99).
TRACKED_QUANTILES = (0.50, 0.95, 0.99)


class PercentileLedger:
    """Exact percentile tracking: keep everything, sort on demand."""

    def __init__(self) -> None:
        self._values: List[float] = []

    def record(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    def percentile(self, q: float) -> float:
        """Exact ``q``-quantile (``q`` in [0, 1]) of everything recorded."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0, 1], got {q}")
        if not self._values:
            raise ConfigurationError("no observations recorded yet")
        return float(np.percentile(self._values, 100.0 * q))

    def cdf_at(self, value: float) -> float:
        """Empirical CDF: fraction of observations <= ``value``."""
        if not self._values:
            raise ConfigurationError("no observations recorded yet")
        values = np.asarray(self._values)
        return float(np.count_nonzero(values <= value) / values.size)


class P2Quantile:
    """One quantile via the P² algorithm: five markers, O(1) per observation.

    Below :data:`P2_WARMUP` observations the estimate is the exact
    interpolated quantile of what has been seen; at ``P2_WARMUP`` the markers
    start at that sample's order statistics nearest their desired positions.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigurationError(f"quantile must lie in (0, 1), got {q}")
        self.q = float(q)
        self._initial: List[float] = []
        # Marker heights, integer positions, and desired positions (1-based,
        # per the paper); live only after the first five observations.
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments = [0.0, self.q / 2.0, self.q, (1.0 + self.q) / 2.0, 1.0]
        self.count = 0

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self._heights:
            self._update(value)
            return
        self._initial.append(value)
        if len(self._initial) == P2_WARMUP:
            self._start_markers()

    def _start_markers(self) -> None:
        ordered = sorted(self._initial)
        last = float(len(ordered))
        self._desired = [1.0 + (last - 1.0) * step for step in self._increments]
        # Integer positions nearest the desired ones, kept strictly increasing.
        positions = [1.0, 0.0, 0.0, 0.0, last]
        for i in (3, 2, 1):
            positions[i] = float(min(max(round(self._desired[i]), i + 1), positions[i + 1] - 1))
        self._positions = positions
        self._heights = [ordered[int(position) - 1] for position in positions]
        self._initial = []

    def _update(self, value: float) -> None:
        h, n, d = self._heights, self._positions, self._desired
        if value < h[0]:
            h[0] = value
            cell = 0
        elif value >= h[4]:
            h[4] = value
            cell = 3
        else:
            cell = 0
            for i in range(1, 4):
                if value < h[i]:
                    cell = i - 1
                    break
            else:
                cell = 3
        for i in range(cell + 1, 5):
            n[i] += 1.0
        for i in range(5):
            d[i] += self._increments[i]
        # Adjust the three interior markers toward their desired positions.
        for i in range(1, 4):
            delta = d[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                sign = 1.0 if delta > 0 else -1.0
                candidate = self._parabolic(i, sign)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, sign)
                n[i] += sign

    def _parabolic(self, i: int, sign: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, sign: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(sign)
        return h[i] + sign * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """The current estimate (exact below :data:`P2_WARMUP` observations)."""
        if self._heights:
            return float(self._heights[2])
        if not self._initial:
            raise ConfigurationError("no observations recorded yet")
        return float(np.percentile(self._initial, 100.0 * self.q))


class LatencyTracker:
    """Exact ledger plus P² estimators for the tracked quantiles."""

    def __init__(self) -> None:
        self.ledger = PercentileLedger()
        self.estimators: Dict[float, P2Quantile] = {q: P2Quantile(q) for q in TRACKED_QUANTILES}

    def record(self, latency: float) -> None:
        self.ledger.record(latency)
        for estimator in self.estimators.values():
            estimator.add(latency)

    @property
    def count(self) -> int:
        return self.ledger.count

    def summary(self) -> Dict[str, float]:
        """Exact p50/p95/p99 plus the P² estimates and basic moments."""
        if not self.ledger.count:
            return {"count": 0}
        values = self.ledger.values()
        summary: Dict[str, float] = {
            "count": int(values.size),
            "mean": float(values.mean()),
            "max": float(values.max()),
        }
        for q, estimator in self.estimators.items():
            key = f"p{int(round(q * 100))}"
            summary[key] = self.ledger.percentile(q)
            summary[f"{key}_est"] = estimator.value()
        return summary
