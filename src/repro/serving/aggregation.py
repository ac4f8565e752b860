"""Staleness-aware aggregation rules for served updates.

An update's *staleness* is the number of global synchronizations that
happened between the instant its state was computed and the instant the
coordinator aggregates it.  Each rule maps staleness to a non-negative
weight; a zero weight rejects the update outright.  The weights compose with
the weighted-aggregation seam: the harness keeps one weight per row of its
state table, normalizes them as a
:class:`~repro.distributed.participation.Participation`, and feeds the result
to :meth:`VarianceMonitor.average <repro.core.monitor.VarianceMonitor.average>`
— equal weights (the ``"uniform"`` rule always) pass ``None``, the plain mean
of the rows.

Rules:

* ``"uniform"`` — staleness ignored, every update weighs 1 (the legacy mean);
* ``"staleness-weighted"`` — weight ``1 / (1 + s)``, gently discounting
  stale contributions;
* ``"max-staleness"`` — weight 1 up to the configured bound, 0 beyond it
  (hard rejection);
* ``"polynomial"`` — FedAsync-style decay ``(1 + s) ** -alpha``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["STALENESS_RULES", "staleness_weight", "staleness_weights"]

STALENESS_RULES = ("uniform", "staleness-weighted", "max-staleness", "polynomial")


def staleness_weight(
    rule: str,
    staleness: int,
    *,
    max_staleness: int = 4,
    poly_alpha: float = 0.5,
) -> float:
    """Aggregation weight of one update with the given staleness (0 rejects)."""
    if staleness < 0:
        raise ConfigurationError(f"staleness must be non-negative, got {staleness}")
    if rule == "uniform":
        return 1.0
    if rule == "staleness-weighted":
        return 1.0 / (1.0 + staleness)
    if rule == "max-staleness":
        return 1.0 if staleness <= max_staleness else 0.0
    if rule == "polynomial":
        return float((1.0 + staleness) ** -poly_alpha)
    raise ConfigurationError(
        f"unknown staleness rule {rule!r}; expected one of {STALENESS_RULES}"
    )


def staleness_weights(
    rule: str,
    stalenesses: Sequence[int],
    *,
    max_staleness: int = 4,
    poly_alpha: float = 0.5,
) -> np.ndarray:
    """Vectorized :func:`staleness_weight` over one staleness per worker."""
    return np.array(
        [
            staleness_weight(
                rule, s, max_staleness=max_staleness, poly_alpha=poly_alpha
            )
            for s in stalenesses
        ],
        dtype=np.float64,
    )
