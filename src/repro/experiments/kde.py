"""Log-space summaries of (communication, computation) distributions.

The paper visualizes its 1000+ runs as bivariate KDE plots of communication
(GB, log scale) against in-parallel learning steps (log scale).  Rendering
figures is out of scope here; each strategy's runs are summarized by their
centroid and spread in the same log10 space, where the densest region of the
paper's plots lies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.exceptions import ExperimentError
from repro.experiments.run import RunResult


@dataclass(frozen=True)
class KdeSummary:
    """Summary of a strategy's (log10 communication, log10 steps) distribution."""

    strategy: str
    num_runs: int
    centroid_log_comm: float
    centroid_log_steps: float
    spread_log_comm: float
    spread_log_steps: float


def _log_points(results: Sequence[RunResult]) -> np.ndarray:
    points = np.array(
        [
            [np.log10(max(result.communication_bytes, 1)), np.log10(max(result.parallel_steps, 1))]
            for result in results
        ],
        dtype=np.float64,
    )
    return points


def log_kde_summary(results: Iterable[RunResult]) -> List[KdeSummary]:
    """Per-strategy density summaries (centroid and spread in log10 space)."""
    by_strategy: Dict[str, List[RunResult]] = {}
    for result in results:
        by_strategy.setdefault(result.strategy, []).append(result)
    if not by_strategy:
        raise ExperimentError("log_kde_summary requires at least one run result")
    summaries = []
    for strategy, runs in by_strategy.items():
        points = _log_points(runs)
        summaries.append(
            KdeSummary(
                strategy=strategy,
                num_runs=len(runs),
                centroid_log_comm=float(points[:, 0].mean()),
                centroid_log_steps=float(points[:, 1].mean()),
                spread_log_comm=float(points[:, 0].std()),
                spread_log_steps=float(points[:, 1].std()),
            )
        )
    return summaries
