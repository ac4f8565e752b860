"""Aggregation of training-run results.

The paper aggregates over 1000 runs into per-strategy distributions of
(communication, computation).  :class:`ResultsTable` collects
:class:`~repro.experiments.run.RunResult` objects and produces per-strategy
summaries (medians, ranges, reach rates) and pairwise comparisons such as
"FDA uses N× less communication than Synchronous", which are the claims the
benchmark suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.exceptions import ExperimentError
from repro.experiments.run import RunResult


@dataclass(frozen=True)
class StrategySummary:
    """Aggregate statistics for one strategy across runs."""

    strategy: str
    num_runs: int
    reach_rate: float
    median_communication_bytes: float
    median_parallel_steps: float
    min_communication_bytes: float
    max_communication_bytes: float
    min_parallel_steps: float
    max_parallel_steps: float
    median_synchronizations: float
    median_final_accuracy: float
    median_virtual_seconds: float = 0.0


class ResultsTable:
    """A collection of run results with per-strategy aggregation."""

    def __init__(self, results: Optional[Iterable[RunResult]] = None) -> None:
        self._results: List[RunResult] = list(results) if results is not None else []

    def extend(self, results: Iterable[RunResult]) -> None:
        """Append several run results."""
        self._results.extend(results)

    def __len__(self) -> int:
        return len(self._results)

    def strategies(self) -> List[str]:
        """Distinct strategy names, in first-seen order."""
        seen: List[str] = []
        for result in self._results:
            if result.strategy not in seen:
                seen.append(result.strategy)
        return seen

    def for_strategy(self, strategy: str, reached_only: bool = False) -> List[RunResult]:
        """Results belonging to one strategy (optionally only target-reaching runs)."""
        selected = [r for r in self._results if r.strategy == strategy]
        if reached_only:
            selected = [r for r in selected if r.reached_target]
        return selected

    def summarize(self, strategy: str, reached_only: bool = True) -> StrategySummary:
        """Aggregate one strategy's runs into a :class:`StrategySummary`."""
        all_runs = self.for_strategy(strategy)
        if not all_runs:
            raise ExperimentError(f"no results recorded for strategy {strategy!r}")
        runs = [r for r in all_runs if r.reached_target] if reached_only else all_runs
        if not runs:
            runs = all_runs  # fall back so the summary is still informative
        comm = np.array([r.communication_bytes for r in runs], dtype=np.float64)
        steps = np.array([r.parallel_steps for r in runs], dtype=np.float64)
        syncs = np.array([r.synchronizations for r in runs], dtype=np.float64)
        accuracy = np.array([r.final_accuracy for r in runs], dtype=np.float64)
        seconds = np.array([r.virtual_seconds for r in runs], dtype=np.float64)
        return StrategySummary(
            strategy=strategy,
            num_runs=len(all_runs),
            reach_rate=float(np.mean([r.reached_target for r in all_runs])),
            median_communication_bytes=float(np.median(comm)),
            median_parallel_steps=float(np.median(steps)),
            min_communication_bytes=float(comm.min()),
            max_communication_bytes=float(comm.max()),
            min_parallel_steps=float(steps.min()),
            max_parallel_steps=float(steps.max()),
            median_synchronizations=float(np.median(syncs)),
            median_final_accuracy=float(np.median(accuracy)),
            median_virtual_seconds=float(np.median(seconds)),
        )

    def summaries(self, reached_only: bool = True) -> List[StrategySummary]:
        """Summaries for every strategy present."""
        return [self.summarize(name, reached_only) for name in self.strategies()]


def compare_strategies(
    results: Iterable[RunResult],
    candidate: str,
    baseline: str,
    reached_only: bool = True,
) -> Dict[str, float]:
    """Pairwise comparison: how much cheaper is ``candidate`` than ``baseline``?

    The ``baseline / candidate`` ratios of the per-strategy medians (> 1: the
    candidate wins), and both median byte counts: 0 B sent has no ratio.
    """
    table = ResultsTable(results)
    candidate_summary = table.summarize(candidate, reached_only)
    baseline_summary = table.summarize(baseline, reached_only)
    communication_ratio = (
        baseline_summary.median_communication_bytes
        / max(candidate_summary.median_communication_bytes, 1.0)
    )
    computation_ratio = (
        baseline_summary.median_parallel_steps
        / max(candidate_summary.median_parallel_steps, 1.0)
    )
    return {
        "communication_ratio": float(communication_ratio),
        "computation_ratio": float(computation_ratio),
        "candidate_communication_bytes": candidate_summary.median_communication_bytes,
        "baseline_communication_bytes": baseline_summary.median_communication_bytes,
        "candidate_reach_rate": candidate_summary.reach_rate,
        "baseline_reach_rate": baseline_summary.reach_rate,
    }
