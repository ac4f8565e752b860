"""Shared helpers for the figure/table benchmarks.

Every benchmark pulls its configuration from :mod:`repro.experiments.registry`
(the single source of truth mapping paper figures to workloads), executes the
training runs once inside ``benchmark.pedantic``, prints a paper-style summary
table to stdout, and asserts the *qualitative* shape of the result (who wins,
roughly by how much) rather than absolute numbers — the substrate here is a
simulator, not the authors' 44-node GPU cluster.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from typing import Dict, List

import pytest

from repro.experiments.executor import SweepExecutor
from repro.experiments.registry import ExperimentSpec
from repro.experiments.results import ResultsTable
from repro.experiments.run import RunResult
from repro.experiments.reporting import format_comparison, format_results_table
from repro.experiments.setup import WorkloadConfig
from repro.experiments.sweep import SweepPoint, lower_grid, lower_spec, run_grid, select

#: Set REPRO_BENCH_FULL=1 to run the figures at their full (slow) grids.
QUICK_MODE = os.environ.get("REPRO_BENCH_FULL", "0") != "1"


def run_workload(workload: WorkloadConfig, strategy_factory, run) -> RunResult:
    """Execute one training run: a one-cell grid through the sweep executor."""
    (point,) = run_grid(lower_grid(workload, run, strategy_factory))
    return point.result


def run_spec(spec: ExperimentSpec) -> Dict[str, List[RunResult]]:
    """Run the spec's strategy comparison: every strategy on every workload.

    Returns results grouped by workload label.
    """
    executor = SweepExecutor()
    points = run_grid(lower_spec(spec, "comparison"), executor)
    assert executor.stats.cells == len(spec.workloads) * len(spec.strategy_factories)
    grouped: Dict[str, List[RunResult]] = {}
    for label, workload in spec.workloads.items():
        grouped[label] = [point.result for point in select(points, workload=label)]
        for result in grouped[label]:
            result.workload = f"{workload.name}[{label}]"
    return grouped


def print_grouped_results(title: str, grouped: Dict[str, List[RunResult]]) -> None:
    """Print one summary table per workload label."""
    print(f"\n=== {title} ===")
    for label, results in grouped.items():
        print(f"\n--- setting: {label} ---")
        print(format_results_table(results, reached_only=False))
        fda_names = [r.strategy for r in results if "FDA" in r.strategy]
        baselines = [r.strategy for r in results if "FDA" not in r.strategy]
        for fda_name in fda_names[:1]:
            for baseline in baselines:
                try:
                    print(format_comparison(results, fda_name, baseline))
                except Exception:  # noqa: BLE001 - reporting must never break a bench
                    pass


def print_sweep(title: str, points: List[SweepPoint], axis: str = "theta") -> None:
    """Print a one-line-per-grid-point summary of a sweep along ``axis``."""
    print(f"\n--- {title} ---")
    for point in points:
        result = point.result
        print(
            f"{axis}={point.tags[axis]:<8g} strategy={result.strategy:<12} "
            f"reached={str(result.reached_target):<5} comm={result.communication_bytes:>12} B  "
            f"steps={result.parallel_steps:>6}  syncs={result.synchronizations}"
        )


def strategies_by_name(results: List[RunResult]) -> Dict[str, RunResult]:
    """Index a list of results by strategy name (first occurrence wins)."""
    indexed: Dict[str, RunResult] = {}
    for result in results:
        indexed.setdefault(result.strategy, result)
    return indexed


def assert_fda_communication_advantage(
    results: List[RunResult], factor_vs_sync: float = 5.0
) -> None:
    """The shape check shared by Figures 3-6: FDA ≪ Synchronous in communication."""
    by_name = strategies_by_name(results)
    sync = by_name.get("Synchronous")
    assert sync is not None, "benchmark must include the Synchronous baseline"
    for name, result in by_name.items():
        if "FDA" not in name:
            continue
        assert result.communication_bytes < sync.communication_bytes / factor_vs_sync, (
            f"{name} used {result.communication_bytes} bytes, expected at least "
            f"{factor_vs_sync}x less than Synchronous ({sync.communication_bytes})"
        )


@pytest.fixture()
def quick() -> bool:
    """Whether the benchmarks run with the reduced (default) grids."""
    return QUICK_MODE
