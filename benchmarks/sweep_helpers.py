"""Shared runner for the K-and-Θ sweep figures (Figures 8-11).

Each of those figures has the same structure: the top half varies the number
of workers K at a fixed Θ for all strategies, the bottom half varies Θ at a
fixed K for the two FDA variants.  The shape checks shared by all four:

* communication decreases (weakly) as Θ grows, for both FDA variants;
* the number of synchronizations decreases (weakly) as Θ grows;
* Synchronous communication dwarfs FDA communication at every worker count;
* FDA/FedOpt communication grows with K while Synchronous per-step volume is
  flat in the paper's accounting (total volume may still vary with convergence).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from benchmarks.conftest import print_sweep
from repro.experiments.executor import SweepExecutor
from repro.experiments.registry import ExperimentSpec
from repro.experiments.sweep import SweepPoint, lower_spec, run_grid, select


def run_figure_sweeps(spec: ExperimentSpec, executor: Optional[SweepExecutor] = None):
    """Run both sweeps of one figure spec on its first workload, as one batch.

    The Θ sweep (fixed K) covers the spec's FDA variants, the K sweep (the
    spec's central Θ) every strategy in the line-up; both come out of
    :func:`repro.experiments.sweep.lower_spec` and are keyed by strategy name.
    ``executor`` is shared by all cells when given, so one figure's cells can
    hit a populated run store and share memoized setup.
    """
    executor = executor if executor is not None else SweepExecutor()
    first = next(iter(spec.workloads))
    before = executor.stats.cells
    points = run_grid(select(lower_spec(spec, "theta", "workers"), workload=first), executor)
    fda = [name for name in spec.strategy_factories if "FDA" in name]
    assert executor.stats.cells - before == len(fda) * len(spec.fda_thetas) + len(
        spec.strategy_factories
    ) * len(spec.worker_counts)
    return (
        {name: select(points, grid="theta", strategy=name) for name in fda},
        {name: select(points, grid="workers", strategy=name) for name in spec.strategy_factories},
    )


def check_theta_trends(sweeps: Dict[str, List[SweepPoint]]) -> None:
    """Larger Θ ⇒ (weakly) fewer synchronizations and no more sync traffic."""
    for variant, points in sweeps.items():
        ordered = sorted(points, key=lambda p: p.tags["theta"])
        syncs = [p.result.synchronizations for p in ordered]
        assert all(b <= a + 1 for a, b in zip(syncs, syncs[1:])), (
            f"{variant}: synchronizations should not grow with Theta, got {syncs}"
        )
        model_bytes = [p.result.model_bytes for p in ordered]
        assert model_bytes[-1] <= model_bytes[0] + 1, (
            f"{variant}: model-sync traffic should shrink as Theta grows, got {model_bytes}"
        )


def check_worker_trends(sweeps: Dict[str, List[SweepPoint]]) -> None:
    """FDA stays far below Synchronous in communication at every K."""
    sync_points = {p.tags["num_workers"]: p.result for p in sweeps.get("Synchronous", [])}
    for name, points in sweeps.items():
        if "FDA" not in name:
            continue
        for point in points:
            workers, result = point.tags["num_workers"], point.result
            sync = sync_points.get(workers)
            if sync is None:
                continue
            assert result.communication_bytes < sync.communication_bytes, (
                f"{name} at K={workers} used {result.communication_bytes} bytes, "
                f"Synchronous used {sync.communication_bytes}"
            )


def print_figure(title: str, theta_sweeps, worker_sweeps) -> None:
    print(f"\n=== {title} ===")
    for name, points in theta_sweeps.items():
        print_sweep(f"Theta sweep ({name})", points)
    for name, points in worker_sweeps.items():
        print_sweep(f"K sweep ({name})", points, axis="num_workers")
