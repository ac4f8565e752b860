"""Figure 12 — Empirical estimation of the variance threshold (Θ versus d).

The paper fits Θ ≈ c·d across learning tasks of increasing model dimension and
reports three slopes (FL / balanced / HPC deployment settings).  This
benchmark sweeps Θ for three workloads of increasing model dimension, picks
for each the cheapest Θ that still reaches the accuracy target, fits the
linear relationship through the origin, and checks it is a reasonable fit with
a positive slope (absolute slopes differ from the paper because the drift
magnitudes of the miniature models differ from the full-size TensorFlow ones).
"""

import numpy as np

from benchmarks.conftest import print_sweep
from repro.core.theta import PAPER_THETA_SLOPES, fit_theta_slope, theta_guideline
from repro.experiments.executor import SweepExecutor
from repro.experiments.registry import fda, figure12
from repro.experiments.sweep import lower_grid, run_grid, select


def _run(quick):
    spec = figure12(quick=quick)
    executor = SweepExecutor()
    workloads = dict(spec["workloads"])
    every_point = run_grid(
        lower_grid(workloads, spec["run"], fda, theta=spec["theta_grid"]), executor
    )
    assert executor.stats.cells == len(workloads) * len(spec["theta_grid"])
    best_points = []
    all_sweeps = {}
    for label, workload in workloads.items():
        dimension = workload.model_factory().num_parameters
        points = select(every_point, workload=label)
        all_sweeps[label] = points
        reached = [p for p in points if p.result.reached_target]
        candidates = reached or points
        best = min(candidates, key=lambda p: p.result.communication_bytes)
        best_points.append((label, dimension, best.tags["theta"]))
    return spec, all_sweeps, best_points


def test_figure12_theta_guideline(benchmark, quick):
    spec, all_sweeps, best_points = benchmark.pedantic(_run, args=(quick,), rounds=1, iterations=1)

    print("\n=== Figure 12: empirical Theta-vs-d estimation ===")
    for label, points in all_sweeps.items():
        print_sweep(f"{label} Theta sweep", points)
    print("\nbest Theta per task:")
    for label, dimension, theta in best_points:
        print(f"  {label:<10} d={dimension:<8} best Theta={theta}")

    dimensions = [dimension for _, dimension, _ in best_points]
    thetas = [theta for _, _, theta in best_points]
    slope, r_squared = fit_theta_slope(dimensions, thetas)
    print(f"\nfitted slope: Theta ~ {slope:.3e} * d   (R^2 = {r_squared:.3f})")
    print("paper slopes for reference:", PAPER_THETA_SLOPES)
    for setting in PAPER_THETA_SLOPES:
        print(
            f"  paper guideline ({setting}): Theta(d=1e6) = "
            f"{theta_guideline(1_000_000, setting):.1f}"
        )

    assert slope > 0, "the best Theta must grow with the model dimension"
    assert np.isfinite(r_squared)
    # The best Theta for the largest model should not be smaller than the best
    # Theta for the smallest model (monotone trend underlying the linear fit).
    assert thetas[-1] >= thetas[0]
