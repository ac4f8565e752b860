"""Kernel-density summaries of (communication, computation) distributions.

The paper visualizes its 1000+ runs as bivariate KDE plots of communication
(GB, log scale) against in-parallel learning steps (log scale).  Rendering
figures is out of scope here, but the same density estimate is computed so
benchmarks and examples can report where each strategy's mass lies — e.g. the
density-weighted centroid that corresponds to the visually densest region of
the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

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


def kde_density(
    results: Sequence[RunResult],
    grid_size: int = 32,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a Gaussian KDE of the runs on a log-log grid.

    Returns ``(log_comm_grid, log_steps_grid, density)`` where ``density`` has
    shape ``(grid_size, grid_size)``.  Falls back to a single-peak histogram
    when there are too few (or degenerate) points for a KDE.
    """
    if not results:
        raise ExperimentError("kde_density requires at least one run result")
    points = _log_points(results)
    comm_lo, comm_hi = points[:, 0].min() - 0.5, points[:, 0].max() + 0.5
    steps_lo, steps_hi = points[:, 1].min() - 0.5, points[:, 1].max() + 0.5
    log_comm_grid = np.linspace(comm_lo, comm_hi, grid_size)
    log_steps_grid = np.linspace(steps_lo, steps_hi, grid_size)
    mesh_comm, mesh_steps = np.meshgrid(log_comm_grid, log_steps_grid, indexing="ij")

    unique_points = np.unique(points, axis=0)
    if points.shape[0] < 3 or unique_points.shape[0] < 3:
        # Degenerate case: place unit mass at the nearest grid cell(s).
        density = np.zeros((grid_size, grid_size))
        for point in points:
            i = int(np.argmin(np.abs(log_comm_grid - point[0])))
            j = int(np.argmin(np.abs(log_steps_grid - point[1])))
            density[i, j] += 1.0
        density /= density.sum()
        return log_comm_grid, log_steps_grid, density

    # Imported here, not at module level: scipy.stats takes ~0.7 s to import
    # and ``import repro`` reaches this module.
    from scipy import stats

    try:
        kernel = stats.gaussian_kde(points.T)
        density = kernel(np.vstack([mesh_comm.ravel(), mesh_steps.ravel()])).reshape(
            grid_size, grid_size
        )
    except np.linalg.LinAlgError:
        # Singular covariance (e.g. collinear points): jitter slightly and retry.
        jittered = points + np.random.default_rng(0).normal(scale=1e-3, size=points.shape)
        kernel = stats.gaussian_kde(jittered.T)
        density = kernel(np.vstack([mesh_comm.ravel(), mesh_steps.ravel()])).reshape(
            grid_size, grid_size
        )
    total = density.sum()
    if total > 0:
        density = density / total
    return log_comm_grid, log_steps_grid, density


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
