"""Choosing the variance threshold Θ: trade-off sweep and guideline.

Θ is FDA's single tuning knob: larger values tolerate more model divergence
before synchronizing (less communication, potentially more computation).  This
example walks through the two ways the library supports choosing it:

1. sweep a Θ grid and inspect the communication/computation trade-off
   (Figures 8-11 of the paper);
2. apply the paper's linear guideline Θ ≈ c·d for a deployment setting
   (Figure 12), plus the workload-specific calibration helper.

Run with::

    python examples/threshold_selection.py
"""

from __future__ import annotations

from repro import TrainingRun, build_cluster
from repro.core.theta import calibrate_theta, theta_guideline
from repro.experiments.registry import fda, lenet_mnist_workload
from repro.experiments.sweep import lower_grid, run_grid
from repro.strategies.synchronous import SynchronousStrategy
from repro.utils.formatting import format_bytes


def sweep_section(workload, run) -> None:
    print("\n### 1. Θ sweep (communication vs computation trade-off)")
    thetas = [1.0, 4.0, 16.0, 64.0]
    points = run_grid(lower_grid(workload, run, fda, theta=thetas))
    print(f"{'Theta':>8}  {'reached':>7}  {'comm':>12}  {'steps':>6}  {'syncs':>5}")
    for point in points:
        result = point.result
        print(
            f"{point.tags['theta']:>8g}  {str(result.reached_target):>7}  "
            f"{format_bytes(result.communication_bytes):>12}  "
            f"{result.parallel_steps:>6}  {result.synchronizations:>5}"
        )
    print("Expected trend: synchronizations and model traffic drop as Θ grows.")


def guideline_section(workload) -> None:
    print("\n### 2. The paper's Θ guideline and workload calibration")
    dimension = workload.model_factory().num_parameters
    for setting in ("fl", "balanced", "hpc"):
        print(f"  paper guideline ({setting:>8}): Θ ≈ {theta_guideline(dimension, setting):.4f}"
              f"  (d = {dimension})")

    # Workload-specific calibration: probe the per-step worker drift of a short
    # synchronous run and target ~20 local steps between synchronizations.
    cluster, _ = build_cluster(workload)
    strategy = SynchronousStrategy().attach(cluster)
    drift_norms = []
    for _ in range(10):
        reference = cluster.average_parameters()
        cluster.step_all()
        drifts = cluster.drift_matrix(reference)
        drift_norms.append(float((drifts**2).sum(axis=1).mean()))
        cluster.synchronize()
    calibrated = calibrate_theta(drift_norms, target_sync_interval=20)
    print(f"  calibrated from drift probe: Θ ≈ {calibrated:.3f} "
          "(aimed at ~20 steps between synchronizations)")


def main() -> None:
    print("Selecting the FDA variance threshold Θ")
    print("=" * 60)
    workload = lenet_mnist_workload(num_workers=4)
    run = TrainingRun(accuracy_target=0.9, max_steps=300, eval_every_steps=20)
    sweep_section(workload, run)
    guideline_section(workload)


if __name__ == "__main__":
    main()
