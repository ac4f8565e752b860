"""Asynchronous FDA with stragglers (the paper's Section-3.3 extension).

Synchronous protocols advance at the pace of the slowest worker.  The paper
notes FDA can run asynchronously: a coordinator collects the tiny local states
as each worker finishes a step and orders a synchronization when the variance
estimate (over the latest state from every worker) exceeds Θ.  The win is not
bandwidth — states are already tiny — but *straggler tolerance*: fast workers
keep learning while a slow worker catches up.

This example simulates a cluster where a quarter of the workers are 4× slower
and compares, for the same virtual wall-clock budget:

* synchronous FDA (every step waits for the slowest worker), and
* asynchronous FDA (workers proceed at their own pace).

Run with::

    python examples/asynchronous_stragglers.py
"""

from __future__ import annotations

import numpy as np

from repro.core.fda import FDATrainer
from repro.core.monitor import LinearMonitor
from repro.core.timeline import StragglerProfile
from repro.experiments.registry import lenet_mnist_workload
from repro.experiments.setup import build_cluster
from repro.serving import ServedFDATrainer, ServingConfig
from repro.utils.formatting import format_bytes

THETA = 8.0
VIRTUAL_SECONDS = 120.0
PROFILE = StragglerProfile(
    base_step_seconds=1.0, straggler_fraction=0.25, straggler_factor=4.0, jitter=0.05
)


def run_synchronous(workload) -> dict:
    """Synchronous FDA: each global step takes as long as the slowest worker."""
    cluster, test_dataset = build_cluster(workload)
    monitor = LinearMonitor(dimension=cluster.model_dimension, seed=0)
    trainer = FDATrainer(cluster, monitor, THETA)
    durations = PROFILE.step_durations(cluster.num_workers, seed=0)
    step_duration = float(durations.max())  # lockstep: wait for the straggler
    steps = int(VIRTUAL_SECONDS // step_duration)
    trainer.run_steps(steps)
    _, accuracy = cluster.evaluate_global(test_dataset)
    return {
        "mode": "synchronous FDA",
        "steps_per_worker": steps,
        "total_steps": steps * cluster.num_workers,
        "syncs": trainer.synchronization_count,
        "bytes": cluster.total_bytes,
        "accuracy": accuracy,
    }


def run_asynchronous(workload) -> dict:
    """Asynchronous FDA: fast workers do not wait for the straggler.

    The coordinator is the served trainer in its closed loop: every worker
    reports when its own step completes and is aggregated on the spot.
    """
    cluster, test_dataset = build_cluster(workload)
    monitor = LinearMonitor(dimension=cluster.model_dimension, seed=0)
    trainer = ServedFDATrainer(
        cluster, monitor, THETA, ServingConfig(arrival="closed"), profile=PROFILE, seed=0
    )
    trainer.serve_for(VIRTUAL_SECONDS)
    _, accuracy = cluster.evaluate_global(test_dataset)
    steps = [worker.steps_performed for worker in cluster.workers]
    return {
        "mode": "asynchronous FDA",
        "steps_per_worker": f"{min(steps)}-{max(steps)}",
        "total_steps": sum(steps),
        "syncs": trainer.synchronization_count,
        "bytes": cluster.total_bytes,
        "accuracy": accuracy,
    }


def main() -> None:
    print("Asynchronous FDA under stragglers")
    print("=" * 60)
    print(f"virtual time budget: {VIRTUAL_SECONDS:.0f} s, Theta = {THETA}, "
          f"straggler profile: 25% of workers 4x slower")

    workload = lenet_mnist_workload(num_workers=4)
    rows = [run_synchronous(workload), run_asynchronous(workload)]

    print(f"\n{'mode':<20}{'steps/worker':>14}{'total steps':>13}{'syncs':>7}"
          f"{'comm':>12}{'accuracy':>10}")
    print("-" * 76)
    for row in rows:
        print(
            f"{row['mode']:<20}{str(row['steps_per_worker']):>14}{row['total_steps']:>13}"
            f"{row['syncs']:>7}{format_bytes(row['bytes']):>12}{row['accuracy']:>10.3f}"
        )

    sync_steps, async_steps = rows[0]["total_steps"], rows[1]["total_steps"]
    print(
        f"\nWithin the same wall-clock budget the asynchronous protocol completed "
        f"{async_steps / max(sync_steps, 1):.1f}x more learning steps, because fast workers "
        "never wait for the straggler — the benefit the paper anticipates for the "
        "asynchronous mode of operation."
    )


if __name__ == "__main__":
    main()
