"""Worker churn, lossy links, and checkpoint/restore — a guided chaos run.

Real federated deployments lose workers mid-round, drop packets, and get
preempted; the reproduction's fault plane (:mod:`repro.faults`) simulates all
of that deterministically so robustness claims are reproducible bit-for-bit.
This walkthrough exercises the three layers end to end and *asserts* the
contracts along the way:

1. **A chaos run** — FDA trains through 15% per-round worker crashes and 10%
   per-link message loss.  Crashed workers freeze (their parameter-plane rows
   stop moving), survivors renormalize their collectives, and every rejoin
   pays a real model download charged to the byte ledger.
2. **Determinism** — the same :class:`~repro.faults.plan.FaultPlan` seed
   reproduces the identical fault log and final parameters.
3. **Checkpoint/restore** — the run snapshots itself mid-flight; a fresh
   cluster restored from the snapshot continues the trajectory bit-exactly.

Run with::

    python examples/churn_and_recovery.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.data.synthetic import gaussian_blobs
from repro.experiments.run import TrainingRun
from repro.experiments.setup import WorkloadConfig, build_cluster, make_optimizer
from repro.faults import FaultPlan
from repro.nn.architectures import mlp
from repro.strategies.fda_strategy import FDAStrategy
from repro.utils.formatting import format_bytes


def make_workload(faults: FaultPlan | None = None) -> WorkloadConfig:
    train = gaussian_blobs(360, feature_dim=8, num_classes=3, seed=0)
    test = gaussian_blobs(150, feature_dim=8, num_classes=3, seed=0)
    return WorkloadConfig(
        name="churn-demo",
        model_factory=lambda: mlp(8, 3, hidden_units=(16,), seed=0),
        train_dataset=train,
        test_dataset=test,
        optimizer_factory=make_optimizer("adam", learning_rate=0.01),
        num_workers=4,
        batch_size=16,
        seed=0,
        faults=faults,
    )


def run_once(workload: WorkloadConfig, max_steps: int = 80, **run_kwargs):
    resume_from = run_kwargs.pop("resume_from", None)
    cluster, test_dataset = build_cluster(workload)
    run = TrainingRun(
        accuracy_target=0.95, max_steps=max_steps, eval_every_steps=20, **run_kwargs
    )
    result = run.execute(
        FDAStrategy(threshold=0.5), cluster, test_dataset,
        workload_name=workload.name, resume_from=resume_from,
    )
    return cluster, result


def main() -> None:
    plan = FaultPlan(crash_rate=0.15, loss_rate=0.1, recovery_rounds=3, seed=7)
    workload = make_workload(plan)

    # -- 1. train through the chaos ---------------------------------------
    cluster, result = run_once(workload)
    log = result.fault_log
    print(f"chaos run under plan [{result.faults}]")
    print(f"  final accuracy    : {result.final_accuracy:.3f}")
    print(f"  communication     : {format_bytes(result.communication_bytes)}")
    print(f"  crashes / rejoins : {len(log['crashes'])} / {len(log['rejoins'])}")
    print(f"  retransmissions   : {log['total_retries']} retries, "
          f"{format_bytes(log['retransmitted_bytes'])}, "
          f"{log['total_backoff_seconds']:.2f}s backoff")
    recovery_bytes = sum(event["recovery_bytes"] for event in log["rejoins"])
    print(f"  recovery downloads: {format_bytes(recovery_bytes)}")
    assert log["crashes"], "the plan should have injected churn"
    assert all(event["recovery_bytes"] > 0 for event in log["rejoins"]), (
        "every rejoin pays a real model download"
    )
    # The fault log is the churn record: each kind of event in virtual-time
    # order, and no more rejoins than crashes.
    for kind in ("crashes", "rejoins"):
        times = [event["time"] for event in log[kind]]
        assert times == sorted(times)
    assert len(log["rejoins"]) <= len(log["crashes"])

    # -- 2. chaos is deterministic -----------------------------------------
    cluster_again, result_again = run_once(workload)
    assert result_again.fault_log == result.fault_log
    np.testing.assert_array_equal(
        cluster_again.parameter_matrix, cluster.parameter_matrix
    )
    print("\nsame plan, same seed -> identical fault log and final parameters")

    # -- 3. interrupt, restore, continue — bit-exactly ---------------------
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "checkpoint.ckpt"
        # "Crash" the driver at 40 steps, snapshotting every 20.
        run_once(workload, max_steps=40, checkpoint_every=20, checkpoint_path=snapshot)
        # A fresh process would do exactly this: rebuild, restore, continue.
        resumed_cluster, resumed = run_once(workload, resume_from=snapshot)
    np.testing.assert_array_equal(
        resumed_cluster.parameter_matrix, cluster.parameter_matrix
    )
    assert resumed.history.entries == result.history.entries
    assert resumed.fault_log == result.fault_log
    print("interrupted at step 40, restored, continued -> bit-identical to the "
          "uninterrupted run")


if __name__ == "__main__":
    main()
