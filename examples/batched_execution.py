"""Batched execution: advance all K workers in one vectorized pass.

The simulator has two execution engines.  The default, ``"sequential"``,
steps the K simulated workers one Python loop iteration at a time — faithful
and simple, but per-layer Python dispatch dominates at the large worker
counts the paper sweeps (K up to 64).  ``execution="batched"`` runs the whole
cluster's forward/backward as stacked ``(K, B, ...)`` kernels over views of
the cluster's ``(K, d)`` parameter matrix, and applies all K optimizer
updates as one ``(K, d)`` in-place step.  Same protocol, same byte ledger,
same trajectory (to floating-point tolerance) — only faster.

This example trains LinearFDA twice, once per engine, and verifies that the
results agree while reporting the wall-clock difference.  A second section
does the same under **partial participation** (``dropout_rate=0.25``): the
batched engine then executes only the participating rows of its ``(K, d)``
matrices per step — dropped-out workers neither compute nor consume RNG
draws, exactly like the sequential loop, so the runs still agree while
staying vectorized.

Run with::

    python examples/batched_execution.py
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import FDAStrategy, TrainingRun, build_cluster
from repro.experiments.registry import lenet_mnist_workload
from repro.utils.formatting import format_bytes


def main() -> None:
    print("Batched K-worker execution engine")
    print("=" * 60)

    # One flag on the workload selects the engine for every cluster built
    # from it; `repro.cli compare --execution batched` does the same thing
    # from the command line.
    workload = lenet_mnist_workload(num_workers=16)
    run = TrainingRun(accuracy_target=0.9, max_steps=200, eval_every_steps=40)

    results = {}
    for execution in ("sequential", "batched"):
        cluster, test_dataset = build_cluster(replace(workload, execution=execution))
        start = time.perf_counter()
        result = run.execute(
            FDAStrategy(threshold=8.0, variant="linear"),
            cluster,
            test_dataset,
            workload_name=workload.name,
        )
        elapsed = time.perf_counter() - start
        results[execution] = (result, elapsed)
        print(
            f"\n{execution:>10}: accuracy {result.final_accuracy:.3f}, "
            f"{result.parallel_steps} steps, "
            f"{result.synchronizations} syncs, "
            f"{format_bytes(result.communication_bytes)}, "
            f"{elapsed:.2f}s wall-clock"
        )

    sequential, seq_time = results["sequential"]
    batched, bat_time = results["batched"]
    assert sequential.communication_bytes == batched.communication_bytes, (
        "the engines must charge identical communication"
    )
    assert sequential.synchronizations == batched.synchronizations
    print(
        f"\nidentical ledgers ({format_bytes(batched.communication_bytes)}, "
        f"{batched.synchronizations} syncs); "
        f"batched engine ran {seq_time / bat_time:.2f}x faster"
    )

    # -- masked batched execution: partial participation stays vectorized ----
    print("\nPartial participation (dropout_rate=0.25) on both engines")
    print("=" * 60)
    # The same workload flag that enables timeline dropout for sequential
    # runs now also works batched: each FDA step samples the participation
    # mask from the timeline, and the batched engine gathers just the active
    # rows into an (A, d) scratch block, runs one stacked pass, and scatters
    # them back.  Per-worker optimizer state (per-row moments, per-worker
    # step counts) keeps Adam/schedules correct for workers that sat out.
    masked = replace(workload, dropout_rate=0.25)
    masked_results = {}
    for execution in ("sequential", "batched"):
        cluster, test_dataset = build_cluster(replace(masked, execution=execution))
        start = time.perf_counter()
        result = run.execute(
            FDAStrategy(threshold=8.0, variant="linear"),
            cluster,
            test_dataset,
            workload_name=masked.name,
        )
        elapsed = time.perf_counter() - start
        masked_results[execution] = (result, elapsed)
        steps = [w.steps_performed for w in cluster.workers]
        print(
            f"\n{execution:>10}: accuracy {result.final_accuracy:.3f}, "
            f"worker steps {min(steps)}..{max(steps)} (unequal: dropout), "
            f"{result.synchronizations} syncs, "
            f"{format_bytes(result.communication_bytes)}, {elapsed:.2f}s"
        )
    seq_masked, seq_masked_time = masked_results["sequential"]
    bat_masked, bat_masked_time = masked_results["batched"]
    assert seq_masked.communication_bytes == bat_masked.communication_bytes
    assert seq_masked.synchronizations == bat_masked.synchronizations
    # (The speedup story lives in benchmarks/test_bench_hotpath.py on a
    # deep-narrow dispatch-bound model; this small conv workload is about
    # demonstrating agreement, not throughput.)
    print(
        f"\nmasked runs agree too; sequential/batched wall-clock ratio "
        f"{seq_masked_time / bat_masked_time:.2f}x under dropout"
    )


if __name__ == "__main__":
    main()
