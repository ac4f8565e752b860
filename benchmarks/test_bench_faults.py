"""Fault-tolerance benchmark: FDA vs BSP degradation under churn and loss.

The paper's communication-efficiency claim is usually stated on a pristine
cluster; this benchmark stresses it on a hostile one.  A crash-rate x
loss-rate grid runs LinearFDA and the synchronous (BSP) baseline to the same
accuracy target under deterministic fault injection (worker churn with paid
re-entry downloads, per-link retransmission with backoff) and reports the
communication cost to target per cell — the headline cell being 10% crash +
5% loss, where FDA's advantage must survive.

Two exactness checks ride along, because they are cheap to assert here with
full runs in hand:

* **Conservation** — loss-only faults leave the trajectory bit-identical, so
  the faulted run's byte total must exceed the fault-free run's by exactly
  the logged retransmitted bytes.
* **Pure observer** — a null plan produces a byte ledger and history
  bit-identical to a run with no plan at all.

Emits ``BENCH_faults.json`` (section ``degradation``) for the CI artifact
trail.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from benchmarks.bench_json import emit_bench_section
from repro.data.synthetic import gaussian_blobs
from repro.experiments.run import TrainingRun
from repro.experiments.setup import WorkloadConfig, build_cluster, make_optimizer
from repro.faults import FaultPlan
from repro.nn.architectures import mlp
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.synchronous import SynchronousStrategy

#: (crash_rate, loss_rate) cells; the last is the headline 10% + 5% cell.
GRID = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.05), (0.1, 0.05)]

ACCURACY_TARGET = 0.85
MAX_STEPS = 200
FAULT_SEED = 7


def _workload() -> WorkloadConfig:
    train = gaussian_blobs(360, feature_dim=8, num_classes=3, seed=0)
    test = gaussian_blobs(150, feature_dim=8, num_classes=3, seed=0)
    return WorkloadConfig(
        name="blobs-faults",
        model_factory=lambda: mlp(8, 3, hidden_units=(16,), seed=0),
        train_dataset=train,
        test_dataset=test,
        optimizer_factory=make_optimizer("adam", learning_rate=0.01),
        num_workers=4,
        batch_size=16,
        seed=0,
    )


def _strategies():
    return (
        ("LinearFDA", lambda: FDAStrategy(threshold=0.5, variant="linear")),
        ("Synchronous", lambda: SynchronousStrategy()),
    )


def _run_cell(workload, strategy_factory):
    cluster, test_dataset = build_cluster(workload)
    run = TrainingRun(
        accuracy_target=ACCURACY_TARGET, max_steps=MAX_STEPS, eval_every_steps=20
    )
    result = run.execute(
        strategy_factory(), cluster, test_dataset, workload_name=workload.name
    )
    return cluster, result


def _bytes_to_target(result):
    """Communication bytes at the first evaluation that met the target."""
    for entry in result.history.entries:
        if entry["test_accuracy"] >= ACCURACY_TARGET:
            return int(entry["communication_bytes"])
    return None


def _degradation_grid():
    workload = _workload()
    rows = []
    results = {}
    for crash_rate, loss_rate in GRID:
        plan = FaultPlan(crash_rate=crash_rate, loss_rate=loss_rate, seed=FAULT_SEED)
        faulted = replace(workload, faults=None if plan.is_null else plan)
        for name, factory in _strategies():
            cluster, result = _run_cell(faulted, factory)
            log = result.fault_log or {}
            results[(crash_rate, loss_rate, name)] = (cluster, result)
            rows.append(
                {
                    "crash_rate": crash_rate,
                    "loss_rate": loss_rate,
                    "strategy": name,
                    "reached_target": result.reached_target,
                    "bytes_to_target": _bytes_to_target(result),
                    "total_bytes": result.communication_bytes,
                    "parallel_steps": result.parallel_steps,
                    "final_accuracy": result.final_accuracy,
                    "retransmitted_bytes": log.get("retransmitted_bytes", 0),
                    "crashes": len(log.get("crashes", [])),
                    "rejoins": len(log.get("rejoins", [])),
                }
            )
    return rows, results


def test_fda_beats_bsp_under_churn_and_loss(benchmark):
    rows, results = benchmark.pedantic(_degradation_grid, rounds=1, iterations=1)

    header = (
        f"{'crash':>7}{'loss':>7}  {'strategy':<13}{'to-target':>12}{'total':>12}"
        f"{'acc':>8}{'retx':>10}{'crashes':>9}"
    )
    print("\n=== Fault degradation grid: communication to "
          f"{ACCURACY_TARGET:.0%} accuracy ===")
    print(header)
    print("-" * len(header))
    for row in rows:
        to_target = row["bytes_to_target"]
        print(
            f"{row['crash_rate']:>7.2f}{row['loss_rate']:>7.2f}  "
            f"{row['strategy']:<13}"
            f"{(str(to_target) + ' B') if to_target is not None else 'miss':>12}"
            f"{row['total_bytes']:>10} B"
            f"{row['final_accuracy']:>8.3f}"
            f"{row['retransmitted_bytes']:>8} B"
            f"{row['crashes']:>9}"
        )
    emit_bench_section("faults", "degradation", rows)

    by_cell = {
        (row["crash_rate"], row["loss_rate"], row["strategy"]): row for row in rows
    }

    # Headline cell: at 10% churn + 5% loss both still reach the target, and
    # FDA's communication-to-target advantage over BSP survives the faults.
    fda = by_cell[(0.1, 0.05, "LinearFDA")]
    bsp = by_cell[(0.1, 0.05, "Synchronous")]
    assert fda["reached_target"], "FDA failed to reach the target under faults"
    assert bsp["reached_target"], "BSP failed to reach the target under faults"
    assert fda["bytes_to_target"] < bsp["bytes_to_target"], (
        f"FDA {fda['bytes_to_target']} B vs BSP {bsp['bytes_to_target']} B"
    )

    # Conservation: loss-only faults leave the trajectory untouched, so the
    # byte surcharge equals the logged retransmissions — per strategy, and
    # per link (the log's per-link entries sum to the same surcharge by
    # construction of FaultLog.retransmitted_bytes; asserted in the unit
    # suite against the fabric ledger as well).
    for name, _ in _strategies():
        clean_cluster, clean = results[(0.0, 0.0, name)]
        lossy_cluster, lossy = results[(0.0, 0.05, name)]
        np.testing.assert_array_equal(
            clean_cluster.parameter_matrix, lossy_cluster.parameter_matrix
        )
        surcharge = lossy.communication_bytes - clean.communication_bytes
        assert surcharge == lossy.fault_log["retransmitted_bytes"]
        per_link = 0
        for link, entry in lossy.fault_log["retransmissions"].items():
            src, dst = (int(end) for end in link.split("->"))
            link_delta = (
                lossy_cluster.fabric.bytes_by_link[(src, dst)]
                - clean_cluster.fabric.bytes_by_link[(src, dst)]
            )
            assert link_delta == entry["bytes"], f"link {link} leaks bytes"
            per_link += entry["bytes"]
        assert per_link == surcharge

    # Churn costs communication: the crash cells must charge strictly more
    # bytes than the pristine cell (each rejoin pays a model download).
    for name, _ in _strategies():
        pristine = by_cell[(0.0, 0.0, name)]
        churned = by_cell[(0.1, 0.0, name)]
        if churned["rejoins"]:
            assert churned["total_bytes"] > pristine["total_bytes"]


def test_null_plan_is_a_pure_observer(benchmark):
    def _pair():
        workload = _workload()
        _, plain = _run_cell(workload, _strategies()[0][1])
        _, nulled = _run_cell(replace(workload, faults=FaultPlan()), _strategies()[0][1])
        return plain, nulled

    plain, nulled = benchmark.pedantic(_pair, rounds=1, iterations=1)
    print("\n=== Null-plan observer check ===")
    print(f"  no plan  : {plain.communication_bytes} B, acc {plain.final_accuracy:.3f}")
    print(f"  null plan: {nulled.communication_bytes} B, acc {nulled.final_accuracy:.3f}")
    assert plain.communication_bytes == nulled.communication_bytes
    assert plain.history.entries == nulled.history.entries
    assert nulled.faults == "none" and nulled.fault_log is None
