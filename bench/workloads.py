"""The benchmark's six workloads: every constant, builder, timed region, check.

Shapes (K, d, model, fabric) are fixed because they decide which layer
dominates a workload; only the *number of operations* (rounds, updates, sweep
cells) scales, linearly with ``--seconds``, from the per-second rates below.
The rates were sized on the 2-core reference box so that ``--seconds 12``
(``run_seconds`` in BENCHMARK.json) gives a timed region of seven to ten
seconds when the host is quiet and up to twice that when it is busy, which
keeps the contract's 136 runs inside their hour; the same ``--seconds`` and
``--seed`` always give exactly the same operations, so every simulated metric
(bytes, virtual seconds, accuracy, latency percentiles) repeats bit for bit
and a speed-up shows as a shorter ``wall_s``.

Every layer is driven through public classes and functions only.  Each
workload pins ``execution="batched"`` and ``dtype="float32"`` and derives the
dataset, workload, strategy, fault-plan and arrival seeds from ``--seed``.
"""

from __future__ import annotations

import math
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.compression import CompressionConfig
from repro.core.monitor import make_monitor
from repro.data.datasets import train_test_split
from repro.data.synthetic import synthetic_features
from repro.experiments import setup as setup_layer
from repro.experiments.executor import SweepCell, SweepExecutor
from repro.experiments.persistence import result_to_dict
from repro.experiments.run import TrainingRun
from repro.experiments.setup import WorkloadConfig, make_optimizer
from repro.faults.plan import FaultPlan
from repro.nn.architectures import mlp, transfer_head
from repro.population.config import PopulationConfig
from repro.serving.config import ServingConfig
from repro.serving.harness import ServedFDATrainer
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.local_sgd import LocalSGDStrategy

# -- the shared "big model" ---------------------------------------------------
BIG_FEATURES = 150
BIG_CLASSES = 40
BIG_HIDDEN = (256, 256)  # d = 114 728
BIG_TRAIN_SAMPLES = 40_000
BIG_TEST_SAMPLES = 2_000
BIG_BATCH = 16
BIG_WORKERS = 32
EVAL_EVERY_STEPS = 50

# -- per-workload constants ---------------------------------------------------
FDA_THETA = 2.0
SKETCH_DEPTH, SKETCH_WIDTH = 5, 250
TOPK = CompressionConfig("topk", ratio=0.05, error_feedback=True)

POPULATION = PopulationConfig(
    num_clients=100_000, cohort_size=16, sampling="fixed", weighting="data-size"
)
POPULATION_THETA = 0.05
CRASH_RATE, LOSS_RATE, RECOVERY_ROUNDS = 0.05, 0.05, 3
CHECKPOINT_EVERY = 25

SERVE_WORKERS = 16
SERVE_FEATURES, SERVE_CLASSES, SERVE_HIDDEN = 32, 10, (64,)  # d = 2 762
SERVE_TRAIN_SAMPLES, SERVE_TEST_SAMPLES = 8_000, 2_000
SERVE_THETA = 0.05
SERVE_LEARNING_RATE = 0.01

SWEEP_WORKERS = 8
SWEEP_FEATURES, SWEEP_CLASSES, SWEEP_HIDDEN = 32, 20, (256, 128)
SWEEP_TRAIN_SAMPLES, SWEEP_TEST_SAMPLES = 49_500, 500  # a 50 000-sample dataset
SWEEP_WORKLOAD_SEEDS = 2
SWEEP_THETA_RANGE = (0.001, 1.0)
SWEEP_WARM_REPLAYS = 5

#: The ``--seconds`` the accuracy floors and sync-count checks were sized at;
#: shorter runs (``--smoke``) skip them, every other check always applies.
REFERENCE_SECONDS = 10
#: Most operations a ``--smoke`` run performs per workload.
SMOKE_OPERATIONS = 10

#: Readings that belong to one layer and exist only on the workloads that
#: reach it.  ``run.py`` starts every workload's values from 0 for exactly
#: these names, so "bypassed" is said in one place and any other declared
#: metric a run fails to produce is an error.  (``collective_calls`` also reads
#: 0 on ``sweep_grid``, whose per-cell clusters are gone when the cell returns;
#: the ``distributed.topology.*.calls`` spans count its collectives.)
LAYER_READINGS = (
    "latency_p99_virtual_s",
    "warm_wall_s",
    "core.fda.sync_rate",
    "distributed.topology.collective_calls",
    "compression.kept_ratio",
    "compression.bytes_saved_ratio",
    "faults.crashes",
    "faults.retransmitted_bytes",
    "faults.checkpoint.file_bytes",
    "population.store.evictions",
    "population.store.spill_loads",
    "population.store.spill_bytes",
    "population.store.peak_resident",
    "serving.queue.max_depth",
    "serving.queue.accept_ratio",
    "serving.stale_rejected",
    "serving.latency_p50_virtual_s",
    "serving.latency_p95_virtual_s",
    "serving.p2_p99_rel_error",
    "experiments.executor.hit_rate",
    "experiments.cache.store_bytes",
    "experiments.executor.parallel_speedup",
)


@dataclass
class Outcome:
    """What a workload reports after its timed region."""

    #: Operations offered: strategy rounds, served updates or sweep cells.
    attempted: int
    #: Operations that did not complete (exception, non-finite loss,
    #: dropped or shed update); failed output checks are added by ``run.py``.
    failed: int
    #: The paper's own axes; must repeat exactly for one seed.
    simulated: Dict[str, float]
    #: Exact counters read at the layer boundaries.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Output checks, name -> passed.
    checks: Dict[str, bool] = field(default_factory=dict)
    #: Extra host-time readings (only ``sweep_grid`` has any).
    host: Dict[str, float] = field(default_factory=dict)


def ledger_checks(cluster) -> Dict[str, bool]:
    """The byte-conservation law: tracker total == Σ links == Σ categories."""
    total = cluster.tracker.total_bytes
    return {
        "bytes_total_equals_links": total == sum(cluster.fabric.bytes_by_link.values()),
        "bytes_total_equals_categories": total
        == sum(cluster.tracker.bytes_by_category.values()),
    }


def cluster_simulated(cluster, accuracy: float) -> Dict[str, float]:
    return {
        "comm_bytes": float(cluster.total_bytes),
        "virtual_s": float(cluster.virtual_time),
        "final_accuracy": float(accuracy),
        "sync_count": float(cluster.synchronization_count),
    }


def fabric_counters(cluster) -> Dict[str, float]:
    tracker = cluster.tracker
    return {
        "core.fda.state_bytes": float(tracker.bytes_for("fda-state")),
        "distributed.topology.model_bytes": float(tracker.bytes_for("model-sync")),
        "distributed.topology.collective_calls": float(
            sum(tracker.operations_by_category.values())
        ),
    }


def big_model_datasets(seed: int):
    full = synthetic_features(
        BIG_TRAIN_SAMPLES + BIG_TEST_SAMPLES,
        feature_dim=BIG_FEATURES,
        num_classes=BIG_CLASSES,
        seed=seed,
    )
    return train_test_split(
        full, test_fraction=BIG_TEST_SAMPLES / len(full), seed=seed
    )


def big_model_workload(seed: int, **overrides) -> WorkloadConfig:
    train, test = big_model_datasets(seed)
    fields = dict(
        name="bench-big-mlp",
        model_factory=lambda: mlp(
            BIG_FEATURES, BIG_CLASSES, hidden_units=BIG_HIDDEN, seed=seed
        ),
        train_dataset=train,
        test_dataset=test,
        optimizer_factory=make_optimizer("adam"),
        num_workers=BIG_WORKERS,
        batch_size=BIG_BATCH,
        topology="star",
        network="fl",
        execution="batched",
        dtype="float32",
        seed=seed,
    )
    fields.update(overrides)
    return WorkloadConfig(**fields)


class Workload:
    """One workload: ``setup`` → timed ``run`` → ``finish``."""

    name = ""
    why = ""
    #: Operations per ``--seconds`` second on the reference box.
    rate = 1.0
    #: Name of the operation, for the README and printed output.
    operation = "rounds"
    #: Traced span whose successive ends delimit one operation.
    operation_span = "strategies.run_round"

    def __init__(self, seed: int, operations: int, scratch: Path) -> None:
        self.seed = int(seed)
        self.operations = int(operations)
        self.scratch = scratch
        #: Whether the run is long enough for the quality checks to apply.
        self.full_length = self.operations >= int(self.rate * REFERENCE_SECONDS)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def finish(self) -> Outcome:
        raise NotImplementedError

    def traced_extras(self, wall_s: float) -> Dict[str, float]:
        """Counters that cost an extra pass; computed in traced runs only."""
        del wall_s
        return {}


class TrainingWorkload(Workload):
    """A ``TrainingRun.execute`` of one strategy on the big model."""

    accuracy_floor = 0.0

    def workload_config(self) -> WorkloadConfig:
        return big_model_workload(self.seed)

    def strategy(self):
        raise NotImplementedError

    def training_run(self) -> TrainingRun:
        return TrainingRun(
            accuracy_target=1.0,
            max_steps=self.operations,
            eval_every_steps=EVAL_EVERY_STEPS,
        )

    def setup(self) -> None:
        self.config = self.workload_config()
        self.cluster, self.test = setup_layer.build_cluster(self.config)
        self.plan = self.training_run()
        self.protocol = self.strategy()
        self.result = None

    def run(self) -> None:
        self.result = self.plan.execute(
            self.protocol,
            self.cluster,
            self.test,
            train_dataset=self.config.train_dataset,
            workload_name=self.name,
        )

    def finish(self) -> Outcome:
        cluster = self.cluster
        completed = cluster.parallel_steps
        accuracy = self.result.final_accuracy if self.result is not None else 0.0
        losses = (
            [entry["train_loss"] for entry in self.result.history.entries]
            if self.result is not None
            else [math.nan]
        )
        checks = ledger_checks(cluster)
        checks["losses_finite"] = all(math.isfinite(loss) for loss in losses)
        if self.accuracy_floor and self.full_length:
            checks["accuracy_floor"] = accuracy >= self.accuracy_floor
        return Outcome(
            attempted=self.operations,
            failed=self.operations - min(completed, self.operations),
            simulated=cluster_simulated(cluster, accuracy),
            counters=fabric_counters(cluster),
            checks=checks,
        )


class FDAWorkload(TrainingWorkload):
    variant = "linear"

    def strategy(self):
        return FDAStrategy(
            FDA_THETA,
            self.variant,
            sketch_depth=SKETCH_DEPTH,
            sketch_width=SKETCH_WIDTH,
            seed=self.seed,
        )

    def finish(self) -> Outcome:
        outcome = super().finish()
        syncs = outcome.simulated["sync_count"]
        if self.full_length:
            outcome.checks["syncs_triggered"] = 0 < syncs < self.operations
        outcome.counters["core.fda.sync_rate"] = self.protocol.trainer.synchronization_rate
        return outcome


class TrainDense(FDAWorkload):
    name = "train_dense"
    why = (
        "LinearFDA lockstep rounds with rare exact syncs: sampling, batched "
        "GEMMs, stacked Adam and the engine dominate; compression, population, "
        "serving and faults are bypassed."
    )
    rate = 20.0
    variant = "linear"
    accuracy_floor = 0.40


class TrainSketch(FDAWorkload):
    name = "train_sketch"
    why = (
        "Same step as train_dense but SketchFDA: the monitor's AMS sketch of "
        "the (K, d) drift matrix dominates, so a sketch gain shows here and "
        "must not move train_dense."
    )
    rate = 4.2
    variant = "sketch"
    accuracy_floor = 0.05


class SyncTopk(TrainingWorkload):
    name = "sync_topk"
    why = (
        "Local-SGD tau=1 with top-k + error feedback on a hierarchical fabric: "
        "a compressed collective every step, so the compression kernel and "
        "fabric charging dominate; the variance monitor is bypassed."
    )
    rate = 22.0
    accuracy_floor = 0.30

    def workload_config(self) -> WorkloadConfig:
        return big_model_workload(
            self.seed,
            optimizer_factory=make_optimizer("sgd"),
            topology="hierarchical",
            compression=TOPK,
        )

    def strategy(self):
        return LocalSGDStrategy(tau=1)

    def finish(self) -> Outcome:
        outcome = super().finish()
        compression = self.cluster.compression
        dimension = self.cluster.model_dimension
        outcome.checks["sync_every_step"] = (
            outcome.simulated["sync_count"] == self.cluster.parallel_steps
        )
        outcome.counters["compression.kept_ratio"] = TOPK.ratio
        outcome.counters["compression.bytes_saved_ratio"] = (
            1.0 - compression.transmitted_elements / dimension
        )
        return outcome


class PopulationFaults(TrainingWorkload):
    name = "population_faults"
    why = (
        "100 000 logical clients on 16 slots with crashes, lossy links and "
        "checkpoints: client-state spill and cohort bind/unbind dominate, "
        "compute is the minority; compression and serving are bypassed."
    )
    # 60 rounds at ``run_seconds``: each round spills about 22 MB of pickles, and
    # past some 1.5 GB of dirty pages the kernel's write-back throttles the
    # store (60 rounds took 3.5 s, 132 rounds 10-19 s), which would make this
    # a disk benchmark.
    rate = 5.0
    operation_span = "population.plane.run_round"

    def workload_config(self) -> WorkloadConfig:
        return big_model_workload(
            self.seed,
            topology="hierarchical",
            faults=FaultPlan(
                crash_rate=CRASH_RATE,
                loss_rate=LOSS_RATE,
                recovery_rounds=RECOVERY_ROUNDS,
                seed=self.seed,
            ),
        ).with_population(POPULATION)

    def strategy(self):
        return FDAStrategy(POPULATION_THETA, "linear", seed=self.seed)

    def training_run(self) -> TrainingRun:
        self.checkpoint_path = self.scratch / "checkpoint.json"
        return TrainingRun(
            accuracy_target=1.0,
            max_steps=self.operations,
            eval_every_steps=EVAL_EVERY_STEPS,
            checkpoint_every=min(CHECKPOINT_EVERY, max(self.operations // 2, 1)),
            checkpoint_path=self.checkpoint_path,
        )

    def finish(self) -> Outcome:
        outcome = super().finish()
        population = self.cluster.population
        store = population.store
        log = self.cluster.faults.log
        # A round in which every slot is down advances no step, so rounds can
        # exceed steps; the round count is what was attempted.
        outcome.attempted = max(self.operations, population.rounds_completed)
        outcome.checks["syncs_triggered"] = outcome.simulated["sync_count"] > 0
        outcome.checks["resident_within_budget"] = (
            population.peak_resident_clients <= POPULATION.effective_memory_budget
        )
        outcome.checks["checkpoint_written"] = self.checkpoint_path.exists()
        spill_files = list(Path(tempfile.gettempdir()).rglob("client-*.pkl"))
        outcome.counters.update(
            {
                "core.fda.sync_rate": self.protocol.trainer.synchronization_rate,
                "faults.crashes": float(len(log.crashes)),
                "faults.retransmitted_bytes": float(log.retransmitted_bytes),
                "faults.checkpoint.file_bytes": float(
                    self.checkpoint_path.stat().st_size
                    if self.checkpoint_path.exists()
                    else 0
                ),
                "population.store.evictions": float(store.evictions),
                "population.store.spill_loads": float(store.spill_loads),
                "population.store.spill_bytes": float(
                    sum(path.stat().st_size for path in spill_files)
                ),
                "population.store.peak_resident": float(store.peak_resident),
            }
        )
        return outcome


class ServeOpen(Workload):
    name = "serve_open"
    why = (
        "Open-loop Poisson arrivals at utilisation 0.64 on a small model: the "
        "engine's single-row step_worker path takes three quarters of the "
        "time, the serving event loop (heap, queue, ledger) the rest."
    )
    rate = 3000.0
    operation = "updates"
    operation_span = "serving.metrics.record"
    accuracy_floor = 0.75

    def setup(self) -> None:
        seed = self.seed
        full = synthetic_features(
            SERVE_TRAIN_SAMPLES + SERVE_TEST_SAMPLES,
            feature_dim=SERVE_FEATURES,
            num_classes=SERVE_CLASSES,
            seed=seed,
        )
        train, self.test = train_test_split(
            full, test_fraction=SERVE_TEST_SAMPLES / len(full), seed=seed
        )
        self.serving = ServingConfig(
            arrival="poisson",
            arrival_rate=2.0,
            queue_capacity=64,
            queue_policy="drop",
            staleness_rule="staleness-weighted",
            service_seconds=0.02,
            protocol="fda",
            arrival_seed=seed,
        )
        config = WorkloadConfig(
            name="bench-serve-mlp",
            model_factory=lambda: mlp(
                SERVE_FEATURES, SERVE_CLASSES, hidden_units=SERVE_HIDDEN, seed=seed
            ),
            train_dataset=train,
            test_dataset=self.test,
            optimizer_factory=make_optimizer("adam", learning_rate=SERVE_LEARNING_RATE),
            num_workers=SERVE_WORKERS,
            batch_size=BIG_BATCH,
            topology="star",
            network="fl",
            execution="batched",
            dtype="float32",
            serving=self.serving,
            seed=seed,
        )
        self.cluster, _ = setup_layer.build_cluster(config)
        monitor = make_monitor("linear", self.cluster.model_dimension, seed=seed)
        self.trainer = ServedFDATrainer(
            self.cluster, monitor, SERVE_THETA, self.serving, seed=seed
        )
        self.served = 0

    def run(self) -> None:
        self.served = self.trainer.serve_updates(self.operations)

    def finish(self) -> Outcome:
        trainer, queue = self.trainer, self.trainer.queue
        report = trainer.report()
        _, accuracy = self.cluster.evaluate_global(self.test)
        simulated = cluster_simulated(self.cluster, accuracy)
        simulated["sync_count"] = float(trainer.sync_count)
        latency = report.latency
        simulated["latency_p99_virtual_s"] = float(latency.get("p99", 0.0))
        checks = ledger_checks(self.cluster)
        checks["queue_conservation"] = queue.conservation_holds()
        if self.full_length:
            checks["syncs_triggered"] = trainer.sync_count > 0
            checks["accuracy_floor"] = accuracy >= self.accuracy_floor
        checks["latency_samples"] = trainer.latency.count == self.served
        p99 = latency.get("p99", 0.0)
        counters = fabric_counters(self.cluster)
        counters.update(
            {
                "serving.queue.max_depth": float(queue.max_depth),
                "serving.queue.accept_ratio": queue.enqueued / max(queue.offered, 1),
                "serving.stale_rejected": float(trainer.stale_rejected),
                "serving.latency_p50_virtual_s": float(latency.get("p50", 0.0)),
                "serving.latency_p95_virtual_s": float(latency.get("p95", 0.0)),
                "serving.p2_p99_rel_error": (
                    abs(latency.get("p99_est", 0.0) - p99) / p99 if p99 else 0.0
                ),
            }
        )
        return Outcome(
            attempted=max(queue.offered, self.operations),
            failed=queue.lost + (self.operations - self.served),
            simulated=simulated,
            counters=counters,
            checks=checks,
        )


class SweepGrid(Workload):
    name = "sweep_grid"
    why = (
        "Hundreds of one-step Theta cells over shared inputs, cold then warm: "
        "per-cell cluster binding, run keys, result-store append/replay and "
        "evaluation dominate; training is the minority."
    )
    rate = 25.0
    operation = "cells"
    operation_span = "experiments.cache.append"

    def setup(self) -> None:
        seed = self.seed
        full = synthetic_features(
            SWEEP_TRAIN_SAMPLES + SWEEP_TEST_SAMPLES,
            feature_dim=SWEEP_FEATURES,
            num_classes=SWEEP_CLASSES,
            seed=seed,
        )
        train, test = train_test_split(
            full, test_fraction=SWEEP_TEST_SAMPLES / len(full), seed=seed
        )
        base = WorkloadConfig(
            name="bench-sweep-head",
            model_factory=lambda: transfer_head(
                SWEEP_FEATURES, SWEEP_CLASSES, hidden_units=SWEEP_HIDDEN, seed=seed
            ),
            train_dataset=train,
            test_dataset=test,
            optimizer_factory=make_optimizer("adam"),
            num_workers=SWEEP_WORKERS,
            batch_size=BIG_BATCH,
            topology="star",
            network="fl",
            execution="batched",
            dtype="float32",
            seed=seed,
        )
        run = TrainingRun(accuracy_target=1.0, max_steps=1, eval_every_steps=1)
        thetas = np.geomspace(
            *SWEEP_THETA_RANGE, num=max(self.operations // SWEEP_WORKLOAD_SEEDS, 1)
        )
        self.cells = [
            SweepCell(
                workload=base.with_seed(seed + offset),
                strategy_factory=self._strategy_factory(float(theta)),
                run=run,
                label=f"seed={seed + offset},theta={float(theta):.6g}",
                tags={"parameter": "theta", "value": float(theta)},
            )
            for offset in range(SWEEP_WORKLOAD_SEEDS)
            for theta in thetas
        ]
        self.store_dir = self.scratch / "sweep-store"
        self.executor = SweepExecutor(cache_dir=self.store_dir, jobs=1)
        self.cold: List = []

    def _strategy_factory(self, theta: float) -> Callable[[], FDAStrategy]:
        return lambda: FDAStrategy(theta, "linear", seed=self.seed)

    def run(self) -> None:
        self.cold = self.executor.execute(self.cells)

    def finish(self) -> Outcome:
        cold = [result_to_dict(result) for result in self.cold]
        warm_seconds, warm_equal, hit_rates = [], True, []
        for _ in range(SWEEP_WARM_REPLAYS if cold else 0):
            executor = SweepExecutor(cache_dir=self.store_dir, jobs=1)
            start = time.perf_counter()
            warm = executor.execute(self.cells)
            warm_seconds.append(time.perf_counter() - start)
            hit_rates.append(executor.stats.hit_rate)
            warm_equal = warm_equal and [result_to_dict(r) for r in warm] == cold
        losses = [
            entry["train_loss"] for result in self.cold for entry in result.history.entries
        ]
        simulated = {
            "comm_bytes": float(sum(r.communication_bytes for r in self.cold)),
            "virtual_s": float(sum(r.virtual_seconds for r in self.cold)),
            "final_accuracy": float(
                np.mean([r.final_accuracy for r in self.cold]) if self.cold else 0.0
            ),
            "sync_count": float(sum(r.synchronizations for r in self.cold)),
        }
        runs_file = self.executor.store.runs_path
        return Outcome(
            attempted=len(self.cells),
            failed=len(self.cells) - len(self.cold),
            simulated=simulated,
            counters={
                "core.fda.state_bytes": float(sum(r.state_bytes for r in self.cold)),
                "distributed.topology.model_bytes": float(
                    sum(r.model_bytes for r in self.cold)
                ),
                "experiments.executor.hit_rate": min(hit_rates, default=0.0),
                "experiments.cache.store_bytes": float(
                    runs_file.stat().st_size if runs_file.exists() else 0
                ),
            },
            checks={
                "cold_executed_every_cell": self.executor.stats.executed == len(self.cells),
                "warm_hit_rate_is_one": bool(hit_rates) and min(hit_rates) == 1.0,
                "warm_equals_cold": bool(cold) and warm_equal,
                "losses_finite": bool(losses) and all(math.isfinite(x) for x in losses),
            },
            host={"warm_wall_s": statistics.median(warm_seconds) if warm_seconds else 0.0},
        )

    def traced_extras(self, wall_s: float) -> Dict[str, float]:
        """One more cold pass over a fresh store, on two processes."""
        executor = SweepExecutor(
            cache_dir=self.scratch / "sweep-parallel", jobs=min(2, os.cpu_count() or 1)
        )
        start = time.perf_counter()
        executor.execute(self.cells)
        return {
            "experiments.executor.parallel_speedup": wall_s
            / (time.perf_counter() - start)
        }


WORKLOADS = {
    cls.name: cls
    for cls in (TrainDense, TrainSketch, SyncTopk, PopulationFaults, ServeOpen, SweepGrid)
}


def operations_for(name: str, seconds: float, smoke: bool) -> int:
    """How many operations ``--seconds`` buys on workload ``name``."""
    operations = max(int(round(WORKLOADS[name].rate * seconds)), 2)
    return min(operations, SMOKE_OPERATIONS) if smoke else operations
