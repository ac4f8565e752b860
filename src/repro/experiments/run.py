"""The training-run loop: execute a strategy until an accuracy target is hit.

This mirrors the paper's evaluation methodology exactly: a *training run*
executes one DDL algorithm on one workload until the final evaluation point at
which the trained (global) model reaches the target test accuracy, and the
run's cost is reported as (communication bytes, in-parallel learning steps) at
that point.  Runs that never reach the target within the step budget are
marked accordingly and report their best accuracy instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.data.datasets import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.exceptions import ConfigurationError
from repro.strategies.base import Strategy
from repro.utils.runlog import RunLogger


@dataclass
class RunResult:
    """Outcome of one training run (one strategy on one workload)."""

    strategy: str
    workload: str
    reached_target: bool
    accuracy_target: float
    final_accuracy: float
    best_accuracy: float
    communication_bytes: int
    parallel_steps: int
    synchronizations: int
    evaluations: int
    state_bytes: int = 0
    model_bytes: int = 0
    final_train_accuracy: Optional[float] = None
    #: Virtual wall-clock accounting: total and compute seconds from the
    #: shared timeline, communication seconds from the fabric's ledger, plus
    #: the fabric that produced them.
    virtual_seconds: float = 0.0
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    topology: str = "star"
    network: str = "none"
    #: Collective-level payload compression the cluster carried ("none", or a
    #: compact label like "topk(ratio=0.1)+ef") — the byte totals above
    #: already reflect it.
    compression: str = "none"
    #: Compute dtype of the cluster's parameter plane ("float64" or
    #: "float32"); byte totals reflect its itemsize.
    dtype: str = "float64"
    #: Compact label of the fault plan the run was injected with ("none"
    #: without one), and the injector's full audit log (crashes, rejoins,
    #: per-link retransmissions, spikes) as a plain dict — see
    #: :class:`~repro.faults.injector.FaultLog`.
    faults: str = "none"
    fault_log: Optional[dict] = None
    #: Compact label of the population the run trained over ("none" for a
    #: materialized cluster; e.g. "pop(N=100000,C=16,fixed,data-size)").
    population: str = "none"
    history: RunLogger = field(default_factory=RunLogger)

    @property
    def seconds_per_round(self) -> float:
        """Mean virtual seconds per in-parallel learning step (round pacing)."""
        return self.virtual_seconds / max(self.parallel_steps, 1)

    @property
    def generalization_gap(self) -> Optional[float]:
        """Train-minus-test accuracy at the end of the run (Figure 7's metric)."""
        if self.final_train_accuracy is None:
            return None
        return self.final_train_accuracy - self.final_accuracy


class TrainingRun:
    """Runs a strategy until the accuracy target (or the step budget) is reached."""

    def __init__(
        self,
        accuracy_target: float = 0.9,
        max_steps: int = 2000,
        eval_every_steps: int = 20,
        track_train_accuracy: bool = False,
        train_eval_samples: int = 512,
        checkpoint_every: int = 0,
        checkpoint_path=None,
    ) -> None:
        if not 0.0 < accuracy_target <= 1.0:
            raise ConfigurationError(
                f"accuracy_target must lie in (0, 1], got {accuracy_target}"
            )
        if max_steps <= 0:
            raise ConfigurationError(f"max_steps must be positive, got {max_steps}")
        if eval_every_steps <= 0:
            raise ConfigurationError(
                f"eval_every_steps must be positive, got {eval_every_steps}"
            )
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be non-negative, got {checkpoint_every}"
            )
        if checkpoint_every and checkpoint_path is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_path to write snapshots to"
            )
        self.accuracy_target = float(accuracy_target)
        self.max_steps = int(max_steps)
        self.eval_every_steps = int(eval_every_steps)
        self.track_train_accuracy = bool(track_train_accuracy)
        self.train_eval_samples = int(train_eval_samples)
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_path = checkpoint_path

    def spec(self) -> dict:
        """The run budget as a plain dict, fingerprinted into every run key.

        Checkpoint cadence and path are deliberately absent: snapshots are an
        observer of the trajectory (a checkpointed run and an uncheckpointed
        one are bit-identical), so they must not invalidate sweep cache keys.
        """
        return {
            "class": type(self).__name__,
            "accuracy_target": self.accuracy_target,
            "max_steps": self.max_steps,
            "eval_every_steps": self.eval_every_steps,
            "track_train_accuracy": self.track_train_accuracy,
            "train_eval_samples": self.train_eval_samples,
        }

    def execute(
        self,
        strategy: Strategy,
        cluster: SimulatedCluster,
        test_dataset: Dataset,
        train_dataset: Optional[Dataset] = None,
        workload_name: str = "workload",
        resume_from=None,
    ) -> RunResult:
        """Attach ``strategy`` to ``cluster`` and train until target or budget.

        ``resume_from`` (a path or a loaded
        :class:`~repro.faults.checkpoint.ClusterCheckpoint`) restores a
        snapshot taken by a previous ``execute`` of the *same configuration*
        into the freshly attached cluster/strategy and continues mid-run: the
        continued trajectory, history, and ledgers are bit-identical to an
        uninterrupted run.  With ``checkpoint_every > 0`` the run writes a
        snapshot to ``checkpoint_path`` every that-many in-parallel steps.
        """
        strategy.attach(cluster)
        population = getattr(cluster, "population", None)
        if population is not None:
            # Attach after the strategy's initial broadcast so the captured
            # fresh-client model is the shared w₀; from here each round draws
            # a cohort, binds it onto the slots, and runs the strategy round.
            population.attach(cluster, strategy)
        history = RunLogger(name=f"{strategy.name}-{workload_name}")
        best_accuracy = 0.0
        final_accuracy = 0.0
        final_train_accuracy: Optional[float] = None
        reached = False
        evaluations = 0
        mean_loss = 0.0
        #: Target of a partially completed evaluation block being resumed.
        pending_target: Optional[int] = None

        if resume_from is not None:
            from repro.faults.checkpoint import ClusterCheckpoint

            checkpoint = (
                resume_from
                if isinstance(resume_from, ClusterCheckpoint)
                else ClusterCheckpoint.load(resume_from)
            )
            run_state = checkpoint.restore(cluster, strategy)
            if run_state:
                best_accuracy = float(run_state["best_accuracy"])
                final_accuracy = float(run_state["final_accuracy"])
                train_acc = run_state.get("final_train_accuracy")
                final_train_accuracy = None if train_acc is None else float(train_acc)
                reached = bool(run_state["reached"])
                evaluations = int(run_state["evaluations"])
                mean_loss = float(run_state["mean_loss"])
                pending_target = run_state.get("block_target")
                for entry in run_state.get("history", []):
                    history.log(**entry)

        train_eval = None
        if self.track_train_accuracy and train_dataset is not None:
            subset_size = min(self.train_eval_samples, len(train_dataset))
            train_eval = train_dataset.subset(range(subset_size), name="train-eval")

        last_snapshot_steps = cluster.parallel_steps

        def maybe_snapshot(block_target: int) -> None:
            nonlocal last_snapshot_steps
            if not self.checkpoint_every:
                return
            if cluster.parallel_steps - last_snapshot_steps < self.checkpoint_every:
                return
            from repro.faults.checkpoint import ClusterCheckpoint

            run_state = {
                "best_accuracy": best_accuracy,
                "final_accuracy": final_accuracy,
                "final_train_accuracy": final_train_accuracy,
                "reached": reached,
                "evaluations": evaluations,
                "mean_loss": mean_loss,
                "block_target": int(block_target),
                "history": list(history.entries),
            }
            ClusterCheckpoint.capture(cluster, strategy, run_state).save(
                self.checkpoint_path
            )
            last_snapshot_steps = cluster.parallel_steps

        while not reached and cluster.parallel_steps < self.max_steps:
            if pending_target is not None:
                # Resume the interrupted evaluation block where it left off,
                # keeping evaluation points aligned with the original run.
                target_steps = int(pending_target)
                pending_target = None
            else:
                target_steps = min(
                    cluster.parallel_steps + self.eval_every_steps, self.max_steps
                )
                mean_loss = 0.0
            while cluster.parallel_steps < target_steps:
                if population is not None:
                    round_result = population.run_round()
                else:
                    round_result = strategy.run_round()
                mean_loss = round_result.mean_loss
                maybe_snapshot(target_steps)

            _, test_accuracy = cluster.evaluate_global(test_dataset)
            evaluations += 1
            final_accuracy = test_accuracy
            best_accuracy = max(best_accuracy, test_accuracy)
            entry = {
                "steps": cluster.parallel_steps,
                "communication_bytes": cluster.total_bytes,
                "test_accuracy": test_accuracy,
                "train_loss": mean_loss,
                "synchronizations": cluster.synchronization_count,
                "virtual_seconds": cluster.virtual_time,
            }
            if train_eval is not None:
                _, train_accuracy = cluster.evaluate_global(train_eval)
                entry["train_accuracy"] = train_accuracy
                final_train_accuracy = train_accuracy
            history.log(**entry)

            if test_accuracy >= self.accuracy_target:
                reached = True
                break

        strategy.finalize()
        return RunResult(
            strategy=strategy.name,
            workload=workload_name,
            reached_target=reached,
            accuracy_target=self.accuracy_target,
            final_accuracy=final_accuracy,
            best_accuracy=best_accuracy,
            communication_bytes=cluster.total_bytes,
            parallel_steps=cluster.parallel_steps,
            synchronizations=cluster.synchronization_count,
            evaluations=evaluations,
            state_bytes=cluster.tracker.bytes_for("fda-state"),
            model_bytes=cluster.tracker.bytes_for("model-sync"),
            final_train_accuracy=final_train_accuracy,
            virtual_seconds=cluster.virtual_time,
            compute_seconds=cluster.timeline.compute_seconds,
            comm_seconds=cluster.fabric.comm_seconds,
            topology=cluster.fabric.topology.name,
            network=cluster.fabric.network_name,
            compression=cluster.compression_label,
            dtype=cluster.dtype_name,
            faults=(
                cluster.faults.plan.describe() if cluster.faults is not None else "none"
            ),
            fault_log=(
                cluster.faults.log.to_dict() if cluster.faults is not None else None
            ),
            population=(
                population.describe() if population is not None else "none"
            ),
            history=history,
        )
