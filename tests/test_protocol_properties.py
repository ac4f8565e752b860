"""Property-based tests of whole-protocol invariants.

These use Hypothesis to drive short end-to-end FDA runs with randomized
thresholds, variants, and worker counts, and check accounting and monotonicity
invariants that must hold for *every* configuration:

* the communication total equals the sum of the per-category traffic;
* state traffic grows linearly with the number of steps;
* cumulative metrics recorded in a run history are non-decreasing;
* the model variance is never negative and is zero right after any sync.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fda import FDATrainer
from repro.core.monitor import make_monitor
from repro.core.variance import model_variance
from repro.data.partition import partition_dataset
from repro.data.synthetic import gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.experiments.run import TrainingRun
from repro.experiments.setup import build_cluster
from repro.nn.architectures import mlp
from repro.optim.sgd import SGD
from repro.strategies.fda_strategy import FDAStrategy


def build_small_cluster(num_workers: int, seed: int) -> SimulatedCluster:
    data = gaussian_blobs(40 * num_workers, feature_dim=6, num_classes=3, seed=seed)
    shards = partition_dataset(data, num_workers, "iid", seed=seed)
    workers = [
        Worker(
            worker_id=i,
            model=mlp(6, 3, hidden_units=(8,), seed=seed),
            dataset=shard,
            batch_size=8,
            seed=seed + i,
        )
        for i, shard in enumerate(shards)
    ]
    return SimulatedCluster(workers, SGD(0.05))


SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAccountingInvariants:
    @SETTINGS
    @given(
        theta=st.floats(min_value=0.0, max_value=5.0),
        variant=st.sampled_from(["linear", "sketch", "exact"]),
        num_workers=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_total_bytes_is_sum_of_categories(self, theta, variant, num_workers, seed):
        cluster = build_small_cluster(num_workers, seed)
        monitor = make_monitor(variant, cluster.model_dimension, sketch_depth=3, sketch_width=16)
        trainer = FDATrainer(cluster, monitor, theta)
        results = trainer.run_steps(6)
        tracker = cluster.tracker
        assert tracker.total_bytes == sum(tracker.bytes_by_category.values())
        # One s-element AllReduce per exchanging step, nothing for a quiet one.
        exchanged = sum(r.exchanged for r in results)
        assert tracker.bytes_for("fda-state") == (
            exchanged * trainer.state_elements_per_step * 8 * num_workers
        )
        assert tracker.bytes_for("model-sync") >= 0

    @SETTINGS
    @given(
        num_steps=st.integers(min_value=1, max_value=10),
        num_workers=st.integers(min_value=2, max_value=4),
    )
    def test_state_traffic_linear_in_steps(self, num_steps, num_workers):
        cluster = build_small_cluster(num_workers, seed=1)
        monitor = make_monitor("linear", cluster.model_dimension)
        trainer = FDATrainer(cluster, monitor, threshold=0.0)
        results = trainer.run_steps(num_steps)
        # At Θ = 0 every drift leaves the ball, so every step exchanges.
        assert all(r.exchanged for r in results)
        expected = num_steps * 2 * 8 * num_workers  # steps * elements * bytes * K
        assert cluster.tracker.bytes_for("fda-state") == expected
        # Inside a ball no drift leaves, every step is quiet and sends nothing.
        quiet = FDATrainer(build_small_cluster(num_workers, seed=1), monitor, threshold=1e9)
        assert not any(r.exchanged for r in quiet.run_steps(num_steps))
        assert quiet.cluster.tracker.bytes_for("fda-state") == 0

    @SETTINGS
    @given(
        theta=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=30),
    )
    def test_variance_never_negative_and_zero_after_sync(self, theta, seed):
        cluster = build_small_cluster(3, seed)
        monitor = make_monitor("exact", cluster.model_dimension)
        trainer = FDATrainer(cluster, monitor, theta)
        for _ in range(8):
            result = trainer.step()
            variance = model_variance(cluster.parameter_matrix)
            assert variance >= 0.0
            if result.synchronized:
                assert variance == pytest.approx(0.0, abs=1e-15)


class TestRunHistoryInvariants:
    @SETTINGS
    @given(theta=st.floats(min_value=0.1, max_value=20.0))
    def test_cumulative_metrics_are_monotone(self, theta):
        from repro.experiments.setup import WorkloadConfig, make_optimizer

        data = gaussian_blobs(240, feature_dim=8, num_classes=3, seed=0)
        test_data = gaussian_blobs(80, feature_dim=8, num_classes=3, seed=0)
        workload = WorkloadConfig(
            name="props",
            model_factory=lambda: mlp(8, 3, hidden_units=(12,), seed=0),
            train_dataset=data,
            test_dataset=test_data,
            optimizer_factory=make_optimizer("adam", learning_rate=0.01),
            num_workers=3,
            batch_size=16,
            seed=0,
        )
        cluster, test_dataset = build_cluster(workload)
        run = TrainingRun(accuracy_target=0.95, max_steps=60, eval_every_steps=15)
        result = run.execute(FDAStrategy(threshold=theta), cluster, test_dataset)

        steps = [entry["steps"] for entry in result.history]
        communication = [entry["communication_bytes"] for entry in result.history]
        synchronizations = [entry["synchronizations"] for entry in result.history]
        assert steps == sorted(steps)
        assert communication == sorted(communication)
        assert synchronizations == sorted(synchronizations)
        assert result.parallel_steps == steps[-1]
        assert result.communication_bytes == communication[-1]
        assert result.state_bytes + result.model_bytes == result.communication_bytes
