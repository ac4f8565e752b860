"""Failure-injection and edge-case tests.

Covers the error paths a downstream user is most likely to hit: diverging
training, degenerate worker counts, shards smaller than the batch size, and
evaluation of models that were never trained.
"""

import numpy as np
import pytest

from repro.core.fda import FDATrainer
from repro.core.monitor import ExactMonitor
from repro.core.variance import model_variance
from repro.data.partition import partition_dataset
from repro.data.synthetic import gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.exceptions import TrainingError
from repro.experiments.run import TrainingRun
from repro.experiments.setup import build_cluster
from repro.nn.architectures import mlp
from repro.optim.sgd import SGD
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.synchronous import SynchronousStrategy


def make_worker(learning_rate=0.01, num_samples=40, batch_size=16, seed=0):
    data = gaussian_blobs(num_samples, feature_dim=6, num_classes=3, seed=seed)
    return Worker(
        worker_id=0,
        model=mlp(6, 3, hidden_units=(8,), seed=seed),
        dataset=data,
        optimizer=SGD(learning_rate),
        batch_size=batch_size,
        seed=seed,
    )


class TestDivergenceDetection:
    def test_exploding_learning_rate_raises_training_error(self):
        cluster = SimulatedCluster([make_worker(learning_rate=1e9)])
        with pytest.raises(TrainingError):
            for _ in range(50):
                cluster.step_all()

    def test_error_message_names_the_worker(self):
        cluster = SimulatedCluster([make_worker(learning_rate=1e9)])
        with pytest.raises(TrainingError, match="worker 0"):
            for _ in range(50):
                cluster.engine.step_worker(0)


class TestDegenerateConfigurations:
    def test_single_worker_cluster_works(self):
        data = gaussian_blobs(60, feature_dim=6, num_classes=3, seed=0)
        worker = Worker(0, mlp(6, 3, seed=0), data, SGD(0.05), batch_size=8, seed=0)
        cluster = SimulatedCluster([worker])
        # Synchronization of a single worker moves no bytes and is a no-op.
        before = worker.get_parameters()
        cluster.synchronize()
        np.testing.assert_array_equal(worker.get_parameters(), before)
        assert cluster.total_bytes == 0
        assert model_variance(cluster.parameter_matrix) == 0.0

    def test_fda_with_single_worker_never_synchronizes_meaningfully(self):
        data = gaussian_blobs(60, feature_dim=6, num_classes=3, seed=0)
        worker = Worker(0, mlp(6, 3, seed=0), data, SGD(0.05), batch_size=8, seed=0)
        cluster = SimulatedCluster([worker])
        trainer = FDATrainer(cluster, ExactMonitor(), threshold=0.0)
        trainer.run_steps(5)
        # Variance of a single model is identically zero, so even Theta=0 only
        # triggers when the estimate is strictly positive — it never is.
        assert model_variance(cluster.parameter_matrix) == 0.0

    def test_shard_smaller_than_batch_size(self):
        worker = make_worker(num_samples=5, batch_size=16)
        loss = SimulatedCluster([worker]).step_all()
        assert np.isfinite(loss)
        assert worker.batches_per_epoch == 1

    def test_workers_with_very_uneven_shards(self):
        data = gaussian_blobs(101, feature_dim=6, num_classes=3, seed=0)
        shards = partition_dataset(data, 4, "dirichlet", seed=0, alpha=0.05)
        workers = [
            Worker(i, mlp(6, 3, seed=0), shard, SGD(0.05), batch_size=8, seed=i)
            for i, shard in enumerate(shards)
        ]
        cluster = SimulatedCluster(workers)
        cluster.step_all()
        cluster.synchronize()
        assert model_variance(cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)

    def test_untrained_model_evaluates_near_chance(self):
        data = gaussian_blobs(300, feature_dim=6, num_classes=3, seed=0)
        model = mlp(6, 3, seed=0)
        _, accuracy = model.evaluate(data.x, data.y)
        assert 0.1 <= accuracy <= 0.7  # wide band: initialization is arbitrary


class TestRunLoopEdgeCases:
    def test_unreachable_target_terminates(self, blobs_workload):
        cluster, test_dataset = build_cluster(blobs_workload)
        run = TrainingRun(accuracy_target=1.0, max_steps=25, eval_every_steps=10)
        result = run.execute(SynchronousStrategy(), cluster, test_dataset)
        assert not result.reached_target
        assert result.evaluations >= 2

    def test_eval_interval_larger_than_budget(self, blobs_workload):
        cluster, test_dataset = build_cluster(blobs_workload)
        run = TrainingRun(accuracy_target=0.99, max_steps=10, eval_every_steps=100)
        result = run.execute(FDAStrategy(threshold=1.0), cluster, test_dataset)
        assert result.evaluations == 1
        assert result.parallel_steps == 10

    def test_zero_dimension_state_never_occurs(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload)
        strategy = FDAStrategy(threshold=1.0).attach(cluster)
        assert strategy.trainer.state_elements_per_step >= 2
