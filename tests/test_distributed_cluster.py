"""Tests for workers and the simulated cluster (collectives, sync, evaluation)."""

import numpy as np
import pytest

from helpers.per_worker import SIDES, on_side
from repro.core.variance import model_variance
from repro.data.partition import partition_dataset
from repro.data.synthetic import gaussian_blobs
from repro.distributed.cluster import CATEGORY_MODEL, SimulatedCluster
from repro.distributed.worker import Worker
from repro.exceptions import CommunicationError, ConfigurationError
from repro.nn.architectures import mlp
from repro.optim.adam import Adam
from repro.optim.sgd import SGD


def make_cluster(num_workers=3, seed=0, topology=None, side="batched"):
    data = gaussian_blobs(240, feature_dim=8, num_classes=3, seed=seed)
    shards = partition_dataset(data, num_workers, "iid", seed=seed)
    workers = [
        Worker(
            worker_id=i,
            model=mlp(8, 3, hidden_units=(12,), seed=seed),
            dataset=shard,
            optimizer=Adam(0.01),
            batch_size=16,
            seed=seed + i,
        )
        for i, shard in enumerate(shards)
    ]
    return on_side(side, SimulatedCluster(workers, topology=topology))


class TestWorker:
    def test_a_step_advances_the_worker_and_returns_its_loss(self):
        cluster = make_cluster(1)
        worker = cluster.workers[0]
        loss = cluster.engine.step_worker(0)
        assert np.isfinite(loss) and loss == worker.last_loss
        assert worker.steps_performed == 1

    def test_a_step_changes_parameters(self):
        cluster = make_cluster(1)
        worker = cluster.workers[0]
        before = worker.get_parameters()
        cluster.engine.step_worker(0)
        assert not np.array_equal(before, worker.get_parameters())

    def test_local_epoch_runs_all_batches(self):
        cluster = make_cluster(2)
        worker = cluster.workers[0]
        cluster.engine.epoch_worker(0)
        assert worker.steps_performed == worker.batches_per_epoch

    def test_drift_from_reference(self):
        cluster = make_cluster(1)
        worker = cluster.workers[0]
        reference = worker.get_parameters()
        cluster.step_all()
        drift = worker.drift_from(reference)
        np.testing.assert_allclose(drift, worker.get_parameters() - reference)

    def test_invalid_configuration(self):
        data = gaussian_blobs(30, feature_dim=8, num_classes=3, seed=0)
        with pytest.raises(ConfigurationError):
            Worker(-1, mlp(8, 3, seed=0), data, SGD(0.1))
        with pytest.raises(ConfigurationError):
            Worker(0, mlp(8, 3, seed=0), data, SGD(0.1), batch_size=0)


class TestClusterBasics:
    def test_properties(self):
        cluster = make_cluster(3)
        assert cluster.num_workers == 3
        assert cluster.model_dimension == cluster.workers[0].num_parameters
        assert cluster.parallel_steps == 0

    def test_requires_workers(self):
        with pytest.raises(ConfigurationError):
            SimulatedCluster([])

    def test_requires_matching_dimensions(self):
        data = gaussian_blobs(60, feature_dim=8, num_classes=3, seed=0)
        workers = [
            Worker(0, mlp(8, 3, hidden_units=(4,), seed=0), data, Adam()),
            Worker(1, mlp(8, 3, hidden_units=(8,), seed=0), data, Adam()),
        ]
        with pytest.raises(CommunicationError):
            SimulatedCluster(workers)

    def test_step_all_advances_every_worker(self):
        cluster = make_cluster(3)
        cluster.step_all()
        assert all(worker.steps_performed == 1 for worker in cluster.workers)
        assert cluster.parallel_steps == 1

    @pytest.mark.parametrize("side", SIDES)
    def test_a_dropped_cluster_is_freed_without_the_cycle_collector(self, side):
        # The engine's back-reference is weak: a sweep's per-cell clusters die
        # when their last reference does, not at the next full collection.
        import gc
        import weakref

        cluster = make_cluster(3, side=side)
        cluster.step_all()
        alive = weakref.ref(cluster)
        gc.disable()
        try:
            del cluster
            assert alive() is None
        finally:
            gc.enable()


class TestCollectives:
    def test_broadcast_sets_all_parameters(self):
        cluster = make_cluster(3)
        flat = np.zeros(cluster.model_dimension)
        cluster.broadcast_parameters(flat)
        for worker in cluster.workers:
            np.testing.assert_array_equal(worker.get_parameters(), flat)

    def test_broadcast_free_by_default(self):
        cluster = make_cluster(3)
        cluster.broadcast_parameters(np.zeros(cluster.model_dimension))
        assert cluster.total_bytes == 0

    def test_ring_topology_changes_charges(self):
        star = make_cluster(4)
        ring = make_cluster(4, topology="ring")
        star.synchronize()
        ring.synchronize()
        # Same synchronization, different links: 2(K-1)/K = 1.5x the star.
        assert 2 * ring.total_bytes == 3 * star.total_bytes
        assert ring.fabric.topology.name == "ring"


class TestSynchronizeAndEvaluate:
    def test_synchronize_equalizes_parameters(self):
        cluster = make_cluster(3)
        for _ in range(3):
            cluster.step_all()
        assert model_variance(cluster.parameter_matrix) > 0
        average = cluster.synchronize()
        assert model_variance(cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)
        for worker in cluster.workers:
            np.testing.assert_allclose(worker.get_parameters(), average)

    def test_synchronize_charges_model_category(self):
        cluster = make_cluster(3)
        cluster.synchronize()
        expected = cluster.model_dimension * 8 * 3
        assert cluster.tracker.bytes_for(CATEGORY_MODEL) == expected
        assert cluster.synchronization_count == 1

    def test_average_parameters_is_free(self):
        cluster = make_cluster(2)
        cluster.average_parameters()
        assert cluster.total_bytes == 0

    def test_evaluate_global_does_not_touch_workers(self):
        cluster = make_cluster(2)
        data = gaussian_blobs(60, feature_dim=8, num_classes=3, seed=1)
        before = [worker.get_parameters() for worker in cluster.workers]
        loss, accuracy = cluster.evaluate_global(data)
        assert 0.0 <= accuracy <= 1.0 and np.isfinite(loss)
        for worker, params in zip(cluster.workers, before):
            np.testing.assert_array_equal(worker.get_parameters(), params)

    def test_model_variance_matches_definition(self):
        cluster = make_cluster(3)
        for _ in range(2):
            cluster.step_all()
        parameters = np.stack([w.get_parameters() for w in cluster.workers])
        mean = parameters.mean(axis=0)
        expected = float(np.mean(np.sum((parameters - mean) ** 2, axis=1)))
        assert model_variance(cluster.parameter_matrix) == pytest.approx(expected)
