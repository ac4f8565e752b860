"""Algorithmic equivalence tests.

These check identities that follow from the algorithms' definitions and are
stronger than behavioural trends:

* FDA with Θ = 0 and the exact monitor is *exactly* Synchronous (the paper's
  footnote: Synchronous is the Θ = 0 special case of Algorithm 1);
* Local-SGD with τ = 1 is exactly Synchronous;
* FedOpt with plain FedAvg on the server (FedAvgM at server learning rate 1
  without momentum) and one local epoch equals the direct average of the
  client models after that epoch.
"""

import numpy as np
import pytest

from repro.experiments.setup import build_cluster
from repro.optim.server import FedAvgM
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import FedOptStrategy
from repro.strategies.local_sgd import LocalSGDStrategy
from repro.strategies.synchronous import SynchronousStrategy


def run_rounds(workload, strategy, num_rounds):
    cluster, _ = build_cluster(workload)
    strategy.attach(cluster)
    for _ in range(num_rounds):
        strategy.run_round()
    return cluster


class TestThetaZeroIsSynchronous:
    def test_parameter_trajectories_identical(self, blobs_workload):
        sync_cluster = run_rounds(blobs_workload, SynchronousStrategy(), 8)
        fda_cluster = run_rounds(blobs_workload, FDAStrategy(threshold=0.0, variant="exact"), 8)
        np.testing.assert_allclose(
            sync_cluster.average_parameters(), fda_cluster.average_parameters(), atol=1e-12
        )

    def test_synchronization_counts_match(self, blobs_workload):
        sync_cluster = run_rounds(blobs_workload, SynchronousStrategy(), 6)
        fda_cluster = run_rounds(blobs_workload, FDAStrategy(threshold=0.0, variant="exact"), 6)
        assert fda_cluster.synchronization_count == sync_cluster.synchronization_count

    def test_communication_differs_only_by_state_traffic(self, blobs_workload):
        sync_cluster = run_rounds(blobs_workload, SynchronousStrategy(), 5)
        fda_cluster = run_rounds(blobs_workload, FDAStrategy(threshold=0.0, variant="exact"), 5)
        model_bytes_sync = sync_cluster.tracker.bytes_for("model-sync")
        model_bytes_fda = fda_cluster.tracker.bytes_for("model-sync")
        assert model_bytes_fda == model_bytes_sync
        assert fda_cluster.tracker.bytes_for("fda-state") > 0


class TestLocalSgdTauOneIsSynchronous:
    def test_parameter_trajectories_identical(self, blobs_workload):
        sync_cluster = run_rounds(blobs_workload, SynchronousStrategy(), 8)
        local_cluster = run_rounds(blobs_workload, LocalSGDStrategy(tau=1), 8)
        np.testing.assert_allclose(
            sync_cluster.average_parameters(), local_cluster.average_parameters(), atol=1e-12
        )

    def test_communication_identical(self, blobs_workload):
        sync_cluster = run_rounds(blobs_workload, SynchronousStrategy(), 5)
        local_cluster = run_rounds(blobs_workload, LocalSGDStrategy(tau=1), 5)
        assert sync_cluster.total_bytes == local_cluster.total_bytes


class TestFedAvgEqualsClientAverage:
    def test_one_round_average(self, blobs_workload):
        # Run FedAvg for one round.
        fed_cluster, _ = build_cluster(blobs_workload)
        fed_strategy = FedOptStrategy(FedAvgM(1.0, momentum=0.0), local_epochs=1).attach(fed_cluster)
        fed_strategy.run_round()

        # Replay the same local epochs manually on a fresh, identical cluster.
        manual_cluster, _ = build_cluster(blobs_workload)
        manual_cluster.broadcast_parameters(manual_cluster.workers[0].get_parameters())
        for worker_id in range(manual_cluster.num_workers):
            manual_cluster.engine.epoch_worker(worker_id)
        manual_average = np.mean(
            np.stack([w.get_parameters() for w in manual_cluster.workers]), axis=0
        )
        np.testing.assert_allclose(
            fed_cluster.average_parameters(), manual_average, atol=1e-12
        )

    def test_workers_hold_the_average_after_the_round(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload)
        FedOptStrategy(FedAvgM(1.0, momentum=0.0), local_epochs=1).attach(cluster).run_round()
        average = cluster.average_parameters()
        for worker in cluster.workers:
            np.testing.assert_allclose(worker.get_parameters(), average, atol=1e-12)


class TestSeedIsolation:
    def test_different_strategies_see_identical_initial_models(self, blobs_workload):
        sync_cluster, _ = build_cluster(blobs_workload)
        fda_cluster, _ = build_cluster(blobs_workload)
        np.testing.assert_array_equal(
            sync_cluster.workers[0].get_parameters(), fda_cluster.workers[0].get_parameters()
        )

    def test_different_workers_sample_different_batches(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload)
        cluster.broadcast_parameters(cluster.workers[0].get_parameters())
        cluster.step_all()
        parameters = [worker.get_parameters() for worker in cluster.workers]
        distinct = {tuple(np.round(p[:5], 12)) for p in parameters}
        assert len(distinct) > 1
