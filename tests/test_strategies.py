"""Tests for the training strategies (Synchronous, Local-SGD, FedOpt, FDA, compression)."""

import numpy as np
import pytest

from repro.compression import QuantizationCompressor, TopKCompressor
from repro.core.variance import model_variance
from repro.distributed.cluster import CATEGORY_MODEL, CATEGORY_STATE
from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments.setup import build_cluster
from repro.optim.server import FedAdam, FedAvgM
from repro.strategies.base import Strategy
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import FedOptStrategy, fedadam_strategy, fedavgm_strategy
from repro.strategies.local_sgd import LocalSGDStrategy
from repro.strategies.synchronous import SynchronousStrategy


@pytest.fixture()
def cluster_and_test(blobs_workload):
    return build_cluster(blobs_workload)


class TestStrategyBase:
    def test_unattached_strategy_raises(self):
        with pytest.raises(ExperimentError):
            SynchronousStrategy().cluster

    def test_attach_broadcasts_initial_model(self, cluster_and_test):
        cluster, _ = cluster_and_test
        # Perturb one worker so the initial models differ.
        cluster.workers[1].model.set_parameters(cluster.workers[1].get_parameters() + 1.0)
        SynchronousStrategy().attach(cluster)
        reference = cluster.workers[0].get_parameters()
        for worker in cluster.workers:
            np.testing.assert_array_equal(worker.get_parameters(), reference)

    def test_run_steps_advances_at_least_requested(self, cluster_and_test):
        cluster, _ = cluster_and_test
        strategy = LocalSGDStrategy(tau=4).attach(cluster)
        strategy.run_steps(10)
        assert cluster.parallel_steps >= 10

    def test_run_steps_rejects_negative(self, cluster_and_test):
        cluster, _ = cluster_and_test
        strategy = SynchronousStrategy().attach(cluster)
        with pytest.raises(ConfigurationError):
            strategy.run_steps(-1)


class TestSynchronous:
    def test_syncs_every_step(self, cluster_and_test):
        cluster, _ = cluster_and_test
        strategy = SynchronousStrategy().attach(cluster)
        for _ in range(3):
            result = strategy.run_round()
            assert result.synchronized
            assert result.steps_advanced == 1
        assert cluster.synchronization_count == 3

    def test_variance_zero_after_each_round(self, cluster_and_test):
        cluster, _ = cluster_and_test
        strategy = SynchronousStrategy().attach(cluster)
        strategy.run_round()
        assert model_variance(cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)


class TestLocalSGD:
    def test_fixed_tau_round_length(self, cluster_and_test):
        cluster, _ = cluster_and_test
        strategy = LocalSGDStrategy(tau=5).attach(cluster)
        result = strategy.run_round()
        assert result.steps_advanced == 5
        assert cluster.synchronization_count == 1

    @pytest.mark.parametrize("tau", [0, -1, 2.5, True, lambda round_index: 4])
    def test_invalid_tau(self, tau):
        with pytest.raises(ConfigurationError):
            LocalSGDStrategy(tau=tau)

    def test_cheaper_than_synchronous_per_step(self, blobs_workload):
        sync_cluster, _ = build_cluster(blobs_workload)
        local_cluster, _ = build_cluster(blobs_workload)
        SynchronousStrategy().attach(sync_cluster).run_steps(20)
        LocalSGDStrategy(tau=10).attach(local_cluster).run_steps(20)
        assert local_cluster.total_bytes < sync_cluster.total_bytes


class TestFedOpt:
    def test_round_is_one_local_epoch(self, cluster_and_test):
        cluster, _ = cluster_and_test
        strategy = FedOptStrategy(FedAvgM(1.0, momentum=0.0), local_epochs=1).attach(cluster)
        expected = max(worker.batches_per_epoch for worker in cluster.workers)
        result = strategy.run_round()
        assert result.steps_advanced == expected
        assert result.synchronized

    def test_round_charges_one_model_allreduce(self, cluster_and_test):
        cluster, _ = cluster_and_test
        strategy = FedOptStrategy(FedAvgM(), local_epochs=1).attach(cluster)
        strategy.run_round()
        expected = cluster.model_dimension * 8 * cluster.num_workers
        assert cluster.tracker.bytes_for(CATEGORY_MODEL) == expected

    def test_all_workers_share_model_after_round(self, cluster_and_test):
        cluster, _ = cluster_and_test
        FedOptStrategy(FedAdam(0.01)).attach(cluster).run_round()
        assert model_variance(cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)

    def test_named_after_server_optimizer(self):
        assert fedadam_strategy().name == "FedAdam"
        assert fedavgm_strategy().name == "FedAvgM"

    def test_invalid_local_epochs(self):
        with pytest.raises(ConfigurationError):
            FedOptStrategy(FedAvgM(1.0, momentum=0.0), local_epochs=0)


class TestFDAStrategy:
    def test_linear_variant_name(self):
        assert FDAStrategy(threshold=1.0, variant="linear").name == "LinearFDA"
        assert FDAStrategy(threshold=1.0, variant="sketch").name == "SketchFDA"
        assert FDAStrategy(threshold=1.0, variant="exact").name == "ExactFDA"

    def test_unknown_variant_rejected_at_construction(self):
        # Not at attach, deep inside a sweep.
        with pytest.raises(ConfigurationError, match="linaer"):
            FDAStrategy(threshold=1.0, variant="linaer")

    def test_trainer_unavailable_before_attach(self):
        with pytest.raises(ConfigurationError):
            FDAStrategy(threshold=1.0).trainer

    def test_rounds_charge_state_traffic(self, cluster_and_test, blobs_workload):
        cluster, _ = cluster_and_test
        strategy = FDAStrategy(threshold=1e9, variant="linear").attach(cluster)
        for _ in range(5):
            strategy.run_round()
        # Every round's rows stay inside Θ: five quiet rounds, no state sent.
        assert cluster.tracker.operations_for(CATEGORY_STATE) == 0
        assert strategy.synchronization_count == 0
        # Rows outside Θ = 0: every round exchanges its states (and syncs).
        cluster, _ = build_cluster(blobs_workload)
        strategy = FDAStrategy(threshold=0.0, variant="linear").attach(cluster)
        for _ in range(5):
            strategy.run_round()
        assert cluster.tracker.operations_for(CATEGORY_STATE) == 5
        assert cluster.tracker.bytes_for(CATEGORY_STATE) == 5 * 2 * 8 * cluster.num_workers

    def test_zero_threshold_behaves_like_synchronous(self, cluster_and_test):
        cluster, _ = cluster_and_test
        strategy = FDAStrategy(threshold=0.0, variant="exact").attach(cluster)
        for _ in range(4):
            assert strategy.run_round().synchronized

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            FDAStrategy(threshold=-1.0)


class TestCompression:
    def test_quantization_reduces_transmitted_elements(self):
        compressor = QuantizationCompressor(bits=8)
        assert compressor.transmitted_elements(1000) < 1000

    def test_quantization_reconstruction_close(self):
        compressor = QuantizationCompressor(bits=8)
        vector = np.random.default_rng(0).normal(size=500)
        payload = compressor.compress_rows(vector[None])
        error = np.abs(payload.reconstruct()[0] - vector).max()
        assert error < np.abs(vector).max() / 100.0

    def test_quantization_zero_vector(self):
        compressor = QuantizationCompressor(bits=4)
        payload = compressor.compress_rows(np.zeros((1, 10)))
        np.testing.assert_array_equal(payload.reconstruct(), 0.0)

    def test_topk_keeps_largest_entries(self):
        compressor = TopKCompressor(fraction=0.2)
        vector = np.array([0.1, -5.0, 0.2, 4.0, 0.05, 0.0, 0.3, -0.2, 0.15, 0.12])
        payload = compressor.compress_rows(vector[None])
        nonzero = np.flatnonzero(payload.reconstruct()[0])
        assert set(nonzero) == {1, 3}

    def test_topk_transmitted_elements(self):
        assert TopKCompressor(0.1).transmitted_elements(1000) == 200

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            QuantizationCompressor(bits=0)
        with pytest.raises(ConfigurationError):
            TopKCompressor(fraction=0.0)
