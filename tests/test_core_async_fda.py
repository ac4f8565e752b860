"""Tests for the asynchronous FDA variant (Section 3.3 of the paper).

The asynchronous coordinator is the served trainer in its closed loop
(``ServingConfig(arrival="closed")``): every worker reports when its own step
completes and is aggregated on the spot.
"""

import numpy as np
import pytest

from helpers.serving import serve_next
from repro.core.monitor import ExactMonitor, LinearMonitor
from repro.core.timeline import StragglerProfile
from repro.core.variance import model_variance
from repro.data.partition import partition_dataset
from repro.data.synthetic import gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.exceptions import ConfigurationError
from repro.nn.architectures import mlp
from repro.optim.adam import Adam
from repro.serving import ServedFDATrainer, ServingConfig

pytestmark = pytest.mark.serving

CLOSED = ServingConfig(arrival="closed")


def make_cluster(num_workers=4, seed=0):
    data = gaussian_blobs(320, feature_dim=8, num_classes=3, seed=seed)
    shards = partition_dataset(data, num_workers, "iid", seed=seed)
    workers = [
        Worker(
            worker_id=i,
            model=mlp(8, 3, hidden_units=(12,), seed=seed),
            dataset=shard,
            batch_size=16,
            seed=seed + i,
        )
        for i, shard in enumerate(shards)
    ]
    return SimulatedCluster(workers, Adam(0.02))


def make_trainer(threshold=0.5, profile=None, num_workers=4, monitor=None):
    cluster = make_cluster(num_workers)
    return ServedFDATrainer(
        cluster,
        monitor or ExactMonitor(),
        threshold,
        CLOSED,
        profile=profile,
        seed=0,
    )


def steps_by_worker(trainer):
    return np.asarray([worker.steps_performed for worker in trainer.cluster.workers])


class TestStragglerProfile:
    def test_uniform_profile(self):
        durations = StragglerProfile(base_step_seconds=2.0).step_durations(5, seed=0)
        np.testing.assert_allclose(durations, 2.0)

    def test_stragglers_are_slower(self):
        profile = StragglerProfile(straggler_fraction=0.5, straggler_factor=4.0)
        durations = profile.step_durations(6, seed=0)
        assert np.sum(durations == 4.0) == 3
        assert np.sum(durations == 1.0) == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StragglerProfile(base_step_seconds=0)
        with pytest.raises(ConfigurationError):
            StragglerProfile(straggler_fraction=1.5)
        with pytest.raises(ConfigurationError):
            StragglerProfile(straggler_factor=0.5)
        with pytest.raises(ConfigurationError):
            StragglerProfile(jitter=-0.1)


class TestAsynchronousTrainer:
    def test_events_processed_in_time_order(self):
        trainer = make_trainer()
        events = [serve_next(trainer) for _ in range(20)]
        times = [event.time for event in events]
        assert times == sorted(times)
        assert steps_by_worker(trainer).sum() == 20

    def test_negative_threshold_rejected(self):
        cluster = make_cluster(2)
        with pytest.raises(ConfigurationError):
            ServedFDATrainer(cluster, ExactMonitor(), -0.1, CLOSED)

    def test_state_traffic_charged_per_completion(self):
        trainer = make_trainer(threshold=1e9, monitor=LinearMonitor(dimension=147, seed=0))
        trainer.serve_updates(10)
        assert trainer.cluster.tracker.operations_for("fda-state") == 10

    def test_synchronization_triggered_by_low_threshold(self):
        trainer = make_trainer(threshold=0.0)
        trainer.serve_updates(12)
        assert trainer.synchronization_count > 0

    def test_high_threshold_avoids_synchronization(self):
        trainer = make_trainer(threshold=1e9)
        trainer.serve_updates(12)
        assert trainer.synchronization_count == 0

    def test_run_for_advances_virtual_clock(self):
        trainer = make_trainer(profile=StragglerProfile(base_step_seconds=1.0))
        served = trainer.serve_for(5.0)
        assert trainer.virtual_time >= 5.0
        # 4 workers, 1 second per step, 5 seconds -> about 20 completions.
        assert 16 <= served <= 24

    def test_run_for_validates_input(self):
        trainer = make_trainer()
        with pytest.raises(ConfigurationError):
            trainer.serve_for(0.0)

    def test_run_events_validates_input(self):
        trainer = make_trainer()
        with pytest.raises(ConfigurationError):
            trainer.serve_updates(-1)


class TestStragglerBehaviour:
    def test_fast_workers_perform_more_steps(self):
        profile = StragglerProfile(straggler_fraction=0.25, straggler_factor=5.0)
        trainer = make_trainer(threshold=1e9, profile=profile)
        trainer.serve_for(30.0)
        steps = steps_by_worker(trainer)
        assert steps.max() > 2 * steps.min()

    def test_synchronous_lockstep_recovered_without_stragglers(self):
        trainer = make_trainer(threshold=1e9, profile=StragglerProfile())
        trainer.serve_for(10.0)
        steps = steps_by_worker(trainer)
        assert steps.max() - steps.min() <= 1

    def test_straggler_training_still_converges(self):
        profile = StragglerProfile(straggler_fraction=0.25, straggler_factor=3.0)
        trainer = make_trainer(threshold=0.3, profile=profile)
        # Same seed => same class structure as the training shards (held-out samples
        # of the identical generative task).
        test_data = gaussian_blobs(150, feature_dim=8, num_classes=3, seed=0)
        trainer.serve_for(80.0)
        _, accuracy = trainer.cluster.evaluate_global(test_data)
        assert accuracy > 0.8

    def test_variance_stays_bounded_with_exact_monitor(self):
        theta = 0.3
        trainer = make_trainer(threshold=theta)
        for _ in range(40):
            event = serve_next(trainer)
            if event.synchronized:
                assert model_variance(trainer.cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)
        # The asynchronous protocol checks the invariant only when every worker
        # has reported at least once, so allow slack of one step's drift.
        assert model_variance(trainer.cluster.parameter_matrix) < 10 * theta
