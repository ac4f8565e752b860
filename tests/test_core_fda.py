"""Tests for the FDA trainer (Algorithm 1) and the Round Invariant."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.per_worker import SIDES
from repro.backend import map_row_blocks
from repro.core.fda import FDATrainer
from repro.core.monitor import (
    ExactMonitor, LinearMonitor, SketchMonitor, VarianceMonitor, make_monitor,
)
from repro.core.variance import model_variance
from repro.data.partition import partition_dataset
from repro.data.synthetic import gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.exceptions import ConfigurationError
from repro.faults.checkpoint import ClusterCheckpoint
from repro.faults.plan import FaultPlan
from repro.nn.architectures import mlp
from repro.optim.adam import Adam
from repro.sketch import ams


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


def make_trainer(threshold, monitor=None, num_workers=4):
    cluster = make_cluster(num_workers)
    monitor = monitor or ExactMonitor()
    return FDATrainer(cluster, monitor, threshold)


class TestInitialization:
    def test_workers_start_from_common_model(self):
        trainer = make_trainer(1.0)
        reference = trainer.cluster.workers[0].get_parameters()
        for worker in trainer.cluster.workers:
            np.testing.assert_array_equal(worker.get_parameters(), reference)

    def test_negative_threshold_rejected(self):
        cluster = make_cluster(2)
        with pytest.raises(ConfigurationError):
            FDATrainer(cluster, ExactMonitor(), -1.0)


class TestStepBehaviour:
    def test_step_advances_all_workers(self):
        trainer = make_trainer(1e9)
        result = trainer.step()
        assert result.step == 1
        assert trainer.cluster.parallel_steps == 1
        assert np.isfinite(result.mean_loss)

    def test_large_threshold_avoids_synchronization(self):
        trainer = make_trainer(1e9)
        results = trainer.run_steps(10)
        assert all(not r.synchronized for r in results)
        assert trainer.synchronization_count == 0

    def test_zero_threshold_synchronizes_every_step(self):
        # Theta = 0 degenerates to the Synchronous strategy, as the paper notes.
        trainer = make_trainer(0.0)
        results = trainer.run_steps(5)
        assert all(r.synchronized for r in results)
        assert trainer.synchronization_count == 5

    def test_state_traffic_charged_every_step(self):
        # Every step whose rows leave the ball (all of them at Θ = 0) charges
        # one s-element AllReduce of states ...
        trainer = make_trainer(0.0, monitor=LinearMonitor(dimension=147, seed=0))
        assert all(r.exchanged for r in trainer.run_steps(4))
        tracker = trainer.cluster.tracker
        assert tracker.operations_for("fda-state") == 4
        assert tracker.bytes_for("fda-state") == 4 * 2 * 8 * 4  # steps * elems * bytes * K
        # ... and a quiet step, every row inside Θ, charges nothing.
        quiet = make_trainer(1e9, monitor=LinearMonitor(dimension=147, seed=0))
        assert not any(r.exchanged for r in quiet.run_steps(4))
        assert quiet.cluster.tracker.operations_for("fda-state") == 0
        assert quiet.cluster.total_bytes == 0

    def test_sync_resets_variance_and_reference(self):
        trainer = make_trainer(0.0)
        trainer.step()
        assert model_variance(trainer.cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(
            trainer.cluster.shared_parameters, trainer.cluster.workers[0].get_parameters()
        )

    def test_estimate_reported(self):
        trainer = make_trainer(1e9)
        result = trainer.step()
        assert result.variance_estimate == trainer.last_estimate
        assert result.variance_estimate >= 0.0

    def test_run_steps_validates_input(self):
        trainer = make_trainer(1.0)
        with pytest.raises(ConfigurationError):
            trainer.run_steps(-1)


class TestRoundInvariant:
    @pytest.mark.parametrize("theta", [0.05, 0.2, 1.0])
    def test_exact_monitor_maintains_round_invariant(self, theta):
        """With the exact monitor, Var(w_t) <= Theta holds after every step."""
        trainer = make_trainer(theta, monitor=ExactMonitor())
        for _ in range(25):
            trainer.step()
            assert model_variance(trainer.cluster.parameter_matrix) <= theta + 1e-9

    def test_linear_monitor_maintains_round_invariant(self):
        theta = 0.2
        trainer = make_trainer(theta, monitor=LinearMonitor(dimension=147, seed=0))
        for _ in range(25):
            trainer.step()
            assert model_variance(trainer.cluster.parameter_matrix) <= theta + 1e-9

    def test_sketch_monitor_roughly_maintains_round_invariant(self):
        theta = 0.2
        trainer = make_trainer(theta, monitor=SketchMonitor(depth=5, width=64, seed=0))
        violations = 0
        for _ in range(25):
            trainer.step()
            if model_variance(trainer.cluster.parameter_matrix) > theta * 1.1:
                violations += 1
        assert violations <= 2  # the guarantee is probabilistic

    def test_smaller_theta_synchronizes_more(self):
        tight = make_trainer(0.05)
        loose = make_trainer(0.8)
        tight.run_steps(30)
        loose.run_steps(30)
        assert tight.synchronization_count >= loose.synchronization_count
        assert tight.synchronization_rate >= loose.synchronization_rate


class TestRunSteps:
    def test_run_steps_returns_every_step(self):
        trainer = make_trainer(0.5)
        results = trainer.run_steps(7)
        assert len(results) == 7
        assert [result.step for result in results] == list(range(1, 8))
        assert results[-1].parallel_steps == 7

    def test_the_threshold_holds_through_every_sync(self):
        trainer = make_trainer(0.05, LinearMonitor(make_cluster().model_dimension, seed=1))
        results = trainer.run_steps(20)
        assert trainer.synchronization_count > 1
        assert {result.threshold for result in results} == {0.05}
        assert trainer.threshold == 0.05


class TestStateDict:
    PROTOCOL_STATE = {
        "step_count", "synchronization_count", "threshold", "last_estimate",
        "previous_reference", "states", "reported",
    }

    def test_the_snapshot_is_the_protocol_state(self):
        exact = make_trainer(0.05)
        exact.run_steps(3)
        assert set(exact.state_dict()) == self.PROTOCOL_STATE
        linear = make_trainer(0.05, LinearMonitor(make_cluster().model_dimension, seed=1))
        linear.run_steps(3)
        assert set(linear.state_dict()) == self.PROTOCOL_STATE | {"monitor_direction"}

    def test_a_loaded_snapshot_continues_bit_exactly(self):
        dimension = make_cluster().model_dimension
        trainer = make_trainer(0.05, LinearMonitor(dimension, seed=1))
        trainer.run_steps(10)
        checkpoint = ClusterCheckpoint.capture(trainer.cluster)
        snapshot = trainer.state_dict()
        # A fresh trainer built with another Θ takes the snapshot's.
        resumed = make_trainer(9.0, LinearMonitor(dimension, seed=2))
        checkpoint.restore(resumed.cluster)
        resumed.load_state_dict(snapshot)
        assert resumed.threshold == 0.05
        assert resumed.run_steps(10) == trainer.run_steps(10)
        np.testing.assert_array_equal(
            resumed.cluster.parameter_matrix, trainer.cluster.parameter_matrix
        )


class RecordingSketchMonitor(SketchMonitor):
    """SketchMonitor that keeps every table of states it hands the trainer.

    ``rowwise=True`` builds the table one ``local_state`` row at a time —
    what the trainer's masked and churn branches ran before they were routed
    through the batched ``local_states``.
    """

    def __init__(self, rowwise):
        super().__init__(depth=3, width=16, seed=3)
        self.rowwise = rowwise
        self.batches = []

    def local_states(self, drifts, norms=None, reference=None, rows=None):
        # The row-wise path forms the drift matrix and reduces each norm
        # itself; the batched one takes the column the trainer already reduced.
        if self.rowwise:
            if reference is not None:
                drifts = drifts[slice(None) if rows is None else rows] - reference
            rows = [SketchMonitor.local_states(self, drift[None]) for drift in drifts]
            states = np.concatenate(rows) if rows else SketchMonitor.local_states(self, drifts)
        else:
            states = SketchMonitor.local_states(self, drifts, norms, reference, rows)
        self.batches.append(states)
        return states


class TestBatchedStatesUnderMasksAndChurn:
    """Partial participation and worker churn take the batched sketch kernel
    without changing a bit: states, estimates, decisions and ledger equal the
    per-row path's, and the protocol-level integers equal the literals
    recorded from the commit before the routing change."""

    SCENARIOS = {
        "dropout": dict(dropout_rate=0.25, timeline_seed=2026),
        "crash": dict(faults=FaultPlan(crash_rate=0.15, recovery_rounds=3, seed=11)),
    }
    GOLDEN_ACTIVE = {
        "dropout": [6, 8, 6, 6, 8, 6, 8, 6, 7, 6, 6, 7, 6, 7, 4, 7, 7, 7, 5, 5,
                    5, 5, 7, 6, 7, 5, 6, 7, 6, 8],
        "crash": [7, 5, 5, 4, 4, 3, 4, 5, 7, 6, 6, 5, 5, 4, 4, 3, 1, 3, 4, 5,
                  3, 5, 4, 3, 4, 6, 7, 5, 5, 6],
    }
    GOLDEN_SYNC_STEPS = {"dropout": [3, 7, 12, 17, 23, 28], "crash": [4, 10, 13, 19, 23, 29]}
    #: Steps that exchanged states: churn keeps the exchange on every step;
    #: under dropout alone the quiet steps send nothing.
    GOLDEN_EXCHANGED = {
        "dropout": [3, 6, 7, 11, 12, 16, 17, 22, 23, 27, 28], "crash": list(range(1, 31)),
    }
    GOLDEN_TOTAL_BYTES = {"dropout": 105536, "crash": 212480}

    def run(self, scenario, side, rowwise):
        from helpers.parity import make_cluster

        cluster = make_cluster(side, num_workers=8, **self.SCENARIOS[scenario])
        trainer = FDATrainer(cluster, RecordingSketchMonitor(rowwise), 0.05)
        return trainer, trainer.run_steps(30)

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_batched_states_match_the_per_row_path(self, scenario, side):
        batched, batched_results = self.run(scenario, side, rowwise=False)
        rowwise, rowwise_results = self.run(scenario, side, rowwise=True)

        assert batched_results == rowwise_results  # estimates, decisions, bytes, clocks
        exchanged = [r.step for r in batched_results if r.exchanged]
        assert exchanged == self.GOLDEN_EXCHANGED[scenario]
        assert len(batched.monitor.batches) == len(rowwise.monitor.batches) == len(exchanged)
        for got, expected in zip(batched.monitor.batches, rowwise.monitor.batches):
            assert got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(
            batched.cluster.parameter_matrix, rowwise.cluster.parameter_matrix
        )
        ledger = batched.cluster.tracker.bytes_by_category
        assert ledger == rowwise.cluster.tracker.bytes_by_category

        assert [r.active_workers for r in batched_results] == self.GOLDEN_ACTIVE[scenario]
        sync_steps = [r.step for r in batched_results if r.synchronized]
        assert sync_steps == self.GOLDEN_SYNC_STEPS[scenario]
        assert batched.cluster.total_bytes == self.GOLDEN_TOTAL_BYTES[scenario]

    @settings(max_examples=6, deadline=None)
    @given(
        crash_seed=st.integers(min_value=0, max_value=1_000),
        timeline_seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_the_estimate_averages_stepped_and_dead_reported_rows(
        self, crash_seed, timeline_seed
    ):
        """Under churn and dropout the averaged rows are ``stepped ∪ (dead ∧
        reported)``, in worker order, each dead worker's row its last report."""
        from helpers.parity import make_cluster

        cluster = make_cluster(
            "batched", num_workers=8, dropout_rate=0.3, timeline_seed=timeline_seed,
            faults=FaultPlan(crash_rate=0.2, recovery_rounds=3, seed=crash_seed),
        )
        monitor = AveragingSpy(depth=3, width=16, seed=3)
        trainer = FDATrainer(cluster, monitor, 0.05)
        last, scratch = {}, []
        for _ in range(20):
            monitor.averaged.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ams, "map_row_blocks", functools.partial(blocks_kept, scratch))
                trainer.step()
            stepped, dead = cluster.participants.mask, ~cluster.faults.alive
            for worker, row in zip(np.flatnonzero(stepped), monitor.built[-1]):
                last[worker] = row
            expected = [
                last[worker] for worker in range(8)
                if stepped[worker] or (dead[worker] and worker in last)
            ]
            assert len(monitor.averaged) == (1 if expected else 0)
            if expected:
                assert monitor.averaged[0].tobytes() == np.array(expected).tobytes()
        # The drifts were formed in row-block scratch the state rows copy from.
        assert scratch and not any(np.shares_memory(trainer.states, drifts) for drifts in scratch)


def blocks_kept(kept, function, *args, **kwargs):
    """:func:`repro.backend.map_row_blocks`, appending every drift block it yields to ``kept``."""

    def keeping(blocks):
        for low, drifts in blocks:
            kept.append(drifts)
            yield low, drifts

    map_row_blocks(lambda blocks: function(keeping(blocks)), *args, **kwargs)


class AveragingSpy(SketchMonitor):
    """Keeps every table it builds and every table the trainer averages."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built, self.averaged = [], []

    def local_states(self, *args, **kwargs):
        self.built.append(super().local_states(*args, **kwargs))
        return self.built[-1]

    def average(self, states, weights=None):
        self.averaged.append(np.array(states))
        return super().average(states, weights)


@pytest.mark.parametrize("participation", ["lockstep", "dropout", "churn"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("variant", ["linear", "sketch"])
def test_an_fda_step_holds_no_drift_plane(variant, dtype, participation, monkeypatch):
    """Neither building the trainer nor its step's drifts, norms and payloads
    allocate ``K·d/2`` plane elements at once: each drift is formed a row (the
    sketch: a block of rows, one row here as at the benchmark's d) at a time.
    The engine's local updates and the model AllReduce are not measured."""
    from helpers.parity import make_cluster

    cluster = make_cluster(
        "batched", num_workers=12, dtype=dtype,
        model_factory=lambda: mlp(6, 3, hidden_units=(512,), seed=11),
        dropout_rate=0.3 if participation == "dropout" else 0.0,
        faults=FaultPlan(crash_rate=0.2, recovery_rounds=2, seed=4)
        if participation == "churn" else None,
    )
    half_plane = cluster.num_workers * cluster.model_dimension // 2 * cluster.dtype.itemsize
    monkeypatch.setattr(ams, "BLOCK_ELEMENTS", cluster.model_dimension)
    monitor = make_monitor(variant, cluster.model_dimension, sketch_depth=3, sketch_width=16)
    marks = []
    step_all, synchronize = cluster.step_all, cluster.synchronize

    def step_all_then_mark(*args, **kwargs):
        loss = step_all(*args, **kwargs)
        tracemalloc.reset_peak()
        marks.append(tracemalloc.get_traced_memory()[0])
        return loss

    def mark_then_synchronize():
        marks.append(tracemalloc.get_traced_memory()[1])
        return synchronize()

    monkeypatch.setattr(cluster, "step_all", step_all_then_mark)
    monkeypatch.setattr(cluster, "synchronize", mark_then_synchronize)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trainer = FDATrainer(cluster, monitor, 0.0)
        built = tracemalloc.get_traced_memory()[1] - before
        result = trainer.step()
    finally:
        tracemalloc.stop()
    assert result.synchronized and len(marks) == 2
    assert built < half_plane
    assert marks[1] - marks[0] < half_plane
