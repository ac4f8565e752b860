"""End-to-end integration tests reproducing the paper's headline claims in miniature.

These tests run full training loops (a few hundred milliseconds each) and
check the *shape* of the results reported in Section 4: FDA reaches the same
accuracy target as the baselines with far less communication, remains robust
under Non-IID partitioning, and obeys the Θ trade-off.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.run import TrainingRun
from repro.experiments.setup import build_cluster
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import fedadam_strategy
from repro.strategies.local_sgd import LocalSGDStrategy
from repro.strategies.synchronous import SynchronousStrategy


RUN = TrainingRun(accuracy_target=0.9, max_steps=120, eval_every_steps=15)


def run_strategy(workload, strategy, run=RUN):
    cluster, test_dataset = build_cluster(workload)
    return run.execute(strategy, cluster, test_dataset, workload_name=workload.name)


class TestHeadlineClaim:
    def test_fda_matches_accuracy_with_far_less_communication(self, blobs_workload):
        """The paper's main result: equivalent accuracy, orders less communication."""
        sync = run_strategy(blobs_workload, SynchronousStrategy())
        linear = run_strategy(blobs_workload, FDAStrategy(threshold=2.0, variant="linear"))
        sketch = run_strategy(
            blobs_workload,
            FDAStrategy(threshold=2.0, variant="sketch", sketch_depth=3, sketch_width=16),
        )
        assert sync.reached_target and linear.reached_target and sketch.reached_target
        assert linear.communication_bytes < sync.communication_bytes / 10
        assert sketch.communication_bytes < sync.communication_bytes / 2
        # Computation stays in the same ballpark (the paper: comparable steps).
        assert linear.parallel_steps <= 3 * sync.parallel_steps

    def test_fda_beats_fedopt_in_communication(self, blobs_workload):
        fedadam = run_strategy(blobs_workload, fedadam_strategy(learning_rate=0.05))
        linear = run_strategy(blobs_workload, FDAStrategy(threshold=2.0, variant="linear"))
        assert linear.reached_target
        assert linear.communication_bytes < fedadam.communication_bytes

    def test_fda_beats_local_sgd_at_matched_accuracy(self, blobs_workload):
        local = run_strategy(blobs_workload, LocalSGDStrategy(tau=5))
        linear = run_strategy(blobs_workload, FDAStrategy(threshold=2.0, variant="linear"))
        assert linear.reached_target and local.reached_target
        assert linear.communication_bytes < local.communication_bytes


class TestHeterogeneityRobustness:
    @pytest.mark.parametrize(
        "scheme,kwargs",
        [
            ("noniid-fraction", {"fraction": 0.6}),
            ("noniid-label", {"label": 0, "num_holders": 1}),
            ("dirichlet", {"alpha": 0.5}),
        ],
    )
    def test_fda_still_converges_under_noniid(self, blobs_workload, scheme, kwargs):
        heterogeneous = replace(blobs_workload, partition_scheme=scheme, partition_kwargs=kwargs)
        result = run_strategy(
            heterogeneous,
            FDAStrategy(threshold=1.0, variant="linear"),
            TrainingRun(accuracy_target=0.85, max_steps=400, eval_every_steps=20),
        )
        assert result.reached_target

    def test_noniid_cost_comparable_to_iid(self, blobs_workload):
        iid = run_strategy(blobs_workload, FDAStrategy(threshold=2.0))
        noniid = run_strategy(
            replace(blobs_workload, partition_scheme="noniid-fraction", partition_kwargs={"fraction": 0.6}),
            FDAStrategy(threshold=2.0),
            TrainingRun(accuracy_target=0.9, max_steps=240, eval_every_steps=15),
        )
        assert noniid.reached_target
        # Within an order of magnitude of the IID cost (the paper: negligible gap).
        assert noniid.communication_bytes < 10 * max(iid.communication_bytes, 1)


class TestThetaTradeoff:
    def test_larger_theta_reduces_synchronizations(self, blobs_workload):
        tight = run_strategy(blobs_workload, FDAStrategy(threshold=0.2))
        loose = run_strategy(blobs_workload, FDAStrategy(threshold=20.0))
        assert tight.synchronizations >= loose.synchronizations

    def test_larger_theta_reduces_communication(self, blobs_workload):
        tight = run_strategy(blobs_workload, FDAStrategy(threshold=0.2))
        loose = run_strategy(blobs_workload, FDAStrategy(threshold=20.0))
        assert loose.communication_bytes <= tight.communication_bytes


class TestStateVsModelTraffic:
    def test_fda_traffic_is_dominated_by_states_not_syncs(self, blobs_workload):
        result = run_strategy(blobs_workload, FDAStrategy(threshold=50.0, variant="linear"))
        # With a large Theta no sync happens, so states were all the traffic
        # left — and with every drift inside the ball each step is quiet, so
        # not even the states are sent.
        assert result.synchronizations == 0
        assert result.state_bytes == result.model_bytes == result.communication_bytes == 0
        # At a Theta some drifts leave, the states of those steps are sent:
        # a whole number of K-row AllReduces of [‖u‖², ⟨ξ, u⟩], fewer than
        # one per step, beside the one triggered sync.
        result = run_strategy(blobs_workload, FDAStrategy(threshold=0.5, variant="linear"))
        per_exchange = blobs_workload.num_workers * 2 * 8
        exchanged, rest = divmod(result.state_bytes, per_exchange)
        assert rest == 0 and 0 < exchanged < result.parallel_steps
        assert result.state_bytes + result.model_bytes == result.communication_bytes
        assert result.communication_bytes < 200_000

    def test_synchronous_traffic_is_all_model_traffic(self, blobs_workload):
        result = run_strategy(blobs_workload, SynchronousStrategy())
        assert result.state_bytes == 0
        assert result.model_bytes == result.communication_bytes


class TestReproducibility:
    def test_same_seed_gives_identical_run(self, blobs_workload):
        first = run_strategy(blobs_workload, FDAStrategy(threshold=2.0, seed=0))
        second = run_strategy(blobs_workload, FDAStrategy(threshold=2.0, seed=0))
        assert first.communication_bytes == second.communication_bytes
        assert first.parallel_steps == second.parallel_steps
        assert first.final_accuracy == pytest.approx(second.final_accuracy)
