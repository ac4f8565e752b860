"""Tests for the FedProx and SCAFFOLD drift-control baselines."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.variance import model_variance
from repro.distributed.cluster import CATEGORY_MODEL
from repro.distributed.participation import Participation
from repro.exceptions import ConfigurationError
from repro.experiments.run import TrainingRun
from repro.experiments.setup import build_cluster, make_optimizer
from repro.faults import FaultPlan
from repro.strategies.drift_control import FedProxStrategy, ScaffoldStrategy
from repro.strategies.fedopt import FedOptStrategy, fedavgm_strategy
from repro.optim.server import FedAvgM


RUN = TrainingRun(accuracy_target=0.88, max_steps=160, eval_every_steps=20)


def run_on(workload, strategy, run=RUN):
    cluster, test_dataset = build_cluster(workload)
    return run.execute(strategy, cluster, test_dataset, workload_name=workload.name)


class TestFedProx:
    def test_round_structure(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload)
        strategy = FedProxStrategy(mu=0.1).attach(cluster)
        result = strategy.run_round()
        assert result.synchronized
        assert result.steps_advanced == strategy.local_epochs * max(
            worker.batches_per_epoch for worker in cluster.workers
        )
        assert model_variance(cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)

    def test_communication_matches_fedavg(self, blobs_workload):
        prox_cluster, _ = build_cluster(blobs_workload)
        avg_cluster, _ = build_cluster(blobs_workload)
        FedProxStrategy(mu=0.1).attach(prox_cluster).run_round()
        FedOptStrategy(FedAvgM(1.0, momentum=0.0)).attach(avg_cluster).run_round()
        assert (
            prox_cluster.tracker.bytes_for(CATEGORY_MODEL)
            == avg_cluster.tracker.bytes_for(CATEGORY_MODEL)
        )

    def test_zero_mu_matches_fedavg_updates(self, blobs_workload):
        prox_cluster, _ = build_cluster(blobs_workload)
        avg_cluster, _ = build_cluster(blobs_workload)
        FedProxStrategy(mu=0.0).attach(prox_cluster).run_round()
        FedOptStrategy(FedAvgM(1.0, momentum=0.0)).attach(avg_cluster).run_round()
        np.testing.assert_allclose(
            prox_cluster.average_parameters(), avg_cluster.average_parameters(), atol=1e-9
        )

    def test_converges_on_blobs(self, blobs_workload):
        result = run_on(blobs_workload, FedProxStrategy(mu=0.05))
        assert result.reached_target

    def test_proximal_term_limits_drift(self, blobs_workload):
        # With a huge mu the local models barely move from the global model.
        loose_cluster, _ = build_cluster(blobs_workload)
        tight_cluster, _ = build_cluster(blobs_workload)
        loose = FedProxStrategy(mu=0.0).attach(loose_cluster)
        tight = FedProxStrategy(mu=100.0).attach(tight_cluster)
        loose_start = loose_cluster.average_parameters()
        tight_start = tight_cluster.average_parameters()
        loose.run_round()
        tight.run_round()
        loose_move = np.linalg.norm(loose_cluster.average_parameters() - loose_start)
        tight_move = np.linalg.norm(tight_cluster.average_parameters() - tight_start)
        assert tight_move < loose_move

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FedProxStrategy(mu=-1.0)
        with pytest.raises(ConfigurationError):
            FedProxStrategy(local_epochs=0)


class TestScaffold:
    def test_round_structure(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload)
        strategy = ScaffoldStrategy().attach(cluster)
        result = strategy.run_round()
        assert result.synchronized
        assert model_variance(cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)

    def test_communication_is_twice_fedavg(self, blobs_workload):
        scaffold_cluster, _ = build_cluster(blobs_workload)
        avg_cluster, _ = build_cluster(blobs_workload)
        ScaffoldStrategy().attach(scaffold_cluster).run_round()
        FedOptStrategy(FedAvgM(1.0, momentum=0.0)).attach(avg_cluster).run_round()
        assert (
            scaffold_cluster.tracker.bytes_for(CATEGORY_MODEL)
            == 2 * avg_cluster.tracker.bytes_for(CATEGORY_MODEL)
        )

    def test_control_variates_update(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload)
        strategy = ScaffoldStrategy(local_learning_rate_hint=0.01).attach(cluster)
        strategy.run_round()
        assert strategy._worker_variates.shape == cluster.parameter_matrix.shape
        assert (np.linalg.norm(strategy._worker_variates, axis=1) > 0).all()
        assert np.linalg.norm(strategy._server_variate) > 0

    def test_converges_on_blobs(self, blobs_workload):
        result = run_on(blobs_workload, ScaffoldStrategy(local_learning_rate_hint=0.01))
        assert result.reached_target

    def test_converges_under_heterogeneity(self, blobs_workload):
        heterogeneous = replace(blobs_workload, partition_scheme="dirichlet", partition_kwargs={"alpha": 0.3})
        result = run_on(
            heterogeneous,
            ScaffoldStrategy(local_learning_rate_hint=0.01),
            TrainingRun(accuracy_target=0.85, max_steps=400, eval_every_steps=20),
        )
        assert result.reached_target

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScaffoldStrategy(local_epochs=0)
        with pytest.raises(ConfigurationError):
            ScaffoldStrategy(local_learning_rate_hint=0.0)


# -- participation: churn and weighted cohorts --------------------------------
#
# Both strategies used to loop over ``cluster.workers`` and take
# ``client_models.mean(axis=0)`` themselves, so a crash plan never advanced
# (no churn, dead rows kept training) and cohort weights were ignored.

CHURN = FaultPlan(crash_rate=0.5, recovery_rounds=3, seed=1)
STRATEGIES = [
    pytest.param(lambda: FedProxStrategy(mu=0.1), id="fedprox"),
    pytest.param(lambda: ScaffoldStrategy(local_learning_rate_hint=0.01), id="scaffold"),
]


@pytest.mark.parametrize("make_strategy", STRATEGIES)
class TestRoundParticipation:
    def test_rounds_advance_churn(self, blobs_workload, make_strategy):
        cluster, _ = build_cluster(replace(blobs_workload, faults=CHURN))
        strategy = make_strategy().attach(cluster)
        for _ in range(5):
            strategy.run_round()
        assert cluster.faults.round_index == 5
        log = cluster.faults.log
        assert log.crashes and log.rejoins

    def test_dead_worker_is_byte_untouched(self, blobs_workload, make_strategy):
        # A vanishingly small crash rate keeps churn active without ever
        # drawing a crash, so the hand-killed worker is the only dead one.
        cluster, _ = build_cluster(
            replace(blobs_workload, faults=FaultPlan(crash_rate=1e-12, seed=3))
        )
        strategy = make_strategy().attach(cluster)
        cluster.faults.alive[1] = False
        cluster.faults._recovery_round[1] = 10**6  # far beyond this test
        frozen = cluster.parameter_matrix[1].tobytes()
        steps = cluster.workers[1].steps_performed
        strategy.run_round()
        assert cluster.parameter_matrix[1].tobytes() == frozen
        assert cluster.workers[1].steps_performed == steps
        if isinstance(strategy, ScaffoldStrategy):
            assert not strategy._worker_variates[1].any()
        # The survivors trained and now share one model.
        survivors = cluster.parameter_matrix[[0, 2, 3]]
        np.testing.assert_array_equal(survivors[0], survivors[1])
        np.testing.assert_array_equal(survivors[0], survivors[2])

    def test_cohort_weights_are_honoured(self, blobs_workload, make_strategy):
        cluster, _ = build_cluster(replace(blobs_workload, num_workers=2))
        strategy = make_strategy().attach(cluster)
        cluster.bind_members(Participation(weights=[1.0, 3.0]))
        trained = {}
        broadcast = cluster.broadcast_parameters

        def capture(flat, count_cost=False):
            # The clients' models as they stand when the server aggregates.
            trained["models"] = cluster.parameter_matrix.copy()
            broadcast(flat, count_cost=count_cost)

        cluster.broadcast_parameters = capture
        strategy.run_round()
        models = trained["models"]
        expected = 0.25 * models[0] + 0.75 * models[1]
        np.testing.assert_allclose(cluster.parameter_matrix[0], expected, rtol=1e-12)
        assert not np.allclose(expected, models.mean(axis=0), rtol=1e-6)


# -- frozen before PR 23 folded the three round loops into one -------------------
#
# Recorded at the parent commit (FedProx and SCAFFOLD still on their private
# ``worker.local_epoch(gradient_transform=...)`` loops): 5 rounds on the
# then-default per-worker engine, default timeline; the engine reproduces them.  ``strategy/optimizer`` -> (sha256 of
# the final parameter matrix, total bytes, syncs, per-worker steps, virtual s).

FROZEN_STRATEGIES = {
    "fedavgm": fedavgm_strategy,
    "fedprox": lambda: FedProxStrategy(mu=0.1),
    "scaffold": lambda: ScaffoldStrategy(local_learning_rate_hint=0.01),
}
FROZEN_OPTIMIZERS = {
    "sgd": make_optimizer("sgd", learning_rate=0.05, momentum=0.9),
    "adam": make_optimizer("adam", learning_rate=0.01),
}
FROZEN_ROUNDS = {
    "fedavgm/adam": (
        "09dba1365c688a746abb3547223e07aa32b6439bb2ae028032d597cecc609a0a",
        31200, 5, [30, 30, 30, 30], 30.0,
    ),
    "fedavgm/sgd": (
        "4dd9e5994942e319563a18ab51244f18f3bbea82cf9f2a99a02c3dabecd0532b",
        31200, 5, [30, 30, 30, 30], 30.0,
    ),
    "fedprox/adam": (
        "79b80555675c434c2bfad665d4189ed68029947f02a7d4c08fd01202a163345d",
        31200, 5, [30, 30, 30, 30], 30.0,
    ),
    "fedprox/sgd": (
        "ad712bc0efd7c4b224290f4278565fc1480734819eb328c126412947ab0a884c",
        31200, 5, [30, 30, 30, 30], 30.0,
    ),
    "scaffold/adam": (
        "d813ab150e6e3031748363bb769cda1978117a83454e743b15ca4ca8361a7ec9",
        62400, 5, [30, 30, 30, 30], 30.0,
    ),
    "scaffold/sgd": (
        "9bd8589835ce612cc0463b57899d3509a8056391ee9633068531ec2abcd6a708",
        62400, 5, [30, 30, 30, 30], 30.0,
    ),
}


def server_round_record(workload, strategy: str, optimizer: str) -> tuple:
    cluster, _ = build_cluster(
        replace(workload, optimizer_factory=FROZEN_OPTIMIZERS[optimizer])
    )
    attached = FROZEN_STRATEGIES[strategy]().attach(cluster)
    for _ in range(5):
        attached.run_round()
    return (
        hashlib.sha256(cluster.parameter_matrix.tobytes()).hexdigest(),
        cluster.total_bytes,
        cluster.synchronization_count,
        [worker.steps_performed for worker in cluster.workers],
        cluster.virtual_time,
    )


@pytest.mark.parametrize("cell", sorted(FROZEN_ROUNDS))
def test_server_round_is_byte_identical_to_the_private_loops(blobs_workload, cell):
    assert server_round_record(blobs_workload, *cell.split("/")) == FROZEN_ROUNDS[cell]
