"""The engine against the per-worker oracle, per strategy — on the harness.

The scenario grid itself (clusters, drivers, assertions) lives in
``tests/helpers/parity.py`` and the oracle in ``tests/helpers/per_worker.py``;
this file parametrizes over them and additionally pins down the engine's
guard surface.  The whole grid — partial participation, ``Dropout`` models,
heterogeneous optimizer hyper-parameters, per-worker driving — runs
vectorized on the engine, and the full strategy × timeline × model cross
product runs in tier-1.

SGD scenarios are held to *value-exact* parity (``rtol=0, atol=0``); Adam
scenarios use the documented ``rtol=1e-6`` (numpy's vectorized pow is kept
off the bias-correction path, so in practice Adam comes out bit-identical
too, but only SGD's exactness is contractual).  Ledgers — bytes per
category, sync decisions, step counts — are always exact.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from helpers.parity import (
    MODELS,
    RTOL,
    TIMELINES,
    assert_cluster_states_match,
    assert_ledgers_equal,
    engine_tolerances,
    make_cluster,
    make_cluster_pair,
    mlp_factory,
    run_fda_parity,
    run_strategy_parity,
)
from helpers.per_worker import SIDES, on_side, solo_step
from helpers.serving import serve_next
from repro.core.monitor import make_monitor
from repro.core.timeline import StragglerProfile, Timeline
from repro.data.datasets import Dataset
from repro.data.loaders import BatchSampler, StackedSampler
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.engine import BatchedEngine
from repro.distributed.worker import Worker
from repro.exceptions import ConfigurationError
from repro.experiments.registry import densenet_cifar_workload
from repro.experiments.setup import build_cluster
from repro.nn.architectures import densenet_mini, lenet5, mlp, transfer_head, vgg_mini
from repro.nn.layers import Activation, Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.optim.adam import Adam
from repro.optim.base import Optimizer, StackedOptimizer
from repro.optim.sgd import SGD
from repro.serving import ServedFDATrainer, ServingConfig
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.local_sgd import LocalSGDStrategy
from repro.strategies.synchronous import SynchronousStrategy


class TestFdaParity:
    @pytest.mark.parametrize("timeline", sorted(TIMELINES))
    @pytest.mark.parametrize("threshold", [0.05, 0.5, 5.0])
    @pytest.mark.parametrize("variant", ["linear", "sketch"])
    def test_fda_trajectory_and_ledger_match(self, variant, threshold, timeline):
        run_fda_parity(
            variant=variant,
            threshold=threshold,
            steps=40,
            dropout_rate=TIMELINES[timeline],
        )

    def test_acceptance_fda_k8_loss_trajectory_and_ledger(self):
        """The ISSUE-3 acceptance cell: K=8 FDA, rtol=1e-6 losses, exact bytes."""
        run_fda_parity(variant="linear", threshold=0.5, steps=60, num_workers=8)

    def test_masked_fda_is_value_exact_for_sgd(self):
        """The ISSUE-4 acceptance cell: dropout timeline, SGD, exact parity."""
        run_fda_parity(
            variant="linear",
            threshold=0.5,
            steps=50,
            dropout_rate=0.3,
            optimizer_factory=lambda worker_id: SGD(0.05, momentum=0.9, nesterov=True),
            exact=True,
        )


class TestStrategyParity:
    STRATEGIES = {
        "bsp": SynchronousStrategy,
        "local-sgd": lambda: LocalSGDStrategy(tau=4),
        "fda-strategy": lambda: FDAStrategy(threshold=0.5, variant="linear"),
    }

    @pytest.mark.parametrize("timeline", sorted(TIMELINES))
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_round_trajectories_match(self, strategy, timeline):
        run_strategy_parity(
            self.STRATEGIES[strategy],
            rounds=12,
            dropout_rate=TIMELINES[timeline],
        )

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("timeline", sorted(TIMELINES))
    def test_composite_model_matches_masked_and_in_both_dtypes(self, timeline, dtype):
        factory, shape, classes = MODELS["densenet-mini"]
        run_fda_parity(
            threshold=0.05,
            steps=12,
            dtype=dtype,
            dropout_rate=TIMELINES[timeline],
            model_factory=factory,
            sample_shape=shape,
            num_classes=classes,
            num_workers=4,
            optimizer_factory=lambda worker_id: SGD(0.05, momentum=0.9, nesterov=True),
        )

    @pytest.mark.parametrize("model", ["lenet-conv", "batchnorm-net", "densenet-mini"])
    def test_conv_and_batchnorm_models_match(self, model):
        factory, shape, classes = MODELS[model]
        outcomes = {}
        for side in SIDES:
            cluster = make_cluster(
                side,
                model_factory=factory,
                sample_shape=shape,
                num_classes=classes,
                num_workers=4,
                optimizer_factory=lambda worker_id: SGD(0.05, momentum=0.9, nesterov=True),
            )
            losses = [cluster.step_all() for _ in range(10)]
            cluster.synchronize()
            outcomes[side] = (cluster, losses)
        seq_cluster, seq_losses = outcomes["per-worker"]
        bat_cluster, bat_losses = outcomes["batched"]
        np.testing.assert_allclose(seq_losses, bat_losses, rtol=RTOL)
        assert_cluster_states_match(seq_cluster, bat_cluster)
        assert_ledgers_equal(seq_cluster, bat_cluster)

    def test_dropout_model_runs_batched_and_matches_exactly(self):
        """Dropout layers run batched: the kernel replays each worker's
        private mask stream bit-for-bit."""
        factory, shape, classes = MODELS["dropout-head"]
        run_strategy_parity(
            self.STRATEGIES["bsp"],
            rounds=10,
            model_factory=factory,
            sample_shape=shape,
            num_classes=classes,
            optimizer_factory=lambda worker_id: SGD(0.05),
            exact=True,
        )

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("timeline", sorted(TIMELINES))
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_full_scenario_grid(self, strategy, timeline, model):
        """The exhaustive strategy × timeline × model cross product."""
        factory, shape, classes = MODELS[model]
        run_strategy_parity(
            self.STRATEGIES[strategy],
            rounds=8,
            model_factory=factory,
            sample_shape=shape,
            num_classes=classes,
            num_workers=4,
            dropout_rate=TIMELINES[timeline],
        )


class TestDenseNetWorkloads:
    """Composite layers run batched: the paper's DenseNet121/201 stand-ins."""

    @pytest.mark.parametrize("variant", ["small", "large"])
    def test_densenet_workload_matches_the_per_worker_loop(self, variant):
        workload = densenet_cifar_workload(variant)
        clusters = {}
        for side in SIDES:
            cluster = on_side(side, build_cluster(workload)[0])
            strategy = FDAStrategy(threshold=0.5, variant="linear").attach(cluster)
            clusters[side] = (cluster, [strategy.run_round() for _ in range(12)])
        (seq_cluster, seq_rounds), (bat_cluster, bat_rounds) = (
            clusters[side] for side in SIDES
        )
        assert isinstance(bat_cluster.engine, BatchedEngine)
        tol = engine_tolerances(steps=12)
        np.testing.assert_allclose(
            [r.mean_loss for r in seq_rounds], [r.mean_loss for r in bat_rounds], **tol
        )
        assert [r.synchronized for r in seq_rounds] == [r.synchronized for r in bat_rounds]
        assert_cluster_states_match(seq_cluster, bat_cluster, **tol)
        assert_ledgers_equal(seq_cluster, bat_cluster)


class TestHeterogeneousWorkers:
    def test_heterogeneous_sgd_hyperparameters_match_exactly(self):
        """Per-worker lr/momentum/weight-decay become (K, 1) columns; the
        masked stacked update must equal each worker's own update bit-for-bit."""
        run_fda_parity(
            threshold=0.5,
            steps=40,
            dropout_rate=0.3,
            optimizer_factory=lambda worker_id: SGD(
                0.01 * (worker_id + 1),
                momentum=0.1 * worker_id if worker_id else 0.0,
                weight_decay=1e-4 * worker_id,
            ),
            exact=True,
        )

    def test_heterogeneous_adam_matches(self):
        run_fda_parity(
            threshold=0.5,
            steps=40,
            dropout_rate=0.3,
            optimizer_factory=lambda worker_id: Adam(
                0.001 * (worker_id + 1), beta1=0.85 + 0.02 * worker_id
            ),
        )

    def test_masked_subset_uniform_but_unlike_worker_zero_is_exact(self):
        """Momentum-free SGD where a masked subset's weight decays are
        internally uniform yet differ from worker 0's: the cache-blocked fast
        path (which reads worker 0's decay) must not be taken for it."""
        from helpers.parity import run_masked_step_parity

        masks = [
            np.array([False, True, True, True]),  # uniform wd=0.1 subset, w0 absent
            np.array([True, False, False, False]),  # worker 0 alone (wd=0)
            np.array([True, True, True, True]),
        ] * 3
        run_masked_step_parity(
            masks,
            exact=True,
            num_workers=4,
            optimizer_factory=lambda worker_id: SGD(
                0.05, weight_decay=0.0 if worker_id == 0 else 0.1
            ),
        )

    def test_heterogeneous_learning_rates_are_per_row_columns(self):
        run_fda_parity(
            threshold=0.5,
            steps=30,
            dropout_rate=0.4,
            optimizer_factory=lambda worker_id: SGD(0.05 / (1 + worker_id)),
            exact=True,
        )


class TestPerWorkerDriving:
    def test_step_worker_matches_the_per_worker_loop_exactly(self):
        seq_cluster, bat_cluster = make_cluster_pair(
            num_workers=4, optimizer_factory=lambda worker_id: SGD(0.05, momentum=0.9)
        )
        order = [0, 2, 1, 3, 3, 0, 1, 2, 2, 1, 0, 3] * 3
        for worker_id in order:
            loss_seq = seq_cluster.engine.step_worker(worker_id)
            loss_bat = bat_cluster.engine.step_worker(worker_id)
            np.testing.assert_allclose(loss_bat, loss_seq, rtol=0.0, atol=0.0)
        assert_cluster_states_match(seq_cluster, bat_cluster, exact=True)

    def test_drive_modes_compose(self):
        """Per-worker, epoch, and lockstep driving share one optimizer state
        (the stacked rows ARE the workers' own state), so mixing drive modes
        is legal and stays in lockstep parity with the per-worker loop."""
        seq_cluster, bat_cluster = make_cluster_pair(
            num_workers=3, optimizer_factory=lambda worker_id: SGD(0.05, momentum=0.9)
        )
        for cluster in (seq_cluster, bat_cluster):
            cluster.engine.step_worker(1)
            cluster.step_all()
            cluster.engine.epoch_worker(0)
            cluster.step_all(active=np.array([True, False, True]))
            cluster.engine.step_worker(2)
            cluster.step_all()
        assert_cluster_states_match(seq_cluster, bat_cluster, exact=True)
        assert_ledgers_equal(seq_cluster, bat_cluster)

    def test_epoch_all_matches(self):
        """FedOpt-style local epochs run as single-row batched slices."""
        seq_cluster, bat_cluster = make_cluster_pair(
            num_workers=3, optimizer_factory=lambda worker_id: SGD(0.05)
        )
        for _ in range(2):
            loss_seq = seq_cluster.epoch_all()
            loss_bat = bat_cluster.epoch_all()
            np.testing.assert_allclose(loss_bat, loss_seq, rtol=0.0, atol=0.0)
        assert_cluster_states_match(seq_cluster, bat_cluster, exact=True)
        assert [w.last_loss for w in seq_cluster.workers] == [
            w.last_loss for w in bat_cluster.workers
        ]


@pytest.mark.serving
class TestAsyncParity:
    def test_async_runs_are_engine_independent(self):
        """Event-driven completions run single-row slices of the batched
        kernels with identical per-worker arithmetic, so asynchronous
        trajectories must *exactly* equal the per-worker loop's."""
        outcomes = {}
        for side in SIDES:
            cluster = make_cluster(side)
            trainer = ServedFDATrainer(
                cluster,
                make_monitor("linear", cluster.model_dimension, seed=3),
                0.5,
                ServingConfig(arrival="closed"),
                profile=StragglerProfile(straggler_fraction=0.25, straggler_factor=3.0),
                seed=5,
            )
            events = [serve_next(trainer) for _ in range(80)]
            outcomes[side] = (cluster, trainer, events)
        seq_cluster, seq_trainer, seq_events = outcomes["per-worker"]
        bat_cluster, bat_trainer, bat_events = outcomes["batched"]
        assert [(e.worker_id, e.step_index, e.synchronized) for e in seq_events] == [
            (e.worker_id, e.step_index, e.synchronized) for e in bat_events
        ]
        np.testing.assert_allclose(
            seq_cluster.parameter_matrix,
            bat_cluster.parameter_matrix,
            rtol=0.0,
            atol=0.0,
        )
        assert seq_trainer.synchronization_count == bat_trainer.synchronization_count
        assert_ledgers_equal(seq_cluster, bat_cluster)


class TestStackedSampler:
    def test_reproduces_per_worker_rng_streams(self):
        rng = np.random.default_rng(0)
        datasets = [
            Dataset(rng.normal(size=(30, 5)), rng.integers(0, 3, size=30), 3)
            for _ in range(4)
        ]
        stacked = StackedSampler([BatchSampler(ds, 6, seed=seed) for seed, ds in enumerate(datasets)])
        solo = [BatchSampler(ds, 6, seed=seed) for seed, ds in enumerate(datasets)]
        for _ in range(5):
            x, y = stacked.sample()
            assert x.shape == (4, 6, 5) and y.shape == (4, 6)
            for worker, sampler in enumerate(solo):
                expected_x, expected_y = sampler.sample()
                np.testing.assert_array_equal(x[worker], expected_x)
                np.testing.assert_array_equal(y[worker], expected_y)

    def test_masked_rows_draw_only_active_streams(self):
        rng = np.random.default_rng(0)
        datasets = [
            Dataset(rng.normal(size=(30, 5)), rng.integers(0, 3, size=30), 3)
            for _ in range(4)
        ]
        stacked = StackedSampler([BatchSampler(ds, 6, seed=seed) for seed, ds in enumerate(datasets)])
        solo = [BatchSampler(ds, 6, seed=seed) for seed, ds in enumerate(datasets)]
        rows = np.array([1, 3])
        x, y = stacked.sample(rows=rows)
        assert x.shape == (2, 6, 5) and y.shape == (2, 6)
        for position, worker in enumerate(rows):
            expected_x, expected_y = solo[worker].sample()
            np.testing.assert_array_equal(x[position], expected_x)
            np.testing.assert_array_equal(y[position], expected_y)
        # Workers 0 and 2 consumed nothing: their next stacked draw equals
        # their solo samplers' *first* draw.
        x, y = stacked.sample(rows=np.array([0, 2]))
        for position, worker in enumerate((0, 2)):
            expected_x, _ = solo[worker].sample()
            np.testing.assert_array_equal(x[position], expected_x)

    def test_rejects_mismatched_workers(self):
        from repro.exceptions import DataError

        rng = np.random.default_rng(0)
        a = Dataset(rng.normal(size=(10, 5)), rng.integers(0, 2, size=10), 2)
        b = Dataset(rng.normal(size=(10, 4)), rng.integers(0, 2, size=10), 2)
        with pytest.raises(DataError):
            StackedSampler([BatchSampler(a, 4, seed=0), BatchSampler(b, 4, seed=1)])
        with pytest.raises(DataError):
            StackedSampler([BatchSampler(a, 4, seed=0), BatchSampler(a, 5, seed=1)])
        with pytest.raises(DataError):
            StackedSampler([])


class TestEngineSelection:
    def test_cluster_exposes_engine_and_gradient_matrix(self):
        batched = make_cluster("batched", num_workers=2)
        assert isinstance(batched.engine, BatchedEngine)
        assert batched.gradient_matrix.shape == (2, batched.model_dimension)
        # The gradient matrix aliases the workers' gradient planes.
        batched.step_all()
        np.testing.assert_array_equal(
            batched.gradient_matrix[1], batched.workers[1].model.gradients_view()
        )

    def test_masked_steps_leave_inactive_rows_untouched(self):
        cluster = make_cluster("batched", num_workers=4)
        cluster.step_all()
        before_params = cluster.parameter_matrix.copy()
        before_grads = cluster.gradient_matrix.copy()
        cluster.step_all(active=np.array([True, False, True, False]))
        for inactive in (1, 3):
            np.testing.assert_array_equal(
                cluster.parameter_matrix[inactive], before_params[inactive]
            )
            np.testing.assert_array_equal(
                cluster.gradient_matrix[inactive], before_grads[inactive]
            )
        for active in (0, 2):
            assert not np.array_equal(
                cluster.parameter_matrix[active], before_params[active]
            )

    def test_empty_mask_is_a_no_op(self):
        cluster = make_cluster("batched", num_workers=3)
        before = cluster.parameter_matrix.copy()
        assert cluster.step_all(active=np.zeros(3, dtype=bool)) == 0.0
        np.testing.assert_array_equal(cluster.parameter_matrix, before)
        assert all(w.steps_performed == 0 for w in cluster.workers)

    def test_dropout_timeline_accepted(self):
        """The lockstep-only guard is gone: dropout timelines run batched."""
        cluster = make_cluster(
            "batched", num_workers=4, timeline=Timeline(4, dropout_rate=0.5, seed=0)
        )
        for _ in range(5):
            cluster.step_all(active=cluster.timeline.sample_participation())
        assert sum(w.steps_performed for w in cluster.workers) > 0


class TestEngineGuards:
    """Every remaining ``ConfigurationError`` branch in ``distributed/engine.py``,
    pinned by message."""

    def test_pre_stepped_optimizers_rejected(self):
        # A pre-stepped optimizer's (d,) moments would be silently discarded
        # by the row binding while its step count kept counting.
        rng = np.random.default_rng(0)
        workers = []
        for worker_id in range(2):
            x = rng.normal(size=(20, 6))
            y = rng.integers(0, 3, size=20)
            workers.append(
                Worker(worker_id, mlp_factory(), Dataset(x, y, 3), Adam(0.01), batch_size=4)
            )
        for worker in workers:
            solo_step(worker.optimizer, np.zeros(4), np.ones(4))
        with pytest.raises(ConfigurationError, match="fresh optimizers"):
            SimulatedCluster(workers)

    def test_unsupported_layers_rejected_with_clear_message(self):
        # Every layer of repro.nn.layers has a kernel; a Layer subclass from
        # outside does not (lookup is by exact type) and is refused by name.
        class Doubling(Activation):
            def forward(self, x, training=False):
                return 2.0 * super().forward(x, training)

            def backward(self, grad_output):
                return super().backward(2.0 * grad_output)

        def factory():
            model = Sequential([Doubling("linear", name="twice"), Dense(3, name="logits")])
            return model.build((6,), seed=0)

        with pytest.raises(ConfigurationError, match=r"no kernel for these layers: twice \(Doubling\)"):
            make_cluster("batched", model_factory=factory, num_workers=2)

    def test_structurally_different_models_rejected(self):
        # Same parameter count, different activation: the batched kernels are
        # built from worker 0's layers, so this must be rejected, not
        # silently trained with the wrong activation.
        rng = np.random.default_rng(0)
        workers = []
        for worker_id, activation in enumerate(("relu", "tanh")):
            x = rng.normal(size=(20, 6))
            y = rng.integers(0, 3, size=20)
            model = mlp(6, 3, hidden_units=(10, 8), activation=activation, seed=11)
            workers.append(
                Worker(worker_id, model, Dataset(x, y, 3), Adam(0.01), batch_size=4)
            )
        with pytest.raises(ConfigurationError, match="model architecture differs"):
            SimulatedCluster(workers)

    def _workers_with(self, build):
        rng = np.random.default_rng(0)
        workers = []
        for worker_id in range(2):
            x = rng.normal(size=(20, 6))
            y = rng.integers(0, 3, size=20)
            workers.append(build(worker_id, Dataset(x, y, 3)))
        return workers

    def test_mixed_optimizer_types_rejected(self):
        workers = self._workers_with(
            lambda worker_id, data: Worker(
                worker_id,
                mlp_factory(),
                data,
                Adam(0.01) if worker_id == 0 else SGD(0.01),
                batch_size=4,
            )
        )
        with pytest.raises(ConfigurationError, match="optimizer type"):
            SimulatedCluster(workers)

    def test_mismatched_loss_rejected(self):
        workers = self._workers_with(
            lambda worker_id, data: Worker(
                worker_id,
                mlp_factory(),
                data,
                Adam(0.01),
                batch_size=4,
                loss=SoftmaxCrossEntropy(label_smoothing=0.1) if worker_id else None,
            )
        )
        with pytest.raises(ConfigurationError, match="loss configuration differs"):
            SimulatedCluster(workers)

    def test_mismatched_batch_size_rejected(self):
        workers = self._workers_with(
            lambda worker_id, data: Worker(
                worker_id, mlp_factory(), data, Adam(0.01), batch_size=4 + worker_id
            )
        )
        with pytest.raises(ConfigurationError, match="batch_size"):
            SimulatedCluster(workers)

    def test_heterogeneous_hyperparameters_accepted(self):
        """The old identically-configured-optimizers guard is gone: scalar
        hyper-parameter differences ride per-row columns."""
        workers = self._workers_with(
            lambda worker_id, data: Worker(
                worker_id, mlp_factory(), data, Adam(0.01 * (worker_id + 1)), batch_size=4
            )
        )
        cluster = SimulatedCluster(workers)
        assert cluster.step_all() > 0.0


class TestStackedOptimizerGuards:
    """The structural guards that live in ``optim/base.py`` (raised during
    batched-engine construction)."""

    def test_mixed_nesterov_rejected(self):
        with pytest.raises(ConfigurationError, match="nesterov"):
            StackedOptimizer(
                [SGD(0.01, momentum=0.9, nesterov=True), SGD(0.01, momentum=0.9)], 4
            )

    def test_optimizer_without_stacked_rule_rejected(self):
        # The row rule is the only spelling of an optimizer's arithmetic, so
        # a subclass that defines none is refused by name by the stack.
        class Esoteric(Optimizer):
            _columns = ("sharpness",)
            sharpness = 2.0

        with pytest.raises(ConfigurationError, match="Esoteric defines no update rule"):
            StackedOptimizer([Esoteric(), Esoteric()], 4)

    def test_mixed_types_rejected(self):
        with pytest.raises(ConfigurationError, match="one optimizer type"):
            StackedOptimizer([SGD(0.01), Adam(0.01)], 4)

    def test_pre_stepped_rejected(self):
        stepped = SGD(0.01)
        solo_step(stepped, np.zeros(4), np.zeros(4))
        with pytest.raises(ConfigurationError, match="already stepped"):
            StackedOptimizer([stepped, SGD(0.01)], 4)


class TestWorkloadExecutionField:
    def test_build_cluster_runs_dropout_on_the_engine(self, blobs_workload):
        workload = replace(blobs_workload, dropout_rate=0.25)
        cluster, _ = build_cluster(workload)
        assert isinstance(cluster.engine, BatchedEngine)
        assert cluster.timeline.dropout_rate == 0.25

    @pytest.mark.parametrize("execution", ["sequential", "turbo"])
    def test_only_the_one_engine_is_accepted(self, blobs_workload, execution):
        assert replace(blobs_workload, execution="batched").execution == "batched"
        with pytest.raises(ConfigurationError, match="per-worker engine is gone"):
            replace(blobs_workload, execution=execution)

    def test_a_record_naming_an_engine_still_loads(self, blobs_workload):
        import json

        from repro.experiments.persistence import result_from_dict, result_to_dict
        from repro.experiments.run import TrainingRun
        from repro.strategies.synchronous import SynchronousStrategy

        cluster, test_dataset = build_cluster(blobs_workload)
        run = TrainingRun(accuracy_target=0.99, max_steps=8, eval_every_steps=4)
        result = run.execute(
            SynchronousStrategy(), cluster, test_dataset, workload_name="blobs"
        )
        payload = json.loads(json.dumps(result_to_dict(result)))
        assert "execution" not in payload
        # Records written while RunResult carried the engine's name still load.
        payload["execution"] = "sequential"
        loaded = result_to_dict(result_from_dict(payload))
        assert json.loads(json.dumps(loaded)) == json.loads(json.dumps(result_to_dict(result)))


# -- frozen before PR 23 touched ``nn/`` ----------------------------------------
#
# Recorded at the parent commit, with the five hand-written parameter-free
# kernels and the 32 layer accessors still in place: the fold kernel, the
# derived accessors and the composite kernels must reproduce every digit.

#: ``model/dtype/timeline`` -> sha256 of ``parameter_matrix`` + ``buffer_matrix``
#: after 10 batched LinearFDA rounds (Θ = 0.05, K = 6, Adam).
FROZEN_FDA_DIGESTS = {
    "batchnorm-net/float32/dropout": "4d1b0340a0635e69bccbf73fc210bfa4241245d518d4320cae61f709eaa2fb2d",
    "batchnorm-net/float32/full": "433977d82029dde050813e6d20cf6cad71dd94a1c96572355d64862c5f133266",
    "batchnorm-net/float64/dropout": "548ec321f568ca9d3a4d0a8986d388b35662a445ffbed3d87cf7b16c1eb252b2",
    "batchnorm-net/float64/full": "b9ee749f059f243de9057a57eeaa2c090bbfe34ddd2f1ab9141020e9d48f9090",
    "dropout-head/float32/dropout": "80c095a24fcf5a1f1128d3f6082c49a04867cacdbbd59974281f6f55334c6aca",
    "dropout-head/float32/full": "dc46a96f3e627da9d46cb29b47c036cb86c3f56d0e61db0c91025e7d67d8b33a",
    "dropout-head/float64/dropout": "9d3730f79ddd39efbf7c7bfc41aea80ff30ee8caf2e08f89d4582177ce713369",
    "dropout-head/float64/full": "6ca8436261f40cade6549a2afb21ccd8816827fa9b55ef7b05e677a971492c15",
    "lenet-conv/float32/dropout": "598edbf5cb7a1498c411413af88810305d10dcee68640e94450dac34de412761",
    "lenet-conv/float32/full": "765527e0c26e97b9aefb14ce032ba818e83777f3b618babf7b88d17419bfff77",
    "lenet-conv/float64/dropout": "8437d78e3a8745c5915dd5bcea416da69afca30175f74cf5e23702947cfabf14",
    "lenet-conv/float64/full": "184c0c4e6935ece1b8409925ce0b0ee390cf1920135a8505f4ec1a53997be662",
    "mlp/float32/dropout": "2d987d21528a09d5847aa0636ff43da8573fb581fd053d10e2bb37b74b135525",
    "mlp/float32/full": "ed333cc090d3e9400b2a7a7ab6a2e5c54ae825d533718611487819e09f5236c0",
    "mlp/float64/dropout": "9e48ed7d3f19ffc7daac5b486a2b58e6d0dbf67ba5e1bf3798ffa5b6074319f9",
    "mlp/float64/full": "b65466fe80a732cff9b87a8e7d0f4f870d387d2ebb8399041bf98a6503491aaa",
}

#: name -> (d, buffers, parameter slots, buffer slots, sha256 of the
#: ``(offset, size, shape)`` lists of the three layouts).
FROZEN_LAYOUTS = {
    "lenet5": (5910, 0, 8, 0, "f264e2e42fdc828197351dbcea50c8355222ec6c9d5e2e54c75c2c932ec95cff"),
    "vgg_mini": (18242, 0, 14, 0, "05b58cde62fca1f9877efde0bd591dcd3f8714883316cc82b525a3143fe82176"),
    "densenet_mini-2-2": (
        4366, 216, 26, 12, "8892a652eea93e56849e957d8cc018d45dfbd6056799637a02c8c69c459797d2",
    ),
    "densenet_mini-3-3": (
        7855, 360, 34, 16, "3f390eeca8435291126a26f8595a1257f212d77b41b41651533778a5b16466f5",
    ),
    "transfer_head": (
        14340, 0, 6, 0, "d1666a8222ef94e63e68631e6a5609053ab670583c01e2773e61c12b27abde63",
    ),
}

LAYOUT_MODELS = {
    "lenet5": lenet5,
    "vgg_mini": vgg_mini,
    "densenet_mini-2-2": lambda: densenet_mini(blocks=(2, 2)),
    "densenet_mini-3-3": lambda: densenet_mini(blocks=(3, 3)),
    "transfer_head": lambda: transfer_head(16),
}


def fda_digest(model: str, dtype: str, timeline: str) -> str:
    factory, shape, classes = MODELS[model]
    cluster = make_cluster(
        "batched",
        model_factory=factory,
        sample_shape=shape,
        num_classes=classes,
        num_workers=6,
        dropout_rate=TIMELINES[timeline],
        dtype=dtype,
    )
    strategy = FDAStrategy(threshold=0.05, variant="linear").attach(cluster)
    for _ in range(10):
        strategy.run_round()
    digest = hashlib.sha256(cluster.parameter_matrix.tobytes())
    digest.update(cluster.buffer_matrix.tobytes())
    return digest.hexdigest()


def layout_record(model) -> tuple:
    plane = model.plane
    layouts = (plane.parameter_layout(), plane.gradient_layout(), plane.buffer_layout())
    text = repr([[(s.offset, s.size, s.shape) for s in layout] for layout in layouts])
    return (
        plane.num_parameters,
        plane.num_buffers,
        len(layouts[0]),
        len(layouts[2]),
        hashlib.sha256(text.encode()).hexdigest(),
    )


class TestFrozenKernels:
    @pytest.mark.parametrize("cell", sorted(FROZEN_FDA_DIGESTS))
    def test_batched_fda_state_is_byte_identical(self, cell):
        assert fda_digest(*cell.split("/")) == FROZEN_FDA_DIGESTS[cell]

    @pytest.mark.parametrize("name", sorted(FROZEN_LAYOUTS))
    def test_plane_layout_is_unchanged(self, name):
        assert layout_record(LAYOUT_MODELS[name]()) == FROZEN_LAYOUTS[name]
