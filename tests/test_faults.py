"""Tests for the fault-injection plane (``repro.faults``).

Four contracts, each load-bearing for the robustness claims:

1. **Pure observer** — a null :class:`FaultPlan` (and ``faults=None``) leaves
   the training trajectory, byte ledgers, and every RNG stream bit-identical
   to a cluster built without any plan, on the engine and the per-worker
   oracle and both dtypes.
2. **Determinism** — two runs under the same plan (same seed) produce
   bit-identical fault logs and final parameters; this is what the CI
   ``chaos-smoke`` job re-asserts across processes.
3. **Conservation** — loss-only faults are a pure cost multiplier: the
   trajectory is unchanged and every retransmitted byte charged to the run
   total is accounted for in the per-link log entries.
4. **Checkpoint/restore** — an interrupted-and-resumed run is bit-identical
   to an uninterrupted one, including Dropout RNG streams, Adam step counts,
   the fault log, and the evaluation history — and, under collective
   compression, the shared model, the error-feedback residuals and the
   kernel's coordinate stream.  A population run is refused at restore: the
   checkpoint does not hold what the population plane mutates.
"""

import hashlib
import json
import os
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from helpers.parity import assert_same_state, make_cluster
from helpers.per_worker import SIDES, on_side
from repro.compression import CompressionConfig
from repro.distributed.engine import BatchedEngine
from repro.exceptions import (
    ConfigurationError,
    ExperimentError,
    TrainingError,
)
from repro.experiments.cache import canonical_value
from repro.experiments.run import TrainingRun
from repro.experiments.setup import WorkloadConfig, build_cluster, make_optimizer
from repro.faults import ClusterCheckpoint, FaultInjector, FaultPlan
from repro.faults.checkpoint import FORMAT, VERSION
from repro.faults.injector import BACKOFF_BASE_SECONDS, BACKOFF_CAP_SECONDS, MAX_RETRIES
from repro.nn.architectures import transfer_head
from repro.population import PopulationConfig
from repro.strategies.drift_control import FedProxStrategy, ScaffoldStrategy
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import fedadam_strategy, fedavgm_strategy
from repro.strategies.local_sgd import LocalSGDStrategy
from repro.strategies.synchronous import SynchronousStrategy


def _execute(
    workload, strategy_factory, max_steps=40, resume_from=None, side="batched", **run_kwargs
):
    """Build a fresh cluster, run a strategy, return ``(cluster, result)``.

    ``side="per-worker"`` steps the cluster through the per-worker oracle.
    """
    cluster, test_dataset = build_cluster(workload)
    on_side(side, cluster)
    run = TrainingRun(
        accuracy_target=0.995, max_steps=max_steps, eval_every_steps=20, **run_kwargs
    )
    result = run.execute(
        strategy_factory(), cluster, test_dataset,
        workload_name=workload.name, resume_from=resume_from,
    )
    return cluster, result


def _dropout_workload(blobs_workload):
    """The blobs workload on an RNG-stateful model (Dropout streams)."""
    return WorkloadConfig(
        name="blobs-dropout",
        model_factory=lambda: transfer_head(
            8, num_classes=3, hidden_units=(16,), dropout_rate=0.2, seed=0
        ),
        train_dataset=blobs_workload.train_dataset,
        test_dataset=blobs_workload.test_dataset,
        optimizer_factory=make_optimizer("adam", learning_rate=0.01),
        num_workers=4,
        batch_size=16,
        seed=0,
    )


CHAOS_PLAN = FaultPlan(crash_rate=0.2, loss_rate=0.1, recovery_rounds=3, seed=7)


PLAN_IN_CHECKPOINT = FaultPlan(crash_rate=0.1, recovery_rounds=3.0, loss_rate=0.1, seed=1)


def _three_faulted_steps(blobs_workload):
    """A cluster three steps into a run under :data:`PLAN_IN_CHECKPOINT`, and its checkpoint."""
    cluster, _ = build_cluster(replace(blobs_workload, faults=PLAN_IN_CHECKPOINT))
    for _ in range(3):
        cluster.step_all()
    return cluster, ClusterCheckpoint.capture(cluster)


def _arrays(value):
    """Every array in a nested checkpoint payload."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays(item)


class TestFaultPlan:
    def test_default_plan_is_null(self):
        assert FaultPlan().is_null
        assert FaultPlan().describe() == "none"

    def test_any_nonzero_rate_is_not_null(self):
        assert not FaultPlan(crash_rate=0.1).is_null
        assert not FaultPlan(loss_rate=0.1).is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": 1.0},
            {"crash_rate": -0.1},
            {"loss_rate": 1.0},
            {"recovery_rounds": 0.5},
        ],
    )
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultPlan(**kwargs)

    def test_describe_names_active_categories(self):
        label = FaultPlan(crash_rate=0.1, loss_rate=0.05).describe()
        assert "crash=0.1" in label and "loss=0.05" in label

    def test_plan_participates_in_cache_keys(self):
        # Frozen dataclass -> canonical_value sees every field, so two
        # different plans can never collide in the sweep run store.
        a = canonical_value(FaultPlan(crash_rate=0.1))
        b = canonical_value(FaultPlan(crash_rate=0.2))
        assert a != b
        assert a["__class__"] == "FaultPlan"

    def test_injector_rejects_null_plan(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultPlan(), num_workers=4)


class TestPureObserver:
    """A null plan (or no plan) must not perturb anything, anywhere."""

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_null_plan_is_bit_identical(self, blobs_workload, side, dtype):
        base = replace(blobs_workload, dtype=dtype)
        cluster_a, result_a = _execute(base, lambda: FDAStrategy(threshold=0.5), side=side)
        cluster_b, result_b = _execute(
            replace(base, faults=FaultPlan()), lambda: FDAStrategy(threshold=0.5), side=side
        )
        assert cluster_b.faults is None  # null plan installs nothing
        np.testing.assert_array_equal(
            cluster_a.parameter_matrix, cluster_b.parameter_matrix
        )
        assert result_a.communication_bytes == result_b.communication_bytes
        assert cluster_a.fabric.bytes_by_link == cluster_b.fabric.bytes_by_link
        assert result_a.history.entries == result_b.history.entries
        assert result_b.faults == "none"
        assert result_b.fault_log is None

    def test_faulted_training_rng_matches_fault_free(self, blobs_workload):
        # Fault streams are private: the *training* randomness (batch
        # sampling order) of a faulted run equals the fault-free run's.
        cluster_a, _ = _execute(blobs_workload, SynchronousStrategy, max_steps=20)
        cluster_b, _ = _execute(
            replace(blobs_workload, faults=FaultPlan(loss_rate=0.3, seed=9)),
            SynchronousStrategy,
            max_steps=20,
        )
        for worker_a, worker_b in zip(cluster_a.workers, cluster_b.workers):
            assert (
                worker_a._sampler._rng.bit_generator.state
                == worker_b._sampler._rng.bit_generator.state
            )


class TestChaosDeterminism:
    """Same plan + same seed => identical faults; the CI chaos-smoke contract."""

    def test_chaos_smoke_same_seed_runs_are_identical(self, blobs_workload, tmp_path):
        workload = replace(blobs_workload, faults=CHAOS_PLAN)
        snapshot_a, snapshot_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        cluster_a, result_a = _execute(
            workload, lambda: FDAStrategy(threshold=0.5),
            checkpoint_every=20, checkpoint_path=snapshot_a,
        )
        cluster_b, result_b = _execute(
            workload, lambda: FDAStrategy(threshold=0.5),
            checkpoint_every=20, checkpoint_path=snapshot_b,
        )
        assert result_a.fault_log == result_b.fault_log
        assert result_a.fault_log["crashes"]  # the plan actually injected
        np.testing.assert_array_equal(
            cluster_a.parameter_matrix, cluster_b.parameter_matrix
        )
        assert result_a.communication_bytes == result_b.communication_bytes
        assert result_a.history.entries == result_b.history.entries
        assert snapshot_a.read_bytes() == snapshot_b.read_bytes()
        # The CI chaos-smoke job runs this test in two separate interpreter
        # invocations and byte-compares the digests, extending the in-process
        # determinism assertion above across process lifetimes.
        digest_path = os.environ.get("REPRO_CHAOS_DIGEST")
        if digest_path:
            with open(digest_path, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "fault_log": result_a.fault_log,
                        "parameters_sha256": hashlib.sha256(
                            np.ascontiguousarray(cluster_a.parameter_matrix).tobytes()
                        ).hexdigest(),
                        "communication_bytes": result_a.communication_bytes,
                        "checkpoint_sha256": hashlib.sha256(snapshot_a.read_bytes()).hexdigest(),
                        "history": result_a.history.entries,
                    },
                    handle,
                    indent=2,
                    sort_keys=True,
                )

    def test_different_fault_seeds_diverge(self, blobs_workload):
        plan_b = FaultPlan(crash_rate=0.2, loss_rate=0.1, recovery_rounds=3, seed=8)
        _, result_a = _execute(
            replace(blobs_workload, faults=CHAOS_PLAN), lambda: FDAStrategy(threshold=0.5)
        )
        _, result_b = _execute(
            replace(blobs_workload, faults=plan_b), lambda: FDAStrategy(threshold=0.5)
        )
        assert result_a.fault_log != result_b.fault_log


class TestLossyLinks:
    def test_loss_only_faults_conserve_bytes(self, blobs_workload):
        """Retry bytes are a pure surcharge: trajectory unchanged, every
        extra byte in the run total appears in the per-link log entries."""
        cluster_a, result_a = _execute(blobs_workload, SynchronousStrategy)
        plan = FaultPlan(loss_rate=0.1, seed=5)
        cluster_b, result_b = _execute(
            replace(blobs_workload, faults=plan), SynchronousStrategy
        )
        np.testing.assert_array_equal(
            cluster_a.parameter_matrix, cluster_b.parameter_matrix
        )
        extra = result_b.communication_bytes - result_a.communication_bytes
        per_link = sum(
            entry["bytes"] for entry in result_b.fault_log["retransmissions"].values()
        )
        assert extra == per_link
        assert extra == result_b.fault_log["retransmitted_bytes"]
        assert extra > 0  # 10% loss over a 40-step BSP run must retry

    def test_retransmitted_bytes_land_on_links(self, blobs_workload):
        plan = FaultPlan(loss_rate=0.1, seed=5)
        cluster_a, _ = _execute(blobs_workload, SynchronousStrategy, max_steps=20)
        cluster_b, result_b = _execute(
            replace(blobs_workload, faults=plan), SynchronousStrategy, max_steps=20
        )
        for link, entry in result_b.fault_log["retransmissions"].items():
            src, dst = (int(end) for end in link.split("->"))
            delta = cluster_b.fabric.bytes_by_link[(src, dst)] - cluster_a.fabric.bytes_by_link[(src, dst)]
            assert delta == entry["bytes"]

    def test_backoff_adds_virtual_seconds(self, blobs_workload):
        _, result_a = _execute(blobs_workload, SynchronousStrategy, max_steps=20)
        plan = FaultPlan(loss_rate=0.2, seed=5)
        _, result_b = _execute(
            replace(blobs_workload, faults=plan), SynchronousStrategy, max_steps=20
        )
        backoff = result_b.fault_log["total_backoff_seconds"]
        assert backoff > 0.0
        assert result_b.comm_seconds == pytest.approx(result_a.comm_seconds + backoff)

    def test_retry_cap_bounds_the_surcharge(self):
        injector = FaultInjector(FaultPlan(loss_rate=0.9, seed=1), num_workers=4)
        draws = [injector.sample_link_retries() for _ in range(200)]
        assert max(retries for retries, _ in draws) == MAX_RETRIES  # the cap binds
        for retries, backoff in draws:
            assert 0 <= retries <= MAX_RETRIES
            assert backoff == sum(
                min(BACKOFF_BASE_SECONDS * 2.0**i, BACKOFF_CAP_SECONDS) for i in range(retries)
            )


class TestChurn:
    def test_crashes_freeze_rows_and_rejoins_pay_download(self, blobs_workload):
        plan = FaultPlan(crash_rate=0.25, recovery_rounds=2, seed=3)
        cluster, result = _execute(
            replace(blobs_workload, faults=plan), SynchronousStrategy
        )
        log = result.fault_log
        assert log["crashes"] and log["rejoins"]
        # Every rejoin paid a real model download, priced by the fabric.
        for event in log["rejoins"]:
            assert event["recovery_bytes"] > 0
        assert result.faults.startswith("crash=0.25")

    def test_dead_rows_are_frozen_by_collectives(self, blobs_workload):
        # A vanishingly small crash rate keeps churn active without ever
        # drawing a crash, so the hand-killed worker is the only dead one.
        cluster, _ = build_cluster(
            replace(blobs_workload, faults=FaultPlan(crash_rate=1e-12, seed=3))
        )
        cluster.faults.alive[1] = False
        cluster.faults._recovery_round[1] = 10**6  # far beyond this test
        frozen = np.array(cluster.parameter_matrix[1])
        before = np.array(cluster.parameter_matrix)
        cluster.step_all()
        cluster.synchronize()
        np.testing.assert_array_equal(cluster.parameter_matrix[1], frozen)
        # Survivors moved and averaged over themselves only.
        alive_rows = cluster.parameter_matrix[[0, 2, 3]]
        assert not np.array_equal(alive_rows, before[[0, 2, 3]])
        np.testing.assert_array_equal(alive_rows[0], alive_rows[1])

    def test_a_rejoin_cold_starts_only_its_optimizer_rows(self, blobs_workload):
        # The recovered worker's moments and step count die with the crash;
        # the survivors keep theirs, byte for byte.
        cluster, _ = build_cluster(
            replace(blobs_workload, faults=FaultPlan(crash_rate=1e-12, seed=3))
        )
        for _ in range(2):
            cluster.step_all()
        stack = cluster.engine.stacked_optimizer
        survivors = [0, 2, 3]
        kept = {name: matrix[survivors].copy() for name, matrix in stack.state.items()}
        cluster._rejoin_worker(1)
        assert stack.step_counts.tolist() == [2, 0, 2, 2]
        assert sorted(stack.state) == ["m", "v"]
        for name, matrix in stack.state.items():
            assert not matrix[1].any()
            assert matrix[survivors].tobytes() == kept[name].tobytes()
        np.testing.assert_array_equal(
            cluster.parameter_matrix[1], cluster.parameter_matrix[survivors].mean(axis=0)
        )

    def test_injector_never_kills_the_whole_cluster(self):
        plan = FaultPlan(crash_rate=0.99, recovery_rounds=50.0, seed=0)
        injector = FaultInjector(plan, num_workers=4)
        for round_index in range(100):
            injector.advance_round(now=float(round_index))
            assert injector.alive.any()

    def test_churn_stream_alignment_is_liveness_independent(self):
        # The injector draws a fixed-size vector every round, so two
        # injectors whose liveness histories differ (different recovery
        # horizons) still see the same crash draws round-for-round.
        plan_a = FaultPlan(crash_rate=0.3, recovery_rounds=1.0, seed=4)
        plan_b = FaultPlan(crash_rate=0.3, recovery_rounds=30.0, seed=4)
        injector_a = FaultInjector(plan_a, num_workers=4)
        injector_b = FaultInjector(plan_b, num_workers=4)
        crashes_a, crashes_b = [], []
        for round_index in range(50):
            crashed_a, _ = injector_a.advance_round(float(round_index))
            crashed_b, _ = injector_b.advance_round(float(round_index))
            crashes_a.extend(crashed_a)
            crashes_b.extend(crashed_b)
        # Same stream, but b's longer outages mask some of its candidates
        # (dead workers cannot crash again), so a's crash set contains b's
        # pattern restricted to rounds where the workers were up; at minimum
        # the first crash must coincide exactly.
        assert crashes_a[0] == crashes_b[0]

    def test_fda_substitutes_stale_states_for_dead_workers(self, blobs_workload):
        plan = FaultPlan(crash_rate=0.3, recovery_rounds=4, seed=11)
        _, result = _execute(
            replace(blobs_workload, faults=plan), lambda: FDAStrategy(threshold=0.5)
        )
        assert result.fault_log["crashes"]
        # The monitor kept estimating through churn: the run still evaluated
        # and synchronized without error.
        assert result.parallel_steps == 40

    def test_faults_refuse_to_combine_with_compression(self, blobs_workload):
        workload = replace(blobs_workload, compression="topk", faults=FaultPlan(crash_rate=0.1))
        with pytest.raises(ConfigurationError, match="compression"):
            build_cluster(workload)


class TestClusterCheckpoint:
    def test_save_load_round_trip_is_bit_exact(self, rng, tmp_path):
        for dtype in (np.float64, np.float32):
            array = rng.normal(size=(5, 7)).astype(dtype)
            checkpoint = ClusterCheckpoint({"format": FORMAT, "version": VERSION, "nested": [array]})
            restored = ClusterCheckpoint.load(checkpoint.save(tmp_path / "c.ckpt"))
            restored = restored.payload["nested"][0]
            assert restored.dtype == array.dtype
            np.testing.assert_array_equal(restored, array)

    #: The server strategies resume from the cluster's shared model plus the
    #: server optimizer's moments (FedOpt) or the control variates (SCAFFOLD);
    #: before the shared server round FedProx and SCAFFOLD checkpointed
    #: neither.  The ``-topk`` cells run compressed instead of faulted (the two
    #: do not combine): there the shared model was once held twice, as FDA's
    #: ``w_{t0}`` or the server's global model and as the compression reference.
    RESUMABLE = {
        "fda": lambda: FDAStrategy(threshold=0.5),
        "fedavgm": fedavgm_strategy,
        "fedadam": fedadam_strategy,
        "fedprox": lambda: FedProxStrategy(mu=0.5),
        "scaffold": lambda: ScaffoldStrategy(local_learning_rate_hint=0.01),
        "fda-topk": lambda: FDAStrategy(threshold=0.05),
        "fedavgm-topk": fedavgm_strategy,
    }
    TOPK_EF = CompressionConfig("topk", ratio=0.05, error_feedback=True)

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("strategy", sorted(RESUMABLE))
    def test_interrupted_run_resumes_bit_exactly(
        self, blobs_workload, strategy, side, tmp_path
    ):
        execute = partial(_execute, side=side)
        workload = _dropout_workload(blobs_workload)
        if strategy.endswith("-topk"):
            workload = replace(workload, compression=self.TOPK_EF)
        else:
            workload = replace(workload, faults=CHAOS_PLAN)
        built = []

        def factory():
            built.append(self.RESUMABLE[strategy]())
            return built[-1]

        cluster_ref, result_ref = execute(workload, factory, max_steps=80)

        # Interrupt: checkpoint every 20 steps, stop at 40.
        ckpt = tmp_path / "ckpt.json"
        execute(
            workload, factory, max_steps=40,
            checkpoint_every=20, checkpoint_path=ckpt,
        )
        # Resume into a *fresh* cluster/strategy and continue to 80.
        cluster_res, result_res = execute(
            workload, factory, max_steps=80, resume_from=ckpt
        )

        np.testing.assert_array_equal(
            cluster_ref.parameter_matrix, cluster_res.parameter_matrix
        )
        np.testing.assert_array_equal(
            cluster_ref.shared_parameters, cluster_res.shared_parameters
        )
        assert result_ref.history.entries == result_res.history.entries
        assert result_ref.fault_log == result_res.fault_log
        assert result_ref.communication_bytes == result_res.communication_bytes
        # The strategy's own state: references, server moments, variates.
        assert_same_state(
            built[2].checkpoint_state(), built[0].checkpoint_state(), path="strategy"
        )
        assert_same_state(
            cluster_res.engine.stacked_optimizer.state,
            cluster_ref.engine.stacked_optimizer.state,
            path="optimizer",
        )
        assert (
            cluster_ref.engine.stacked_optimizer.step_counts.tolist()
            == cluster_res.engine.stacked_optimizer.step_counts.tolist()
        )
        for worker_ref, worker_res in zip(cluster_ref.workers, cluster_res.workers):
            assert worker_ref.steps_performed == worker_res.steps_performed
            # Dropout streams advanced identically through the restore.
            for layer_ref, layer_res in zip(
                worker_ref.model.layers, worker_res.model.layers
            ):
                rng_ref = getattr(layer_ref, "_rng", None)
                if isinstance(rng_ref, np.random.Generator):
                    assert (
                        rng_ref.bit_generator.state
                        == layer_res._rng.bit_generator.state
                    )

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize(
        "strategy_factory",
        [lambda: LocalSGDStrategy(tau=1), lambda: FDAStrategy(threshold=0.05)],
        ids=["local-sgd", "fda"],
    )
    @pytest.mark.parametrize(
        "compression",
        [
            CompressionConfig("topk", ratio=0.05, error_feedback=True),
            CompressionConfig("quantization", bits=8),
            CompressionConfig("randomk", ratio=0.1, error_feedback=True),
        ],
        ids=["topk-ef", "quantization", "randomk-ef"],
    )
    def test_resume_under_compression_is_bit_exact(
        self, blobs_workload, compression, strategy_factory, side, tmp_path
    ):
        # The compressed exchange is a function of state the plain path does
        # not have: the shared model the drifts are taken against, each
        # worker's error-feedback residual, and (random-k) the shared
        # coordinate stream.
        execute = partial(_execute, side=side)
        workload = replace(blobs_workload, compression=compression)
        cluster_ref, result_ref = execute(workload, strategy_factory, max_steps=40)
        ckpt = tmp_path / "ckpt.json"
        execute(
            workload, strategy_factory, max_steps=20,
            checkpoint_every=10, checkpoint_path=ckpt,
        )
        cluster_res, result_res = execute(
            workload, strategy_factory, max_steps=40, resume_from=ckpt
        )

        assert cluster_ref.synchronization_count > 2
        np.testing.assert_array_equal(
            cluster_ref.parameter_matrix, cluster_res.parameter_matrix
        )
        np.testing.assert_array_equal(
            cluster_ref.shared_parameters, cluster_res.shared_parameters
        )
        state_ref, state_res = cluster_ref.compression, cluster_res.compression
        if compression.error_feedback:
            np.testing.assert_array_equal(
                state_ref.residual_matrix, state_res.residual_matrix
            )
        assert cluster_ref.fabric.state_dict() == cluster_res.fabric.state_dict()
        assert result_ref.history.entries == result_res.history.entries

    def test_compressed_checkpoint_holds_the_shared_model_once(self, blobs_workload):
        workload = replace(blobs_workload, compression=self.TOPK_EF)
        for factory in (lambda: FDAStrategy(threshold=0.05), fedavgm_strategy):
            cluster, _ = build_cluster(workload)
            strategy = factory().attach(cluster)
            for _ in range(3):
                strategy.run_round()
            payload = ClusterCheckpoint.capture(cluster, strategy).payload
            shared = cluster.shared_parameters.tobytes()
            copies = [array for array in _arrays(payload) if array.tobytes() == shared]
            assert len(copies) == 1, strategy.name
            assert copies[0] is payload["shared_parameters"]

    def test_population_resume_is_refused(self, blobs_workload, tmp_path):
        # The checkpoint holds no cohort stream, client store or population
        # counters: resuming would silently diverge.  Writing one stays legal.
        workload = blobs_workload.with_population(
            PopulationConfig(num_clients=40, cohort_size=4)
        )
        ckpt = tmp_path / "ckpt.json"
        _execute(
            workload, lambda: FDAStrategy(threshold=0.05), max_steps=20,
            checkpoint_every=10, checkpoint_path=ckpt,
        )
        assert ckpt.exists()
        with pytest.raises(ExperimentError, match="cohort sampler's stream"):
            _execute(
                workload, lambda: FDAStrategy(threshold=0.05), max_steps=20,
                resume_from=ckpt,
            )

    def test_other_versions_are_refused_by_name(self, blobs_workload, tmp_path):
        cluster, _ = build_cluster(blobs_workload)
        checkpoint = ClusterCheckpoint.capture(cluster)
        checkpoint.payload["version"] = 1
        with pytest.raises(ExperimentError, match="version 1"):
            checkpoint.restore(cluster)
        path = checkpoint.save(tmp_path / "v1.json")
        with pytest.raises(ExperimentError, match="version 1"):
            ClusterCheckpoint.load(path)

    def test_restore_validates_the_target_cluster(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload)
        checkpoint = ClusterCheckpoint.capture(cluster)
        other, _ = build_cluster(replace(blobs_workload, num_workers=3))
        with pytest.raises(ExperimentError, match="workers"):
            checkpoint.restore(other)

    def test_restore_rejects_dtype_mismatch(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload)
        checkpoint = ClusterCheckpoint.capture(cluster)
        other, _ = build_cluster(replace(blobs_workload, dtype="float32"))
        with pytest.raises(ExperimentError, match="dtype"):
            checkpoint.restore(other)

    @pytest.mark.parametrize(
        "target, field",
        [
            (lambda: FDAStrategy(0.01, "sketch"), "variant"),
            (lambda: FDAStrategy(5.0, "linear"), "threshold"),
            (lambda: LocalSGDStrategy(tau=1), "class"),
        ],
        ids=["sketch", "theta", "local-sgd"],
    )
    def test_restore_refuses_a_differently_configured_strategy(
        self, blobs_workload, target, field
    ):
        cluster, _ = build_cluster(blobs_workload)
        strategy = FDAStrategy(0.01, "linear").attach(cluster)
        strategy.run_steps(3)
        checkpoint = ClusterCheckpoint.capture(cluster, strategy)
        fresh, _ = build_cluster(blobs_workload)
        other = target().attach(fresh)
        before = fresh.parameter_matrix.copy()
        with pytest.raises(ExperimentError, match=f"differently configured strategy.*{field}"):
            checkpoint.restore(fresh, other)
        # Refused before anything was written.
        np.testing.assert_array_equal(fresh.parameter_matrix, before)
        assert other.rounds_completed == 0

    @pytest.mark.parametrize(
        "change, shown",
        [
            ({"crash_rate": 0.4}, "crash_rate: 0.1 in the checkpoint, 0.4 here"),
            ({"recovery_rounds": 5.0}, "recovery_rounds: 3.0 in the checkpoint, 5.0 here"),
            ({"loss_rate": 0.2}, "loss_rate: 0.1 in the checkpoint, 0.2 here"),
            ({"seed": 9}, "seed: 1 in the checkpoint, 9 here"),
        ],
        ids=["crash_rate", "recovery_rounds", "loss_rate", "seed"],
    )
    def test_restore_refuses_a_different_fault_plan(self, blobs_workload, change, shown):
        _, checkpoint = _three_faulted_steps(blobs_workload)
        plan = replace(PLAN_IN_CHECKPOINT, **change)
        fresh, _ = build_cluster(replace(blobs_workload, faults=plan))
        before = fresh.faults.state_dict()
        with pytest.raises(
            ExperimentError, match=rf"differently configured fault plan \({re.escape(shown)}\)$"
        ):
            checkpoint.restore(fresh)
        # Refused before anything was written.
        assert fresh.faults.state_dict() == before

    @pytest.mark.parametrize("faulted", ["checkpoint", "cluster"])
    def test_restore_refuses_a_fault_plan_only_one_side_has(self, blobs_workload, faulted):
        # A cluster without an injector runs the null plan.
        lossy = replace(blobs_workload, faults=FaultPlan(loss_rate=0.1, seed=1))
        if faulted == "checkpoint":
            source, target, shown = lossy, blobs_workload, "0.1 in the checkpoint, 0.0 here"
        else:
            source, target, shown = blobs_workload, lossy, "0.0 in the checkpoint, 0.1 here"
        checkpoint = ClusterCheckpoint.capture(build_cluster(source)[0])
        with pytest.raises(ExperimentError, match=rf"fault plan \(loss_rate: {shown};"):
            checkpoint.restore(build_cluster(target)[0])

    def test_the_same_fault_plan_restores(self, blobs_workload):
        cluster, checkpoint = _three_faulted_steps(blobs_workload)
        # The same plan, spelled with an integer outage length.
        same = FaultPlan(crash_rate=0.1, recovery_rounds=3, loss_rate=0.1, seed=1)
        fresh, _ = build_cluster(replace(blobs_workload, faults=same))
        checkpoint.restore(fresh)
        assert fresh.faults.state_dict() == cluster.faults.state_dict()
        np.testing.assert_array_equal(fresh.parameter_matrix, cluster.parameter_matrix)

    def test_restore_names_a_field_only_the_checkpoint_has(self, blobs_workload):
        # A checkpoint whose strategy had a knob this code no longer has.
        cluster, _ = build_cluster(blobs_workload)
        strategy = FDAStrategy(0.01).attach(cluster)
        checkpoint = ClusterCheckpoint.capture(cluster, strategy)
        config = json.loads(checkpoint.payload["strategy_config"])
        checkpoint.payload["strategy_config"] = json.dumps({**config, "knob": None})
        fresh, _ = build_cluster(blobs_workload)
        with pytest.raises(ExperimentError, match="knob: None in the checkpoint, absent here"):
            checkpoint.restore(fresh, FDAStrategy(0.01).attach(fresh))

    def test_restore_names_a_field_only_this_code_has(self, blobs_workload):
        # A checkpoint from before the strategy gained a knob.
        cluster, _ = build_cluster(blobs_workload)
        strategy = FDAStrategy(0.01, seed=3).attach(cluster)
        checkpoint = ClusterCheckpoint.capture(cluster, strategy)
        config = json.loads(checkpoint.payload["strategy_config"])
        del config["seed"]
        checkpoint.payload["strategy_config"] = json.dumps(config)
        fresh, _ = build_cluster(blobs_workload)
        with pytest.raises(ExperimentError, match=r"\(seed: absent in the checkpoint, 3 here\)"):
            checkpoint.restore(fresh, FDAStrategy(0.01, seed=3).attach(fresh))

    def test_save_is_atomic_and_loadable(self, blobs_workload, tmp_path):
        cluster, _ = build_cluster(blobs_workload)
        cluster.step_all()
        path = tmp_path / "snap.json"
        ClusterCheckpoint.capture(cluster).save(path)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()
        reloaded = ClusterCheckpoint.load(path)
        np.testing.assert_array_equal(
            reloaded.payload["parameters"], cluster.parameter_matrix
        )

    def test_checkpoint_spec_is_cache_key_invisible(self):
        # Snapshot cadence is an observer: it must not change run keys.
        plain = TrainingRun(max_steps=40).spec()
        snapshotting = TrainingRun(
            max_steps=40, checkpoint_every=10, checkpoint_path="x.json"
        ).spec()
        assert plain == snapshotting


class TestDivergenceReporting:
    """Satellite bugfix: divergence raises atomically and names ALL workers."""

    @pytest.mark.parametrize("side", SIDES)
    def test_all_diverged_workers_are_named(self, side):
        from repro.data.synthetic import gaussian_blobs
        from repro.distributed.cluster import SimulatedCluster
        from repro.distributed.worker import Worker
        from repro.nn.architectures import mlp
        from repro.optim.sgd import SGD

        # Identical data, model, optimizer, and sampler seed per worker:
        # every replica walks the same trajectory and diverges on the same
        # round, so the aggregated error must name each of them.
        data = gaussian_blobs(40, feature_dim=6, num_classes=3, seed=0)
        workers = [
            Worker(
                worker_id,
                mlp(6, 3, hidden_units=(8,), seed=0),
                data,
                batch_size=8,
                seed=0,
            )
            for worker_id in range(3)
        ]
        cluster = on_side(side, SimulatedCluster(workers, SGD(1e12)))
        with pytest.raises(TrainingError) as excinfo:
            for _ in range(50):
                cluster.step_all()
        message = str(excinfo.value)
        named = [f"worker {worker_id}" in message for worker_id in range(3)]
        assert all(named), message

    def test_batched_rollback_leaves_buffers_untouched(self):
        from helpers.parity import bn_factory

        cluster = make_cluster(
            "batched",
            model_factory=bn_factory,
            sample_shape=(8, 8, 1),
            num_classes=4,
            num_workers=2,
        )
        assert isinstance(cluster._engine, BatchedEngine)
        cluster.step_all()  # one healthy round populates BatchNorm stats
        # Poison one replica: its next forward pass yields a non-finite loss.
        cluster.parameter_matrix[0, :] = np.nan
        params_before = np.array(cluster.parameter_matrix)
        buffers_before = np.array(cluster.buffer_matrix)
        steps_before = [worker.steps_performed for worker in cluster.workers]
        with pytest.raises(TrainingError, match="worker 0"):
            cluster.step_all()
        # The failing round is atomic: parameters, buffers (BatchNorm running
        # stats), and step counts are exactly the pre-round state — the
        # healthy worker 1 was rolled back too.
        np.testing.assert_array_equal(cluster.parameter_matrix, params_before)
        np.testing.assert_array_equal(cluster.buffer_matrix, buffers_before)
        assert [worker.steps_performed for worker in cluster.workers] == steps_before

    @pytest.mark.parametrize("masked", [False, True], ids=["live", "masked"])
    def test_a_divergence_in_any_row_shard_fails_the_whole_step(
        self, every_pass_sharded, masked
    ):
        from helpers.parity import bn_factory

        # Three shards over five rows (live) or four (masked): row 0 diverges
        # in the calling thread's shard, row 3 in the last pool shard.
        cluster = make_cluster(
            "batched", model_factory=bn_factory, sample_shape=(8, 8, 1),
            num_classes=4, num_workers=5,
        )
        cluster.step_all()  # a healthy round: moments and BatchNorm stats move
        cluster.parameter_matrix[[0, 3], :] = np.nan

        def state():
            stack = cluster.engine.stacked_optimizer
            return (
                cluster.parameter_matrix.tobytes(),
                cluster.buffer_matrix.tobytes(),
                [matrix.tobytes() for matrix in stack.state.values()],
                stack.step_counts.tolist(),
                [w.steps_performed for w in cluster.workers],
            )

        before = state()
        with pytest.raises(TrainingError) as excinfo:
            cluster.engine.step_all(active=np.array([True] * 4 + [not masked]))
        named = [k for k in range(5) if f"worker {k}:" in str(excinfo.value)]
        assert named == [0, 3]
        assert state() == before


class TestResultPersistence:
    def test_fault_log_survives_the_results_file(self, blobs_workload, tmp_path):
        import json

        from repro.experiments.persistence import result_from_dict, result_to_dict

        _, result = _execute(
            replace(blobs_workload, faults=CHAOS_PLAN),
            lambda: FDAStrategy(threshold=0.5),
            max_steps=20,
        )
        loaded = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert loaded.faults == result.faults
        assert loaded.fault_log == result.fault_log
