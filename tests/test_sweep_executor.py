"""Tests for the streaming sweep executor and its content-addressed cache.

Covers the four tentpole guarantees: content-addressed keys are stable under
reconstruction and sensitive to every configuration field; a killed sweep
resumes from its durable records without re-executing completed cells; the
shared-setup memoization is bit-identical to eager per-cell builds (including
models with Dropout RNG streams), and so is a cluster restored for the next
cell of its workload; and process-parallel execution is bit-identical to
serial.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import resolve_dtype
from repro.compression import CompressionConfig
from repro.data.synthetic import gaussian_blobs
from repro.distributed.topology import GossipTopology, HierarchicalTopology
from helpers.memory import peak_bytes
from repro.data.datasets import Dataset
from repro.exceptions import ExperimentError, ModelNotBuiltError, TrainingError
from repro.experiments.cache import CODE_VERSION, RunStore, canonical_value, dataset_digest
from repro.experiments.executor import (
    SweepCell,
    SweepExecutor,
    fork_parallelism_available,
    workload_fingerprint,
)
from repro.experiments.persistence import result_to_dict
from repro.experiments.run import TrainingRun
from repro.experiments.registry import fda
from repro.experiments.setup import SetupCache, WorkloadConfig, build_cluster, make_optimizer
from repro.experiments.sweep import lower_grid, run_grid
from repro.faults import FaultPlan
from repro.nn.architectures import mlp, transfer_head
from repro.nn.layers import BatchNorm, Dense, Dropout
from repro.nn.model import Sequential
from repro.nn.plane import ParameterPlane
from repro.optim.server import FedAdam
from repro.population import PopulationConfig
from repro.serving import ServingConfig
from repro.strategies import (
    FDAStrategy,
    FedOptStrategy,
    FedProxStrategy,
    LocalSGDStrategy,
    ScaffoldStrategy,
)

BLOBS_FEATURES = 8
BLOBS_CLASSES = 3

RUN = TrainingRun(accuracy_target=0.95, max_steps=8, eval_every_steps=4)
THETAS = (0.5, 2.0, 8.0)


def small_model_factory(seed: int = 0):
    """A factory for the small MLP used as the worker model."""
    return lambda: mlp(
        BLOBS_FEATURES, BLOBS_CLASSES, hidden_units=(16,), seed=seed, name="test-mlp"
    )


def blobs(num_samples: int, seed: int):
    return gaussian_blobs(
        num_samples, feature_dim=BLOBS_FEATURES, num_classes=BLOBS_CLASSES, seed=seed
    )


def build_workload(seed: int = 0, **overrides) -> WorkloadConfig:
    """A fresh blobs workload; repeated calls share no objects, only content."""
    config = dict(
        name="blobs",
        model_factory=small_model_factory(),
        train_dataset=blobs(360, seed=0),
        test_dataset=blobs(150, seed=0),
        optimizer_factory=make_optimizer("adam", learning_rate=0.01),
        num_workers=4,
        batch_size=16,
        seed=seed,
    )
    config.update(overrides)
    return WorkloadConfig(**config)


#: The ``WorkloadConfig`` fields with one legal value, so no alternative:
#: ``execution`` names the one engine.
SINGLE_VALUED = {"execution"}

#: A different legal value for every other ``WorkloadConfig`` field, as drawn
#: against :func:`build_workload`'s defaults.
FIELD_ALTERNATIVES = {
    "name": st.text(alphabet="abcxyz-", min_size=1, max_size=6).filter(lambda n: n != "blobs"),
    "model_factory": st.integers(1, 9).map(small_model_factory),
    "train_dataset": st.integers(1, 9).map(lambda seed: blobs(360, seed)),
    "test_dataset": st.integers(1, 9).map(lambda seed: blobs(150, seed)),
    "optimizer_factory": st.sampled_from(
        [("adam", 0.02), ("adamw", 0.01), ("sgd", 0.05), ("sgd-nm", 0.05)]
    ).map(lambda spec: make_optimizer(spec[0], learning_rate=spec[1])),
    "num_workers": st.integers(1, 12).filter(lambda k: k != 4),
    "batch_size": st.integers(1, 64).filter(lambda b: b != 16),
    "partition_scheme": st.sampled_from(["noniid-fraction", "noniid-label", "dirichlet"]),
    "partition_kwargs": st.sampled_from([{"fraction": 0.5}, {"alpha": 0.3}, {"label": 1}]),
    "topology": st.sampled_from(
        ["ring", "hierarchical", "gossip", HierarchicalTopology(), GossipTopology()]
    ),
    "network": st.sampled_from(["fl", "hpc", "balanced"]),
    "dropout_rate": st.floats(0.01, 0.9),
    "compression": st.sampled_from(
        ["topk", "quantization", "randomk", "signsgd", CompressionConfig("topk", ratio=0.05)]
    ),
    "dtype": st.just("float32"),
    "faults": st.floats(0.01, 0.5).map(lambda rate: FaultPlan(crash_rate=rate)),
    "population": st.integers(5, 1000).map(
        lambda clients: PopulationConfig(num_clients=clients, cohort_size=4)
    ),
    "serving": st.floats(0.1, 4.0).map(lambda rate: ServingConfig(arrival_rate=rate)),
    "seed": st.integers(1, 10_000),
}


#: A legal int spelling of every ``float`` field of the run-shaping
#: dataclasses, keyed ``Class.field``.
INT_SPELLINGS = {
    "ServingConfig.arrival_rate": 2,
    "ServingConfig.service_seconds": 2,
    "CompressionConfig.ratio": 1,
    "PopulationConfig.act_prob": 1,
    "FaultPlan.crash_rate": 0,
    "FaultPlan.recovery_rounds": 3,
    "FaultPlan.loss_rate": 0,
    "WorkloadConfig.dropout_rate": 0,
}
#: How a workload carries each config class: its field and the config's
#: other arguments (a fault plan must stay non-null to be carried at all).
CARRIERS = {
    ServingConfig: ("serving", {}),
    CompressionConfig: ("compression", {}),
    PopulationConfig: ("population", {"num_clients": 20, "cohort_size": 4}),
    FaultPlan: ("faults", {"crash_rate": 0.1, "loss_rate": 0.1}),
}


def make_cell(workload, theta: float = 2.0, run: TrainingRun = RUN) -> SweepCell:
    return SweepCell(
        workload=workload,
        strategy_factory=lambda: FDAStrategy(threshold=theta, variant="linear", seed=0),
        run=run,
    )


def sweep_theta(workload, thetas, run, executor=None):
    """A LinearFDA Θ grid through the one lowering (the suite's standard sweep)."""
    return run_grid(lower_grid(workload, run, fda, theta=thetas), executor)


def run_eager(workload, strategy, run):
    """The eager reference: build everything from scratch, execute directly."""
    cluster, test_dataset = build_cluster(workload)
    return run.execute(
        strategy,
        cluster,
        test_dataset,
        train_dataset=workload.train_dataset,
        workload_name=workload.name,
    )


def assert_results_identical(left, right):
    """Bit-level equality of two run results: ledgers, histories, accuracies."""
    assert left.communication_bytes == right.communication_bytes
    assert left.state_bytes == right.state_bytes
    assert left.model_bytes == right.model_bytes
    assert left.parallel_steps == right.parallel_steps
    assert left.synchronizations == right.synchronizations
    assert left.final_accuracy == right.final_accuracy
    assert left.best_accuracy == right.best_accuracy
    assert left.history.entries == right.history.entries


class TestRunKeys:
    def test_reconstructed_workload_same_key(self):
        # Two separately constructed workloads: distinct dataset objects,
        # distinct factory lambdas — identical content, therefore one key.
        executor = SweepExecutor()
        key_a = executor.run_key(make_cell(build_workload()))
        key_b = executor.run_key(make_cell(build_workload()))
        assert key_a == key_b

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda w: w.with_seed(1),
            lambda w: replace(w, num_workers=5),
            lambda w: replace(w, batch_size=8),
            lambda w: replace(w, name="other"),
            lambda w: replace(w, dtype="float32"),
            lambda w: replace(w, topology="ring"),
            lambda w: replace(w, network="fl"),
            lambda w: replace(w, compression="topk"),
            lambda w: replace(w, partition_scheme="dirichlet", partition_kwargs={"alpha": 0.3}),
            lambda w: replace(w, dropout_rate=0.2),
            lambda w: replace(
                w,
                train_dataset=gaussian_blobs(
                    360, feature_dim=BLOBS_FEATURES, num_classes=BLOBS_CLASSES, seed=7
                ),
            ),
            lambda w: replace(w, model_factory=small_model_factory(seed=3)),
            lambda w: replace(
                w, optimizer_factory=make_optimizer("adam", learning_rate=0.02)
            ),
        ],
    )
    def test_any_workload_field_change_changes_key(self, mutate):
        executor = SweepExecutor()
        base = executor.run_key(make_cell(build_workload()))
        changed = executor.run_key(make_cell(mutate(build_workload())))
        assert changed != base

    def test_every_config_field_has_an_alternative(self):
        assert set(FIELD_ALTERNATIVES) | SINGLE_VALUED == {
            spec.name for spec in fields(WorkloadConfig)
        }

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_replacing_any_single_field_changes_the_key(self, data):
        name = data.draw(st.sampled_from(sorted(FIELD_ALTERNATIVES)), label="field")
        value = data.draw(FIELD_ALTERNATIVES[name], label="value")
        executor = SweepExecutor()
        base = build_workload()
        changed = replace(base, **{name: value})
        assert executor.run_key(make_cell(changed)) != executor.run_key(make_cell(base))

    def test_a_field_added_by_a_subclass_enters_the_key(self):
        @dataclass
        class TaggedWorkload(WorkloadConfig):
            tag: str = "a"

        base = build_workload()
        tagged = TaggedWorkload(**{spec.name: getattr(base, spec.name) for spec in fields(base)})
        executor = SweepExecutor()
        assert workload_fingerprint(tagged, executor.setup)["tag"] == "a"
        assert executor.run_key(make_cell(replace(tagged, tag="b"))) != executor.run_key(
            make_cell(tagged)
        )

    def test_spelled_defaults_share_the_key_of_what_they_build(self):
        # The fingerprint covers the fabric the cluster will be built with,
        # not how the caller spelled it (``cli compare`` says "none"/"star",
        # ``cli serve`` says None).
        from repro.distributed.network import FL_NETWORK
        from repro.distributed.topology import HierarchicalTopology, StarTopology

        executor = SweepExecutor()

        def key(**fabric):
            return executor.run_key(make_cell(build_workload(**fabric)))

        base = key()
        assert key(network="none") == key(network=None) == base
        assert key(topology="star") == key(topology=StarTopology()) == key(topology=None) == base
        assert key(network="fl") == key(network=FL_NETWORK) != base
        assert key(topology="hierarchical") == key(topology=HierarchicalTopology())
        # ...while anything that builds a different fabric still moves the key.
        assert key(network="fl") != key(network="hpc")
        assert len({key(topology=name) for name in ("star", "ring", "hierarchical", "gossip")}) == 4

    def test_every_float_field_has_an_int_spelling(self):
        float_fields = {
            f"{config.__name__}.{spec.name}"
            for config in (*CARRIERS, WorkloadConfig)
            for spec in fields(config)
            if spec.type in (float, "float")
        }
        assert set(INT_SPELLINGS) == float_fields

    @pytest.mark.parametrize("field", sorted(INT_SPELLINGS))
    def test_an_int_in_a_float_field_is_the_key_of_its_float(self, field):
        """``rate=1`` and ``rate=1.0`` compare equal, so they are one run."""
        class_name, name = field.split(".")
        executor = SweepExecutor()

        def key(value):
            if class_name == "WorkloadConfig":
                return executor.run_key(make_cell(build_workload(**{name: value})))
            config = next(config for config in CARRIERS if config.__name__ == class_name)
            carrier, arguments = CARRIERS[config]
            spelled = config(**{**arguments, name: value})
            return executor.run_key(make_cell(build_workload(**{carrier: spelled})))

        value = INT_SPELLINGS[field]
        assert key(value) == key(float(value))

    def test_a_null_fault_plan_is_no_plan(self):
        """A null plan installs nothing, whatever its seed: the run of no plan."""
        executor = SweepExecutor()

        def key(faults):
            return executor.run_key(make_cell(build_workload(faults=faults)))

        assert build_workload(faults=FaultPlan(seed=7)).faults is None
        assert key(FaultPlan()) == key(FaultPlan(seed=7, recovery_rounds=3)) == key(None)
        assert key(FaultPlan(crash_rate=0.1)) != key(None)

    def test_strategy_and_run_changes_change_key(self):
        executor = SweepExecutor()
        workload = build_workload()
        base = executor.run_key(make_cell(workload, theta=2.0))
        assert executor.run_key(make_cell(workload, theta=4.0)) != base
        longer = TrainingRun(accuracy_target=0.95, max_steps=16, eval_every_steps=4)
        assert executor.run_key(make_cell(workload, run=longer)) != base

    def test_key_salted_with_code_version(self):
        executor = SweepExecutor()
        key = executor.run_key(make_cell(build_workload()))
        assert CODE_VERSION  # the salt exists...
        # ...and participates: recomputing under a patched salt must differ.
        import repro.experiments.executor as executor_module

        original = executor_module.CODE_VERSION
        executor_module.CODE_VERSION = original + "-next"
        try:
            assert executor.run_key(make_cell(build_workload())) != key
        finally:
            executor_module.CODE_VERSION = original


class TestContentDigests:
    """Digests hash the arrays' own buffers: the bytes ``tobytes()`` would copy."""

    @pytest.mark.parametrize(
        "array",
        [
            np.arange(24.0).reshape(4, 6)[:, ::2],
            np.array([[True, False], [False, True]]),
            np.arange(12, dtype=np.int32).reshape(3, 4).T,
        ],
        ids=["non-contiguous", "bool", "int-transposed"],
    )
    def test_an_array_token_is_the_digest_of_its_bytes(self, array):
        expected = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
        assert canonical_value(array)["__ndarray__"] == expected

    @pytest.mark.parametrize("contiguous", [True, False])
    def test_a_dataset_digest_is_the_digest_of_its_bytes(self, contiguous):
        samples = np.arange(60.0).reshape(10, 6)
        data = Dataset(samples if contiguous else samples[:, ::2], np.arange(10) % 3, 3)
        x, y = np.ascontiguousarray(data.x), np.ascontiguousarray(data.y)
        expected = hashlib.sha256()
        expected.update(str((x.shape, str(x.dtype), y.shape, str(y.dtype))).encode())
        expected.update(x.tobytes())
        expected.update(y.tobytes())
        expected.update(b"3")
        assert dataset_digest(data) == expected.hexdigest()

    def test_a_dataset_digest_copies_no_samples(self):
        # 4096 × 256 float64 = 8 MiB; a ``tobytes()`` copy would hold all of it.
        data = Dataset(np.ones((4096, 256)), np.zeros(4096, dtype=np.int64), 2)
        _, peak = peak_bytes(dataset_digest, data)
        assert peak <= 0.05 * data.x.nbytes


class TestMemoizedSetup:
    def test_an_unbuilt_model_factory_fails_by_name_when_its_key_is_computed(self):
        # SimulatedCluster refuses an unbuilt model, so no run could use its key.
        unbuilt = lambda: Sequential([Dense(BLOBS_CLASSES)])  # noqa: E731
        with pytest.raises(ModelNotBuiltError):
            SweepExecutor().run_key(make_cell(build_workload(model_factory=unbuilt)))

    def test_memoized_results_match_eager(self):
        eager = [
            run_eager(
                build_workload(),
                FDAStrategy(threshold=theta, variant="linear", seed=0),
                RUN,
            )
            for theta in THETAS
        ]
        executor = SweepExecutor()
        points = sweep_theta(build_workload(), THETAS, RUN, executor=executor)
        # Partitions, the model pool and the cluster were each built exactly
        # once for the whole grid (pool lookups also serve key fingerprinting,
        # so hit counts exceed cell counts — misses are the build-cost metric);
        # every later cell restored the held cluster.
        assert executor.setup.partition_misses == 1
        assert executor.setup.model_misses == 1
        assert executor.setup.cluster_misses == 1
        assert executor.setup.cluster_hits == len(THETAS) - 1
        for point, reference in zip(points, eager):
            assert_results_identical(point.result, reference)

    def test_memoized_dropout_model_matches_eager(self):
        # Dropout layers consume a private RNG stream during training; the
        # model pool must rewind it on every bind for mask sequences to
        # replay exactly.
        workload = build_workload(
            model_factory=lambda: transfer_head(
                BLOBS_FEATURES,
                num_classes=BLOBS_CLASSES,
                hidden_units=(12,),
                dropout_rate=0.3,
                seed=0,
            ),
        )
        eager = [
            run_eager(
                workload, FDAStrategy(threshold=theta, variant="linear", seed=0), RUN
            )
            for theta in THETAS
        ]
        points = sweep_theta(workload, THETAS, RUN, executor=SweepExecutor())
        for point, reference in zip(points, eager):
            assert_results_identical(point.result, reference)

    def test_pool_survives_dtype_change(self):
        # A float32 cell converts the pooled skeletons in place; the next
        # float64 cell must get pristine float64 initials back.
        executor = SweepExecutor()
        reference = run_eager(
            build_workload(), FDAStrategy(threshold=2.0, variant="linear", seed=0), RUN
        )
        sweep_theta(build_workload(dtype="float32"), (2.0,), RUN, executor=executor)
        points = sweep_theta(build_workload(), (2.0,), RUN, executor=executor)
        assert_results_identical(points[0].result, reference)


def gelu_dropout_head():
    """The benchmark's model family: Dense+GELU with private Dropout streams."""
    return transfer_head(
        BLOBS_FEATURES, num_classes=BLOBS_CLASSES, hidden_units=(12,), dropout_rate=0.3, seed=0
    )


def batchnorm_head():
    """Same, plus BatchNorm so the buffer matrix is not empty."""
    model = Sequential(
        [
            Dense(12, activation="gelu", name="bn_dense"),
            BatchNorm(name="bn_norm"),
            Dropout(0.3, seed=5, name="bn_dropout"),
            Dense(BLOBS_CLASSES, name="bn_logits"),
        ],
        name="bn-head",
    )
    model.build((BLOBS_FEATURES,), seed=0)
    return model


def cluster_snapshot(cluster):
    """Everything a cell starts from and its first step: matrices, RNG streams, losses."""
    snapshot = {
        "dtype": cluster.dtype,
        "model_dtypes": [worker.model.dtype for worker in cluster.workers],
        "params": cluster.parameter_matrix.copy(),
        "buffers": cluster.buffer_matrix.copy(),
        "rng": [
            [
                layer._rng.bit_generator.state
                for layer in worker.model.layers
                if hasattr(layer, "_rng")
            ]
            for worker in cluster.workers
        ],
    }
    cluster.step_all()
    snapshot["losses"] = [worker.last_loss for worker in cluster.workers]
    snapshot["params_after"] = cluster.parameter_matrix.copy()
    snapshot["buffers_after"] = cluster.buffer_matrix.copy()
    return snapshot


def assert_snapshots_identical(pooled, eager):
    assert pooled["dtype"] == eager["dtype"]
    assert pooled["model_dtypes"] == eager["model_dtypes"]
    assert pooled["rng"] == eager["rng"]
    assert pooled["losses"] == eager["losses"]
    for name in ("params", "buffers", "params_after", "buffers_after"):
        assert pooled[name].dtype == eager[name].dtype
        np.testing.assert_array_equal(pooled[name], eager[name])


class TestBindingIntoTheCellDtype:
    """``SetupCache.worker_models`` binds pooled skeletons straight into the cell's dtype."""

    DTYPES = ("float32", "float32", "float64", "float32", None)

    @pytest.mark.parametrize("factory", [gelu_dropout_head, batchnorm_head])
    def test_alternating_dtype_cells_equal_eager_builds(self, factory):
        setup = SetupCache()
        for dtype in self.DTYPES:
            config = build_workload(model_factory=factory, num_workers=8, dtype=dtype)
            pooled = cluster_snapshot(build_cluster(config, setup=setup)[0])
            eager = cluster_snapshot(build_cluster(config)[0])
            assert pooled["dtype"] == resolve_dtype(dtype)
            assert_snapshots_identical(pooled, eager)
        assert setup.model_misses == 1  # one pool served every cell

    def test_consecutive_cells_of_one_dtype_convert_nothing(self, monkeypatch):
        real_astype = ParameterPlane.astype
        casts = []

        def spying_astype(plane, dtype):
            if resolve_dtype(dtype) != plane.dtype:
                casts.append(resolve_dtype(dtype).name)
            return real_astype(plane, dtype)

        monkeypatch.setattr(ParameterPlane, "astype", spying_astype)
        setup = SetupCache()
        per_cell = []
        for dtype in self.DTYPES:
            config = build_workload(model_factory=gelu_dropout_head, num_workers=8, dtype=dtype)
            before = len(casts)
            build_cluster(config, setup=setup)
            per_cell.append(len(casts) - before)
        # float64 pool -> float32: K casts; float32 again: none (the parent
        # converted back and forth, 16 a cell at K=8); each dtype switch: K;
        # dtype=None inherits the factory's float64, which the planes are in.
        assert per_cell == [8, 0, 8, 8, 8]


#: The cluster axes a restore must reproduce, as (compression, faults)
#: options: collective compression and fault injection do not compose.
COMPRESSION_OR_FAULTS = [
    {},
    {"compression": CompressionConfig("topk", ratio=0.2, error_feedback=True)},
    {"compression": CompressionConfig("randomk", ratio=0.3, seed=3)},
    {"faults": FaultPlan(crash_rate=0.3, recovery_rounds=2, seed=1)},
    {"faults": FaultPlan(loss_rate=0.3, seed=2)},
]
#: (dtype, topology, timeline dropout, model): with its complement, each row
#: puts both values of every axis beside each compression-or-faults option,
#: and the rows together put every pair of values of two axes side by side.
BINARY_AXES = [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1)]


def restorable_workloads():
    """Ten workloads that pairwise cover the axes a held cluster carries."""
    workloads = []
    for option, bits in zip(COMPRESSION_OR_FAULTS, BINARY_AXES):
        for flip in (0, 1):
            dtype, topology, dropout, model = (bit ^ flip for bit in bits)
            workloads.append(
                build_workload(
                    model_factory=(gelu_dropout_head, batchnorm_head)[model],
                    dtype=("float64", "float32")[dtype],
                    topology=("star", "hierarchical")[topology],
                    dropout_rate=(0.0, 0.25)[dropout],
                    **option,
                )
            )
    return workloads


#: A server round per workload, in turn, where composition allows one.
SERVER_ROUNDS = [
    lambda: FedOptStrategy(FedAdam(learning_rate=0.05)),
    lambda: FedProxStrategy(mu=0.1),
    lambda: ScaffoldStrategy(),
]


def strategies_for(index, workload):
    """Consecutive cells of different strategies on one workload."""
    factories = [
        lambda: FDAStrategy(threshold=0.02, variant="linear", seed=0),
        lambda: FDAStrategy(threshold=0.02, variant="sketch", sketch_depth=3, sketch_width=16),
        lambda: LocalSGDStrategy(tau=3),
    ]
    if not workload.dropout_rate:  # a server round trains every worker
        factories.append(SERVER_ROUNDS[index % len(SERVER_ROUNDS)])
    return factories


class PoisonedFDA(FDAStrategy):
    """LinearFDA whose workers start from an infinite model: its first step diverges."""

    def _setup(self, cluster):
        cluster.parameter_matrix[...] = np.inf
        super()._setup(cluster)


def snapshotting_runs(monkeypatch):
    """Patch ``TrainingRun.execute`` to append what each run's cluster opened
    with (its participants) and its post-run snapshot to a list."""
    snapshots, execute = [], TrainingRun.execute

    def execute_then_snapshot(run, strategy, cluster, *args, **kwargs):
        opened_with = cluster.participants
        result = execute(run, strategy, cluster, *args, **kwargs)
        snapshots.append((opened_with, cluster_snapshot(cluster)))
        return result

    monkeypatch.setattr(TrainingRun, "execute", execute_then_snapshot)
    return snapshots


class TestRestoredCluster:
    """A cell of the previous cell's workload restores that cell's cluster to
    its as-built state instead of building one; the oracle is a fresh build."""

    def test_a_restored_cluster_equals_a_fresh_build(self, monkeypatch):
        workloads = restorable_workloads()
        population = build_workload(
            population=PopulationConfig(num_clients=10, cohort_size=4), num_workers=4
        )
        cells = [
            SweepCell(workload=workload, strategy_factory=factory, run=RUN)
            for index, workload in enumerate(workloads)
            for factory in strategies_for(index, workload)
        ] + [
            SweepCell(workload=population, strategy_factory=factory, run=RUN)
            for factory in strategies_for(0, population)[:2]
        ]
        snapshots = snapshotting_runs(monkeypatch)
        executor = SweepExecutor()
        results = executor.execute(cells)
        restored = snapshots[:]
        del snapshots[:]
        for cell, result, (opened_with, snapshot) in zip(cells, results, restored):
            eager = run_eager(cell.workload, cell.strategy_factory(), cell.run)
            assert result_to_dict(result) == result_to_dict(eager), cell
            eager_opened_with, eager_snapshot = snapshots.pop()
            # A restored cluster has opened no round, as a fresh one has not.
            assert opened_with.mask is None and eager_opened_with.mask is None
            assert_snapshots_identical(snapshot, eager_snapshot)
        # One build per workload; a population cluster is built for every cell.
        assert executor.setup.cluster_misses == len(workloads) + 2
        assert executor.setup.cluster_hits == len(cells) - len(workloads) - 2

    def test_binding_the_pool_drops_the_held_cluster(self):
        # The held cluster's models are the pool's skeletons: a build that
        # rebinds them must not leave the cache holding a cluster it rewrote.
        setup = SetupCache()
        held, _ = build_cluster(build_workload(), setup=setup)
        setup.hold_cluster("workload", held)
        build_cluster(build_workload(seed=1), setup=setup)
        assert setup.restored_cluster("workload") is None

    def test_a_diverged_cell_leaves_nothing_to_the_next(self, tmp_path):
        workload = build_workload(model_factory=batchnorm_head)
        poisoned = SweepCell(
            workload=workload, strategy_factory=lambda: PoisonedFDA(threshold=0.02), run=RUN
        )
        good = [make_cell(workload, theta) for theta in THETAS]
        eager = [run_eager(workload, cell.strategy_factory(), RUN) for cell in good]
        executor = SweepExecutor()
        with pytest.raises(TrainingError):
            executor.execute([good[0], poisoned])
        # The poisoned cluster was released with the failed call; the next cell builds.
        assert_results_identical(executor.execute([good[1]])[0], eager[1])
        assert (executor.setup.cluster_misses, executor.setup.cluster_hits) == (2, 1)
        if fork_parallelism_available():
            # Each cell process holds its own cluster and goes on past a failure.
            parallel = SweepExecutor(cache_dir=tmp_path / "cache", jobs=2)
            with pytest.raises(TrainingError):
                parallel.execute([good[0], poisoned, good[1], good[2]])
            replayed = SweepExecutor(cache_dir=tmp_path / "cache").execute(good)
            for result, reference in zip(replayed, eager):
                assert_results_identical(result, reference)


class TestCrashResume:
    def test_interrupted_sweep_resumes_without_reexecution(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        uninterrupted = sweep_theta(
            build_workload(), THETAS, RUN, executor=SweepExecutor()
        )

        # Kill the sweep after two completed cells (the third raises).
        real_execute = TrainingRun.execute
        calls = {"count": 0}

        def dying_execute(self, *args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 3:
                raise RuntimeError("simulated crash")
            return real_execute(self, *args, **kwargs)

        monkeypatch.setattr(TrainingRun, "execute", dying_execute)
        with pytest.raises(RuntimeError, match="simulated crash"):
            sweep_theta(
                build_workload(), THETAS, RUN, executor=SweepExecutor(cache_dir=cache_dir)
            )
        monkeypatch.setattr(TrainingRun, "execute", real_execute)
        assert len(RunStore(cache_dir)) == 2  # both completed cells are durable

        # Re-invoke: only the lost cell may execute.
        counting = {"count": 0}

        def counting_execute(self, *args, **kwargs):
            counting["count"] += 1
            return real_execute(self, *args, **kwargs)

        monkeypatch.setattr(TrainingRun, "execute", counting_execute)
        executor = SweepExecutor(cache_dir=cache_dir)
        points = sweep_theta(build_workload(), THETAS, RUN, executor=executor)
        assert counting["count"] == 1
        assert executor.stats.cache_hits == 2 and executor.stats.executed == 1
        for point, reference in zip(points, uninterrupted):
            assert_results_identical(point.result, reference.result)

    def test_force_reexecutes_and_shadows(self, tmp_path):
        cache_dir = tmp_path / "cache"
        sweep_theta(build_workload(), THETAS, RUN, executor=SweepExecutor(cache_dir=cache_dir))
        forced = SweepExecutor(cache_dir=cache_dir, force=True)
        sweep_theta(build_workload(), THETAS, RUN, executor=forced)
        assert forced.stats.cache_hits == 0 and forced.stats.executed == len(THETAS)
        # Shadowing appends: 6 lines on disk, 3 resolvable records.
        store = RunStore(cache_dir)
        assert len(store.runs_path.read_text().splitlines()) == 2 * len(THETAS)
        assert len(store) == len(THETAS)

    def test_no_resume_executes_but_still_records(self, tmp_path):
        cache_dir = tmp_path / "cache"
        sweep_theta(build_workload(), THETAS, RUN, executor=SweepExecutor(cache_dir=cache_dir))
        blind = SweepExecutor(cache_dir=cache_dir, resume=False)
        sweep_theta(build_workload(), THETAS, RUN, executor=blind)
        assert blind.stats.cache_hits == 0 and blind.stats.executed == len(THETAS)
        replaying = SweepExecutor(cache_dir=cache_dir)
        sweep_theta(build_workload(), THETAS, RUN, executor=replaying)
        assert replaying.stats.cache_hits == len(THETAS)

    def test_store_from_the_previous_salt_never_replays(self, tmp_path, monkeypatch):
        import repro.experiments.executor as executor_module

        old_salt = "sweep-cache-v1"
        assert CODE_VERSION != old_salt  # GELU results moved in the last bits: v2
        cache_dir = tmp_path / "cache"
        monkeypatch.setattr(executor_module, "CODE_VERSION", old_salt)
        sweep_theta(build_workload(), THETAS, RUN, executor=SweepExecutor(cache_dir=cache_dir))
        monkeypatch.undo()
        runs_path = RunStore(cache_dir).runs_path
        old_lines = runs_path.read_text().splitlines()
        assert len(old_lines) == len(THETAS)

        current = SweepExecutor(cache_dir=cache_dir)
        sweep_theta(build_workload(), THETAS, RUN, executor=current)
        assert current.stats.cache_hits == 0 and current.stats.executed == len(THETAS)
        lines = runs_path.read_text().splitlines()
        assert lines[: len(THETAS)] == old_lines  # old records untouched, new ones appended
        assert len(lines) == 2 * len(THETAS)

        warm = SweepExecutor(cache_dir=cache_dir)
        sweep_theta(build_workload(), THETAS, RUN, executor=warm)
        assert warm.stats.hit_rate == 1.0 and warm.stats.executed == 0


class TestRunStore:
    def test_truncated_tail_line_is_tolerated(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        store.append("key-1", {"value": 1}, label="a")
        store.append("key-2", {"value": 2}, label="b")
        with store.runs_path.open("a", encoding="utf-8") as handle:
            handle.write('{"format": "repro.run-record", "key": "key-3", "resu')
        index = store.load_index()
        assert sorted(index) == ["key-1", "key-2"]

    def test_last_record_wins(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        store.append("key-1", {"value": "old"})
        store.append("key-1", {"value": "new"})
        assert store.load_index()["key-1"]["result"] == {"value": "new"}
        assert len(store) == 1

    def test_refuses_foreign_manifest(self, tmp_path):
        foreign = tmp_path / "other"
        foreign.mkdir()
        (foreign / "manifest.json").write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ExperimentError, match="manifest"):
            RunStore(foreign)

    def test_manifest_is_well_formed(self, tmp_path):
        store = RunStore(tmp_path / "cache")
        manifest = json.loads(store.manifest_path.read_text(encoding="utf-8"))
        assert manifest["format"] == "repro.sweep-cache"
        assert manifest["code_version"] == CODE_VERSION
        assert manifest["runs_file"] == "runs.jsonl"


@pytest.mark.skipif(not fork_parallelism_available(), reason="fork start method unavailable")
class TestParallelExecution:
    def test_parallel_results_bit_identical_to_serial(self, tmp_path):
        serial = sweep_theta(build_workload(), THETAS, RUN, executor=SweepExecutor())
        parallel_executor = SweepExecutor(cache_dir=tmp_path / "cache", jobs=2)
        parallel = sweep_theta(build_workload(), THETAS, RUN, executor=parallel_executor)
        assert parallel_executor.stats.parallel_cells == len(THETAS)
        for left, right in zip(serial, parallel):
            assert_results_identical(left.result, right.result)

    def test_parallel_completions_are_durable(self, tmp_path):
        cache_dir = tmp_path / "cache"
        sweep_theta(
            build_workload(), THETAS, RUN, executor=SweepExecutor(cache_dir=cache_dir, jobs=2)
        )
        replaying = SweepExecutor(cache_dir=cache_dir)
        sweep_theta(build_workload(), THETAS, RUN, executor=replaying)
        assert replaying.stats.cache_hits == len(THETAS)

    def test_pool_is_capped_at_the_core_count(self, tmp_path, monkeypatch):
        import repro.experiments.executor as executor_module

        pool_sizes = []
        real_pool = executor_module.ProcessPoolExecutor

        def recording_pool(max_workers=None, **kwargs):
            pool_sizes.append(max_workers)
            return real_pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", recording_pool)
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 2)
        serial = sweep_theta(build_workload(), THETAS, RUN, executor=SweepExecutor())
        oversubscribed = SweepExecutor(cache_dir=tmp_path / "cache", jobs=8)
        parallel = sweep_theta(build_workload(), THETAS, RUN, executor=oversubscribed)
        assert pool_sizes == [2]  # not min(jobs, cells) == 3
        assert oversubscribed.stats.parallel_cells == len(THETAS)
        for left, right in zip(serial, parallel):
            assert_results_identical(left.result, right.result)


class TestCellValidation:
    def test_rejects_non_cells(self):
        with pytest.raises(ExperimentError, match="SweepCell"):
            SweepExecutor().execute(["not-a-cell"])

    def test_rejects_non_positive_jobs(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="jobs"):
            SweepExecutor(jobs=0)
