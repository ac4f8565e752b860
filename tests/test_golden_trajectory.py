"""Golden-trajectory equivalence: the zero-copy path reproduces the seed path.

The parameter-plane refactor replaced the seed implementation's
gather/copy/scatter hot path (``get_parameters`` → ``optimizer.step`` →
``set_parameters``) with in-place updates on contiguous flat storage.  The
refactor's contract is *bit-identical* training: these tests run the same
workload down both paths (``Worker(inplace=True)`` vs the retained
``inplace=False`` legacy path) and assert exact equality of every worker's
parameters, every per-step variance estimate, and the communication byte
accounting.  A second group proves the optimizer-level equivalence directly:
``step_inplace`` must produce the same bits as ``step`` for every built-in
optimizer configuration.
"""

import numpy as np
import pytest

from repro.core.fda import FDATrainer
from repro.core.monitor import make_monitor
from repro.data.datasets import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.nn.architectures import mlp
from repro.optim.adam import Adam, AdamW
from repro.optim.sgd import SGD


def make_optimizer(kind):
    if kind == "sgd":
        return SGD(0.05)
    if kind == "sgd-nesterov":
        return SGD(0.05, momentum=0.9, nesterov=True, weight_decay=1e-3)
    if kind == "adam":
        return Adam(0.01)
    if kind == "adamw":
        return AdamW(0.01, weight_decay=0.01)
    raise ValueError(kind)


def build_trainer(variant, optimizer_kind, inplace, num_workers=4, **cluster_kwargs):
    rng = np.random.default_rng(7)
    workers = []
    for worker_id in range(num_workers):
        x = rng.normal(size=(40, 6))
        y = rng.integers(0, 3, size=40)
        model = mlp(6, 3, hidden_units=(10,), seed=11)
        workers.append(
            Worker(
                worker_id,
                model,
                Dataset(x, y, 3),
                make_optimizer(optimizer_kind),
                batch_size=8,
                seed=worker_id,
                inplace=inplace,
            )
        )
    cluster = SimulatedCluster(workers, **cluster_kwargs)
    monitor = make_monitor(variant, cluster.model_dimension, seed=3)
    return FDATrainer(cluster, monitor, threshold=0.5)


class TestGoldenTrajectory:
    @pytest.mark.parametrize("variant", ["sketch", "linear"])
    @pytest.mark.parametrize("optimizer_kind", ["sgd-nesterov", "adam"])
    def test_inplace_path_is_bit_identical_to_copy_path(self, variant, optimizer_kind):
        steps = 25
        legacy = build_trainer(variant, optimizer_kind, inplace=False)
        modern = build_trainer(variant, optimizer_kind, inplace=True)

        legacy_results = legacy.run_steps(steps)
        modern_results = modern.run_steps(steps)

        # Bit-identical parameters on every worker.
        np.testing.assert_array_equal(
            legacy.cluster.parameter_matrix, modern.cluster.parameter_matrix
        )
        # Bit-identical variance estimates at every step.
        np.testing.assert_array_equal(
            np.array([r.variance_estimate for r in legacy_results]),
            np.array([r.variance_estimate for r in modern_results]),
        )
        # Identical protocol decisions and byte accounting.
        assert [r.synchronized for r in legacy_results] == [
            r.synchronized for r in modern_results
        ]
        assert legacy.cluster.total_bytes == modern.cluster.total_bytes
        assert legacy.synchronization_count == modern.synchronization_count

    def test_exact_variant_matches_too(self):
        legacy = build_trainer("exact", "sgd", inplace=False)
        modern = build_trainer("exact", "sgd", inplace=True)
        legacy.run_steps(15)
        modern.run_steps(15)
        np.testing.assert_array_equal(
            legacy.cluster.parameter_matrix, modern.cluster.parameter_matrix
        )
        assert legacy.cluster.total_bytes == modern.cluster.total_bytes


class TestGoldenMaskedTrajectory:
    """Frozen fixture for a ``dropout_rate=0.25`` FDA run on *both* engines.

    Freezes the masked-execution semantics — which workers participate each
    step (the timeline's mask stream), which steps synchronize, the byte
    total, and the per-worker step counts — as literal constants, so a future
    refactor that silently changes RNG consumption, mask threading, or the
    sync bookkeeping under partial participation fails loudly here.  The
    frozen integers are platform-exact; float probes use a loose tolerance
    (the variance estimates stay ≥ 0.04 away from Θ, so BLAS differences
    cannot flip a frozen decision).
    """

    #: Per-step participating-worker counts from Timeline(6, dropout=0.25, seed=2026).
    GOLDEN_ACTIVE = [5, 5, 6, 4, 5, 5, 6, 4, 6, 5, 5, 5, 5, 4, 5, 5, 4, 5, 5, 3,
                     5, 6, 5, 5, 3, 4, 5, 3, 4, 4]
    #: 1-based steps whose variance estimate exceeded Θ=0.5.
    GOLDEN_SYNC_STEPS = [12, 22]
    GOLDEN_TOTAL_BYTES = 20640
    GOLDEN_STEPS_PERFORMED = [23, 24, 22, 25, 25, 22]
    GOLDEN_FIRST_LOSS = 1.2080946490946594
    GOLDEN_LAST_ESTIMATE = 0.32483190113175

    @pytest.mark.parametrize("execution", ["sequential", "batched"])
    def test_masked_fda_run_matches_frozen_observables(self, execution):
        from helpers.parity import make_cluster

        cluster = make_cluster(
            execution,
            num_workers=6,
            dropout_rate=0.25,
            timeline_seed=2026,
            optimizer_factory=lambda worker_id: SGD(
                0.05, momentum=0.9, nesterov=True, weight_decay=1e-3
            ),
        )
        trainer = FDATrainer(
            cluster, make_monitor("linear", cluster.model_dimension, seed=3), 0.5
        )
        results = trainer.run_steps(30)
        assert [r.active_workers for r in results] == self.GOLDEN_ACTIVE
        assert [r.step for r in results if r.synchronized] == self.GOLDEN_SYNC_STEPS
        assert cluster.total_bytes == self.GOLDEN_TOTAL_BYTES
        assert [w.steps_performed for w in cluster.workers] == self.GOLDEN_STEPS_PERFORMED
        np.testing.assert_allclose(
            results[0].mean_loss, self.GOLDEN_FIRST_LOSS, rtol=1e-6
        )
        np.testing.assert_allclose(
            results[-1].variance_estimate, self.GOLDEN_LAST_ESTIMATE, rtol=1e-3
        )


class TestFabricDefaultEquivalence:
    """The topology-aware fabric must not perturb the paper's default setting.

    With the defaults — star topology, naive cost model, no network model, an
    unperturbed timeline — byte counts and parameter trajectories must be
    bit-identical to the pre-fabric implementation, whose per-step accounting
    is reproduced here in closed form.
    """

    def test_explicit_star_fabric_matches_implicit_default(self):
        steps = 25
        implicit = build_trainer("linear", "adam", inplace=True)
        explicit = build_trainer(
            "linear", "adam", inplace=True, topology="star", network="none"
        )
        implicit_results = implicit.run_steps(steps)
        explicit_results = explicit.run_steps(steps)
        np.testing.assert_array_equal(
            implicit.cluster.parameter_matrix, explicit.cluster.parameter_matrix
        )
        assert implicit.cluster.total_bytes == explicit.cluster.total_bytes
        assert [r.communication_bytes for r in implicit_results] == [
            r.communication_bytes for r in explicit_results
        ]

    @pytest.mark.parametrize("variant", ["sketch", "linear", "exact"])
    def test_default_byte_counts_match_the_seed_closed_form(self, variant):
        steps = 20
        trainer = build_trainer(variant, "sgd", inplace=True)
        trainer.run_steps(steps)
        cluster = trainer.cluster
        d, K = cluster.model_dimension, cluster.num_workers
        # Pre-refactor accounting: one state AllReduce per step plus one
        # full-model AllReduce per triggered synchronization (the mlp has no
        # buffers, so each sync is exactly one collective), priced at the
        # float64 plane's 8 B/element by the itemsize-accurate default model.
        state_elements = trainer.state_elements_per_step
        expected_state = steps * state_elements * 8 * K
        expected_model = trainer.synchronization_count * d * 8 * K
        assert cluster.tracker.bytes_for("fda-state") == expected_state
        assert cluster.tracker.bytes_for("model-sync") == expected_model
        assert cluster.total_bytes == expected_state + expected_model

    def test_default_timeline_is_a_pure_observer(self):
        # The clock ticks, but consumes no randomness and charges no traffic.
        steps = 15
        trainer = build_trainer("linear", "adam", inplace=True)
        results = trainer.run_steps(steps)
        assert trainer.cluster.virtual_time == pytest.approx(float(steps))
        assert trainer.cluster.timeline.comm_seconds == 0.0
        assert results[-1].virtual_time == pytest.approx(float(steps))


class TestOptimizerInplaceEquivalence:
    @pytest.mark.parametrize(
        "kind", ["sgd", "sgd-nesterov", "adam", "adamw"]
    )
    def test_step_inplace_matches_step_bitwise(self, kind):
        rng = np.random.default_rng(0)
        start = rng.normal(size=257)
        copy_opt = make_optimizer(kind)
        inplace_opt = make_optimizer(kind)

        params_copy = start.copy()
        params_inplace = start.copy()
        gradient_rng = np.random.default_rng(1)
        for _ in range(50):
            grads = gradient_rng.normal(size=start.shape)
            params_copy = copy_opt.step(params_copy, grads)
            returned = inplace_opt.step_inplace(params_inplace, grads)
            assert returned is params_inplace  # updates land in the given array
            np.testing.assert_array_equal(params_copy, params_inplace)

    def test_step_inplace_does_not_mutate_gradients(self):
        for kind in ("sgd-nesterov", "adamw"):
            optimizer = make_optimizer(kind)
            params = np.ones(16)
            grads = np.full(16, 0.5)
            grads_before = grads.copy()
            optimizer.step_inplace(params, grads)
            np.testing.assert_array_equal(grads, grads_before)

    def test_step_inplace_rejects_non_float_params(self):
        # An asarray copy would silently swallow the in-place update.  Both
        # plane dtypes are accepted; everything else (lists, integer arrays,
        # mixed param/grad dtypes) must raise instead of silently converting.
        from repro.exceptions import ShapeError

        params32 = np.ones(4, dtype=np.float32)
        SGD(0.1).step_inplace(params32, np.ones(4, dtype=np.float32))
        assert params32.dtype == np.float32

        with pytest.raises(ShapeError):
            SGD(0.1).step_inplace([1.0, 2.0], np.ones(2))
        with pytest.raises(ShapeError):
            SGD(0.1).step_inplace(np.ones(4, dtype=np.int64), np.ones(4))
        with pytest.raises(ShapeError):
            SGD(0.1).step_inplace(np.ones(4, dtype=np.float32), np.ones(4))

    def test_step_inplace_revalidates_on_gradient_shape_change(self):
        from repro.exceptions import ShapeError

        optimizer = Adam(0.01)
        params = np.zeros(4)
        optimizer.step_inplace(params, np.ones(4))
        with pytest.raises(ShapeError):
            optimizer.step_inplace(params, np.ones(1))  # would broadcast silently

    def test_momentum_sgd_converges_inplace(self):
        optimizer = SGD(0.05, momentum=0.9)
        params = np.array([10.0, -4.0])
        target = np.full_like(params, 3.0)
        for _ in range(300):
            optimizer.step_inplace(params, 2.0 * (params - target))
        np.testing.assert_allclose(params, 3.0, atol=1e-3)


class TestGoldenPopulationTrajectory:
    """Frozen fixture for a weighted-aggregation FDA run over N=10⁵ clients.

    The population plane multiplexes 100 000 logical clients onto a 16-slot
    cohort with data-size aggregation weights: each round draws a fresh seeded
    cohort, binds it onto the batched (A, d) path, and FDA's triggered syncs
    weight the model average by shard size.  This fixture freezes the full
    protocol surface of that run — which rounds synchronize, the byte ledger
    split (per-step FDA state vs triggered weighted model syncs), how many
    distinct clients became stateful, the per-client step-count multiset (as
    a sha256 digest — 479 entries are too many for literals), and the store's
    resident high-water mark — so refactors of cohort sampling, the
    directory's virtual-shard streams, snapshot overlay, or the weighted
    collectives fail loudly here.  Integer observables are platform-exact;
    sync decisions were verified stable under a ±5 % threshold sweep, far
    beyond BLAS reassociation noise, and the loss probe uses a loose rtol.
    """

    GOLDEN_SYNC_ROUNDS = [1, 29]
    GOLDEN_TOTAL_BYTES = 55040
    GOLDEN_STATE_BYTES = 7680    # 30 rounds × 16 workers × 2 els × 8 B
    GOLDEN_MODEL_BYTES = 47360   # 2 weighted syncs × 16 workers × d × 8 B
    #: 480 cohort slots drew 479 distinct clients (one repeat → steps == 2).
    GOLDEN_STATEFUL_CLIENTS = 479
    GOLDEN_TOTAL_CLIENT_STEPS = 480
    GOLDEN_MAX_CLIENT_STEPS = 2
    #: sha256 over "id:steps" pairs in ascending client order.
    GOLDEN_STEPS_DIGEST = (
        "36f0bd2840e75e9e5d443aa0b0c72c95ed193c8f66229f76b84ef346477455e4"
    )
    GOLDEN_FIRST_LOSS = 1.2066481507864428

    def test_weighted_population_fda_matches_frozen_observables(self):
        import hashlib

        from helpers.parity import make_cluster
        from repro.data.synthetic import gaussian_blobs
        from repro.population import ClientPopulation, PopulationConfig
        from repro.strategies.fda_strategy import FDAStrategy

        train = gaussian_blobs(600, feature_dim=6, num_classes=3, seed=0)
        config = PopulationConfig(
            num_clients=100_000,
            cohort_size=16,
            weighting="data-size",
            min_client_samples=24,
            max_client_samples=48,
        )
        cluster = make_cluster("batched", num_workers=16)
        strategy = FDAStrategy(threshold=0.01).attach(cluster)
        population = ClientPopulation(config, train_dataset=train, seed=2026)
        population.attach(cluster, strategy)

        results = [population.run_round() for _ in range(30)]

        assert [
            i + 1 for i, r in enumerate(results) if r.synchronized
        ] == self.GOLDEN_SYNC_ROUNDS
        assert cluster.tracker.bytes_for("fda-state") == self.GOLDEN_STATE_BYTES
        assert cluster.tracker.bytes_for("model-sync") == self.GOLDEN_MODEL_BYTES
        assert cluster.total_bytes == self.GOLDEN_TOTAL_BYTES
        # Data-size weights were in force for the triggered syncs.
        assert cluster.members.weights is not None

        steps = population.client_steps
        assert population.store.stateful_count == self.GOLDEN_STATEFUL_CLIENTS
        assert sum(steps.values()) == self.GOLDEN_TOTAL_CLIENT_STEPS
        assert max(steps.values()) == self.GOLDEN_MAX_CLIENT_STEPS
        digest = hashlib.sha256(
            ",".join(f"{cid}:{steps[cid]}" for cid in sorted(steps)).encode()
        ).hexdigest()
        assert digest == self.GOLDEN_STEPS_DIGEST
        # Resident state is bounded by the cohort (2·C), never by N.
        assert population.peak_resident_clients <= 2 * config.cohort_size
        np.testing.assert_allclose(
            results[0].mean_loss, self.GOLDEN_FIRST_LOSS, rtol=1e-6
        )
