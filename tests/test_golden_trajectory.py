"""Golden trajectories: the optimizer's one rule reproduces the seed path.

The parameter-plane refactor replaced the seed implementation's
gather/copy/scatter hot path (``get_parameters`` → ``optimizer.step`` →
``set_parameters``) with in-place updates on contiguous flat storage, under a
*bit-identical training* contract that was proven for sixteen PRs by running
both paths side by side.  The copy path is gone now — every optimizer's
arithmetic is one ``(A, d)`` row rule — so the contract is kept the other
way: ``GOLDEN`` freezes what the retired ``Worker(inplace=False)`` trainer
produced at its last commit (a digest of every worker's parameters, every
per-step variance estimate to the last digit, the synchronizing steps and the
byte accounting), and the engine — and the per-worker oracle beside it —
must still match it.  A second group keeps the optimizer-level proof: the
rule, stepped as the one row of a stack, must produce the same bits as the
textbook expressions in :mod:`helpers.reference_optim`, the independent
oracle the copy path's bodies became.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from helpers.per_worker import SIDES, on_side, solo_step
from helpers.ungated import UngatedFDATrainer
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


def build_trainer(
    variant,
    optimizer_kind,
    num_workers=4,
    trainer_class=FDATrainer,
    side="batched",
    **cluster_kwargs,
):
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
                batch_size=8,
                seed=worker_id,
            )
        )
    cluster = on_side(
        side, SimulatedCluster(workers, make_optimizer(optimizer_kind), **cluster_kwargs)
    )
    monitor = make_monitor(variant, cluster.model_dimension, seed=3)
    return trainer_class(cluster, monitor, threshold=0.5)


#: What the ``Worker(inplace=False)`` copy-path trainer produced at the last
#: commit that had one (PR 16, 80b920d), recorded before the path was deleted:
#: 25 steps for the {sketch, linear} × {sgd-nesterov, adam} cells, 15 for the
#: exact × sgd cell.  Every worker's parameters as a sha256 of
#: ``parameter_matrix.tobytes()``, the ``repr`` digits of every per-step
#: variance estimate, the 1-based synchronizing steps, and the byte ledger.
#: Recorded when every step exchanged states, ``estimates`` is the exchange's
#: ``H`` at every step (what the ungated oracle still computes, and what the
#: gated trainer reports on the steps it exchanges) and ``ungated_total_bytes``
#: its ledger.  ``quiet_steps``, ``bounds`` (the mean ‖u‖² a quiet step
#: reports) and ``total_bytes`` were recorded when quiet steps stopped sending
#: their states; parameters and sync steps did not move.
GOLDEN = {
    "sketch-sgd-nesterov": {
        "parameters_sha256": (
            "9c9d07e3431937ac825918a9a304353fbbf8b25764e1d4ddcb43ffc231fbeb7b"
        ),
        "estimates": [
            "0.00727891911744904",
            "0.025084804432341887",
            "0.06257010065467729",
            "0.10705411483812569",
            "0.16248197759967126",
            "0.23748966559980378",
            "0.33009808077773894",
            "0.4500119600363558",
            "0.5747207593485879",
            "0.01686736507440096",
            "0.06570542662361266",
            "0.13408425215518957",
            "0.2313561967794594",
            "0.33910227139877924",
            "0.4728730403022896",
            "0.606660742738608",
            "0.016595557140996038",
            "0.056352508397868165",
            "0.11614022876760878",
            "0.19975989036025588",
            "0.31410349642490926",
            "0.4390195545339005",
            "0.5879843371314106",
            "0.015548165070327807",
            "0.05887074195604734",
        ],
        "sync_steps": [9, 16, 23],
        "quiet_steps": [1, 2, 3, 4, 10, 11, 12, 13, 17, 18, 19, 20, 21, 24, 25],
        "bounds": [
            "0.014721908778361482",
            "0.05669635392237034",
            "0.1506587837807318",
            "0.2789829777808266",
            "0.02654196241744156",
            "0.09545353180322211",
            "0.18963803200306512",
            "0.32127871510779515",
            "0.01968911664990485",
            "0.06862627182976677",
            "0.14119271503143083",
            "0.24772038343227365",
            "0.3901032963329829",
            "0.018561734573195772",
            "0.06840646536551553",
        ],
        "total_bytes": 410208,
        "ungated_total_bytes": 1010688,
        "sync_count": 3,
    },
    "sketch-adam": {
        "parameters_sha256": (
            "aa9cb8776d5f84d0c575de8461214c0f4538e7bf2c857af63bd8a4dd3baebfb8"
        ),
        "estimates": [
            "0.006249425921833888",
            "0.01502625765919056",
            "0.02625987185400938",
            "0.037504793861748216",
            "0.05134135905601975",
            "0.06582461392709325",
            "0.082064620302566",
            "0.1003970424607986",
            "0.11949807532068327",
            "0.14012277867829584",
            "0.16194081009181807",
            "0.18408820380838062",
            "0.20670864368712982",
            "0.23120205867040267",
            "0.2567466351526169",
            "0.2833825138055406",
            "0.3092160235233128",
            "0.3358559143408127",
            "0.3623462193645334",
            "0.3901380604243272",
            "0.41842980676981834",
            "0.4471696128793501",
            "0.47722105224371014",
            "0.5086639751804608",
            "0.0009241240204833415",
        ],
        "sync_steps": [24],
        "quiet_steps": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 25],
        "bounds": [
            "0.010299818148469843",
            "0.027524379719793823",
            "0.05035977643555342",
            "0.07741755608718721",
            "0.1086806792915237",
            "0.14142045825374228",
            "0.17806769325831495",
            "0.2172227687375512",
            "0.25817375396631864",
            "0.30353238868584215",
            "0.35115276150674096",
            "0.4008129062401996",
            "0.4522906272648497",
            "0.0014444145606546635",
        ],
        "total_bytes": 443648,
        "ungated_total_bytes": 1004096,
        "sync_count": 1,
    },
    "linear-sgd-nesterov": {
        "parameters_sha256": (
            "49573de76d5661f4c435b23c64b54c214e8a6a46a2e08225e09c3491b22273a3"
        ),
        "estimates": [
            "0.01472184721449747",
            "0.056665550618176824",
            "0.15059142614811585",
            "0.2788252623393839",
            "0.44026628675789536",
            "0.6429393351174655",
            "0.016332651236609534",
            "0.06382743734654565",
            "0.13657206631863164",
            "0.24392137122461363",
            "0.38705146981230953",
            "0.5288745834180922",
            "0.019236400863438786",
            "0.0695471124281011",
            "0.1505059828511722",
            "0.24972890335713527",
            "0.3732694224883336",
            "0.5281694245679782",
            "0.015624146727231766",
            "0.06614997656501029",
            "0.15798856880884293",
            "0.27409328660255566",
            "0.4291390427804004",
            "0.5924866363981058",
            "0.01707212480901158",
        ],
        "sync_steps": [6, 12, 18, 24],
        "quiet_steps": [1, 2, 3, 4, 7, 8, 9, 10, 13, 14, 15, 16, 17, 19, 20, 21, 22, 23, 25],
        "bounds": [
            "0.014721908778361482",
            "0.05669635392237034",
            "0.1506587837807318",
            "0.2789829777808266",
            "0.027006107388870087",
            "0.09597967077579517",
            "0.20028672514552864",
            "0.35283973092459575",
            "0.023045175987464174",
            "0.08103708574741249",
            "0.17804720210729683",
            "0.29804087001346224",
            "0.43803668197412715",
            "0.017287042291618496",
            "0.06999209079844723",
            "0.16482853703733114",
            "0.2859759677250059",
            "0.4447251901479257",
            "0.018575233616957416",
        ],
        "total_bytes": 13568,
        "ungated_total_bytes": 14784,
        "sync_count": 4,
    },
    "linear-adam": {
        "parameters_sha256": (
            "72f86e724f4121342659986c124e5274f175e07a789f98b68d43a286335e80fd"
        ),
        "estimates": [
            "0.010280079209926277",
            "0.027518243639114173",
            "0.050353581562436654",
            "0.07741493694469094",
            "0.10867992190625958",
            "0.14140278787100388",
            "0.17800983863482564",
            "0.21712795142915056",
            "0.2580192240390736",
            "0.3033132149018417",
            "0.350848452864778",
            "0.4004167201669957",
            "0.4518111180258608",
            "0.5044501414089401",
            "0.001236826320079767",
            "0.004935703163194802",
            "0.010907759116332787",
            "0.018752165862879415",
            "0.02847929767884327",
            "0.03966767021152538",
            "0.05340122846345568",
            "0.06947739788845898",
            "0.08767520053077182",
            "0.10753112530949052",
            "0.12906497114278953",
        ],
        "sync_steps": [14],
        "quiet_steps": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25],
        "bounds": [
            "0.010299818148469843",
            "0.027524379719793823",
            "0.05035977643555342",
            "0.07741755608718721",
            "0.1086806792915237",
            "0.14142045825374228",
            "0.17806769325831495",
            "0.2172227687375512",
            "0.25817375396631864",
            "0.30353238868584215",
            "0.35115276150674096",
            "0.4008129062401996",
            "0.4522906272648497",
            "0.002186804575947414",
            "0.008766959862064456",
            "0.019261254742663887",
            "0.03304013561489029",
            "0.049681443600579286",
            "0.0684672626290693",
            "0.09024694202305303",
            "0.1152810885224346",
            "0.14243923942494777",
            "0.1719883246911351",
            "0.20380698558434596",
        ],
        "total_bytes": 3360,
        "ungated_total_bytes": 4896,
        "sync_count": 1,
    },
    "exact-sgd": {
        "parameters_sha256": (
            "b338d957e08a527d28a715a5b8baa8a5173fbb09dc1d9dcaa90536632ee55925"
        ),
        "estimates": [
            "0.00177513060002873",
            "0.004237748565215229",
            "0.008450508028359447",
            "0.009583552045286312",
            "0.012710239684195157",
            "0.017052931832808003",
            "0.019576944362504872",
            "0.025873958627976264",
            "0.030202487418864776",
            "0.03713493273417559",
            "0.04291770111006833",
            "0.04696564258264849",
            "0.05398186791561832",
            "0.05914096720019185",
            "0.0708055020166248",
        ],
        "sync_steps": [],
        "quiet_steps": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        "bounds": [
            "0.0040712590354529165",
            "0.01088487744852623",
            "0.023405097689840722",
            "0.033600992539895944",
            "0.045298357700413724",
            "0.06073435411184986",
            "0.07446914802046876",
            "0.08727976596722485",
            "0.10124661980716598",
            "0.1267470314791582",
            "0.1434121541235304",
            "0.15993324684222354",
            "0.1836969240854575",
            "0.20089626971203817",
            "0.23515926479855592",
        ],
        "total_bytes": 0,
        "ungated_total_bytes": 49920,
        "sync_count": 0,
    },
}


def assert_matches_golden(variant, optimizer_kind, steps, side):
    golden = GOLDEN[f"{variant}-{optimizer_kind}"]
    trainer = build_trainer(variant, optimizer_kind, side=side)
    results = trainer.run_steps(steps)
    # Bit-identical parameters on every worker.
    assert (
        hashlib.sha256(trainer.cluster.parameter_matrix.tobytes()).hexdigest()
        == golden["parameters_sha256"]
    )
    # Bit-identical variance estimates at every step: H where the step
    # exchanged, the mean ‖u‖² bound where it was quiet.
    quiet = [r.step for r in results if not r.exchanged]
    assert quiet == golden["quiet_steps"]
    assert [repr(r.variance_estimate) for r in results if r.exchanged] == [
        estimate for step, estimate in enumerate(golden["estimates"], 1) if step not in quiet
    ]
    assert [repr(r.variance_estimate) for r in results if not r.exchanged] == golden["bounds"]
    # Identical protocol decisions and byte accounting.
    assert [r.step for r in results if r.synchronized] == golden["sync_steps"]
    assert trainer.cluster.total_bytes == golden["total_bytes"]
    assert trainer.synchronization_count == golden["sync_count"]
    # The ungated oracle still computes H at every step, on the same path.
    oracle = build_trainer(
        variant, optimizer_kind, trainer_class=UngatedFDATrainer, side=side
    )
    expected = oracle.run_steps(steps)
    assert [repr(r.variance_estimate) for r in expected] == golden["estimates"]
    assert oracle.cluster.total_bytes == golden["ungated_total_bytes"]
    assert oracle.cluster.parameter_matrix.tobytes() == trainer.cluster.parameter_matrix.tobytes()


class TestGoldenTrajectory:
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("variant", ["sketch", "linear"])
    @pytest.mark.parametrize("optimizer_kind", ["sgd-nesterov", "adam"])
    def test_inplace_path_is_bit_identical_to_copy_path(self, variant, optimizer_kind, side):
        assert_matches_golden(variant, optimizer_kind, steps=25, side=side)

    @pytest.mark.parametrize("side", SIDES)
    def test_exact_variant_matches_too(self, side):
        assert_matches_golden("exact", "sgd", steps=15, side=side)


class TestGoldenMaskedTrajectory:
    """Frozen fixture for a ``dropout_rate=0.25`` FDA run, engine and oracle.

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
    #: 1-based steps that exchanged states (the others were quiet and sent
    #: nothing).
    GOLDEN_EXCHANGED_STEPS = [9, 10, 11, 12, 20, 21, 22, 30]
    GOLDEN_TOTAL_BYTES = 18528
    GOLDEN_STEPS_PERFORMED = [23, 24, 22, 25, 25, 22]
    GOLDEN_FIRST_LOSS = 1.2080946490946594
    GOLDEN_LAST_ESTIMATE = 0.32483190113175

    @pytest.mark.parametrize("side", SIDES)
    def test_masked_fda_run_matches_frozen_observables(self, side):
        from helpers.parity import make_cluster

        cluster = make_cluster(
            side,
            num_workers=6,
            dropout_rate=0.25,
            timeline_seed=2026,
            optimizer_factory=lambda: SGD(
                0.05, momentum=0.9, nesterov=True, weight_decay=1e-3
            ),
        )
        trainer = FDATrainer(
            cluster, make_monitor("linear", cluster.model_dimension, seed=3), 0.5
        )
        results = trainer.run_steps(30)
        assert [r.active_workers for r in results] == self.GOLDEN_ACTIVE
        assert [r.step for r in results if r.synchronized] == self.GOLDEN_SYNC_STEPS
        assert [r.step for r in results if r.exchanged] == self.GOLDEN_EXCHANGED_STEPS
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

    With the defaults — star topology, no network model, an unperturbed
    timeline — byte counts and parameter trajectories must be bit-identical
    to the pre-fabric implementation, whose per-step accounting is
    reproduced here in closed form.
    """

    def test_explicit_star_fabric_matches_implicit_default(self):
        steps = 25
        implicit = build_trainer("linear", "adam")
        explicit = build_trainer(
            "linear", "adam", topology="star", network="none"
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

    @pytest.mark.parametrize("threshold", [0.5, 0.02])
    @pytest.mark.parametrize("variant", ["sketch", "linear", "exact"])
    def test_default_byte_counts_match_the_seed_closed_form(self, variant, threshold):
        steps = 20
        for trainer_class in (FDATrainer, UngatedFDATrainer):
            trainer = build_trainer(variant, "sgd", trainer_class=trainer_class)
            trainer.threshold = threshold
            results = trainer.run_steps(steps)
            cluster = trainer.cluster
            d, K = cluster.model_dimension, cluster.num_workers
            # Pre-refactor accounting: one state AllReduce per exchanging
            # step — every step without the gate, none on a quiet step —
            # plus one full-model AllReduce per triggered synchronization (the
            # mlp has no buffers, so each sync is exactly one collective),
            # priced at the float64 plane's 8 B/element by the
            # itemsize-accurate default model.
            exchanged = sum(r.exchanged for r in results)
            if trainer_class is UngatedFDATrainer:
                assert exchanged == steps
            state_elements = trainer.state_elements_per_step
            expected_state = exchanged * state_elements * 8 * K
            expected_model = trainer.synchronization_count * d * 8 * K
            assert cluster.tracker.bytes_for("fda-state") == expected_state
            assert cluster.tracker.bytes_for("model-sync") == expected_model
            assert cluster.total_bytes == expected_state + expected_model

    def test_default_timeline_is_a_pure_observer(self):
        # The clock ticks, but consumes no randomness and charges no traffic.
        steps = 15
        trainer = build_trainer("linear", "adam")
        results = trainer.run_steps(steps)
        assert trainer.cluster.virtual_time == pytest.approx(float(steps))
        assert trainer.cluster.fabric.comm_seconds == 0.0
        assert results[-1].virtual_time == pytest.approx(float(steps))


class TestOptimizerRuleEquivalence:
    @pytest.mark.parametrize(
        "kind", ["sgd", "sgd-nesterov", "adam", "adamw"]
    )
    def test_a_stacked_row_matches_the_reference_bitwise(self, kind):
        from helpers.reference_optim import reference_for

        rng = np.random.default_rng(0)
        start = rng.normal(size=257)
        row_opt = make_optimizer(kind)
        copy_opt = reference_for(make_optimizer(kind))

        params_copy = start.copy()
        params_row = start.copy()
        gradient_rng = np.random.default_rng(1)
        for _ in range(50):
            grads = gradient_rng.normal(size=start.shape)
            params_copy = copy_opt.step(params_copy, grads)
            params_row = solo_step(row_opt, params_row, grads)
            np.testing.assert_array_equal(params_copy, params_row)

    def test_a_step_does_not_mutate_gradients(self):
        for kind in ("sgd-nesterov", "adamw"):
            optimizer = make_optimizer(kind)
            grads = np.full(16, 0.5)
            grads_before = grads.copy()
            solo_step(optimizer, np.ones(16), grads)
            np.testing.assert_array_equal(grads, grads_before)

    def test_momentum_sgd_converges(self):
        optimizer = SGD(0.05, momentum=0.9)
        params = np.array([10.0, -4.0])
        target = np.full_like(params, 3.0)
        for _ in range(300):
            params = solo_step(optimizer, params, 2.0 * (params - target))
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
    #: Round 24 is quiet (every row inside Θ), so it sends no states.
    GOLDEN_QUIET_ROUNDS = [24]
    GOLDEN_TOTAL_BYTES = 54784
    GOLDEN_STATE_BYTES = 7424    # 29 exchanging rounds × 16 workers × 2 els × 8 B
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
        fda_results, fda_step = [], strategy.trainer.step

        def recorded_step():
            fda_results.append(fda_step())
            return fda_results[-1]

        strategy.trainer.step = recorded_step
        results = [population.run_round() for _ in range(30)]

        assert [
            i + 1 for i, r in enumerate(results) if r.synchronized
        ] == self.GOLDEN_SYNC_ROUNDS
        assert [r.step for r in fda_results if not r.exchanged] == self.GOLDEN_QUIET_ROUNDS
        assert cluster.tracker.operations_for("fda-state") == 30 - len(self.GOLDEN_QUIET_ROUNDS)
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


class TestGoldenCompressedTrajectory:
    """Frozen compressed trajectories: which coordinates travel.

    The compression parity suites compare the two engines with each other, and
    both call the same kernel — so a kernel rewrite that changed *which*
    coordinates a sparsifier keeps would pass them all.  The parameter,
    residual and ledger literals were recorded at c2fb04b, the last commit
    whose sparsifying kernels partitioned the whole ``(K, d)`` matrix in one
    ``argpartition(..., axis=1)`` call: ``LocalSGDStrategy(tau=1)`` for 12
    steps on the blobs workload, one compressed collective per step.  Per cell:
    a running sha256 over every sync's kept *sets*
    (``np.sort(payloads.indices, axis=1).tobytes()``, recorded at 79c59dd, the
    last commit that selected by ``argpartition`` alone), the sha256 of the
    final parameter and residual matrices, and the byte ledger.  Both engines
    produced the same digits in every cell, so each literal is asserted on
    both.

    The order a row's pairs are emitted in is *not* frozen for the magnitude
    sparsifiers, because it cannot reach a number: a row keeps a coordinate at
    most once, so ``SparseRowPayloads.mean``'s scatter-add gives coordinate
    ``j`` at most one addend per row and meets the rows in row order whatever
    the order inside them (``test_mean_ignores_the_order_inside_a_row``).
    Random-k's coordinates come from a frozen draw stream, so its emission
    order stays pinned too (``RANDOMK_ORDERED``).
    """

    STEPS = 12

    #: sha256 over every sync's ``payloads.indices.tobytes()`` of a random-k
    #: cell, order included; the draws ignore the data, so all four cells agree.
    RANDOMK_ORDERED = "8aedc3b18d3802022e138b6a36bd24048e79314755c3b1e395be4c9fdb69374b"

    #: (kernel, error feedback, dtype) -> (kept sets, parameters, residuals, bytes)
    GOLDEN = {
        ("topk", True, "float64"): (
            "8aa17ba4da27a16e3bc46e8f36cc828b5096e9b3ff3fd9f7877136924b9e8ab0",
            "767e4f87200d22b20377834a4f34f473846696b0988d4f71396628f5102a7ada",
            "9f79ac73243a0b8cfde1e367588ba5f4e7f034ef59fd0bbddd1c5c90ee0ce1fb",
            15360,
        ),
        ("topk", True, "float32"): (
            "5ae0913441738a7650132b89b559605307e0317816d1f5aa7886bde5f8535de0",
            "4068e43283dd6ae2185d402715bc21d3606c29a6abe0941d05ad035c48a6c33f",
            "447c6a5853c6192c68c5982288bf1959191d78756facbbf7b2c310c68e516b93",
            7680,
        ),
        ("topk", False, "float64"): (
            "7c7983c938e2dfedab9f2ab09a1cabdc6c0bf1e8507380bae53ee0377591ce50",
            "91d93e31a8ff787effdc012faa77a0a9a60a42eea89bd45b09e28292823af108",
            None,
            15360,
        ),
        ("topk", False, "float32"): (
            "4166677069600e8c2a87bbcc4277411c2e196c89fba6f54ceb7054d8c2faec3c",
            "39fd18f4a9283b43fa77509e94b316310595688da182e8334a2b63b37f7b4b94",
            None,
            7680,
        ),
        ("layerwise-topk", True, "float64"): (
            "9379cbe2acb910d5a71745b29bb796bc6e017edaf37ee3ccc2285c11c753a304",
            "f937fc807bf7f4cb6373b52101b43796fd9e17c0f145ed6fa397a54d4eefed89",
            "adb7188966f8b753ea0eda88ebeb6616bd29a410617c0f6647957541afcdd9d9",
            16128,
        ),
        ("layerwise-topk", True, "float32"): (
            "32c70e8a3eea4f59a1391a26d36dbf9f8c09cb726d0168631d946b3ababe3506",
            "46a46c8ff103da6a2b9093522c86f510a77324d4370317ba0ae6d155754dd2f6",
            "4e88d7e192573ab3e7b9ef4ac94f07f4c8787efb0ef58e8858cdabf07c7e5cb8",
            8064,
        ),
        ("layerwise-topk", False, "float64"): (
            "e9d15e1fb0fd5a95a4418044f63268e835cf9fc953f4bceed52526ca5ad19978",
            "2ce8c698fcdf285e2664475bd3bc6974485be63ef22bc799bcf91676ed72928f",
            None,
            16128,
        ),
        ("layerwise-topk", False, "float32"): (
            "0dd77719aa19c21a42bc4e67b2f73de44f364aa2f922ac2cd1377b32f538f671",
            "3e05173aef546931926c1f2a58a778b6106a608748bab39d44ee62a9f52cf54d",
            None,
            8064,
        ),
        ("randomk", True, "float64"): (
            "970f868ebce930a8a6921f09a2030dbce2e00cf77d93f2f122442c007a9e7c74",
            "cc446d49dfbaf3db973f721712c8518447858823efb7e5f737f990bebde14ed0",
            "53ad8bbdd1654ae8e88795cf112d46c7796a6791ce171a530262ac6778d74b58",
            8064,
        ),
        ("randomk", True, "float32"): (
            "970f868ebce930a8a6921f09a2030dbce2e00cf77d93f2f122442c007a9e7c74",
            "f44d17e94afda1b730ed81ade9be4431cba2c35d3b2934aa6abc1871900a4088",
            "ea4fd1632d338cbbbcd6c9ab1f0bd6b721288e1962bbbb6caf72ecfe93e84a20",
            4032,
        ),
        ("randomk", False, "float64"): (
            "970f868ebce930a8a6921f09a2030dbce2e00cf77d93f2f122442c007a9e7c74",
            "71b88bec0117e669bb79c62cfd93b3143559ea1251e12820e95f7aa7d9debb0b",
            None,
            8064,
        ),
        ("randomk", False, "float32"): (
            "970f868ebce930a8a6921f09a2030dbce2e00cf77d93f2f122442c007a9e7c74",
            "2d02312376790f4986f1ef73fa94d4ea4bc283ec926f5607331ece9dfb62c693",
            None,
            4032,
        ),
    }

    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize("kernel,error_feedback,dtype", sorted(GOLDEN))
    def test_compressed_run_matches_frozen_digests(
        self, blobs_workload, kernel, error_feedback, dtype, side
    ):
        from repro.compression import CompressionConfig
        from repro.experiments.setup import build_cluster
        from repro.strategies.local_sgd import LocalSGDStrategy

        cluster, _ = build_cluster(
            replace(
                blobs_workload,
                compression=CompressionConfig(kernel, ratio=0.1, error_feedback=error_feedback),
                dtype=dtype,
            )
        )
        on_side(side, cluster)
        compressor = cluster.compression.compressor
        compress_rows = compressor.compress_rows
        indices_digest = hashlib.sha256()
        sorted_digest = hashlib.sha256()

        def recording(matrix):
            payloads = compress_rows(matrix)
            indices_digest.update(payloads.indices.tobytes())
            sorted_digest.update(np.sort(payloads.indices, axis=1).tobytes())
            return payloads

        compressor.compress_rows = recording
        LocalSGDStrategy(tau=1).attach(cluster).run_steps(self.STEPS)

        residuals = cluster.compression.residual_matrix
        observed = (
            sorted_digest.hexdigest(),
            hashlib.sha256(cluster.parameter_matrix.tobytes()).hexdigest(),
            None if residuals is None else hashlib.sha256(residuals.tobytes()).hexdigest(),
            cluster.total_bytes,
        )
        assert observed == self.GOLDEN[(kernel, error_feedback, dtype)]
        assert cluster.synchronization_count == self.STEPS
        if kernel == "randomk":
            assert indices_digest.hexdigest() == self.RANDOMK_ORDERED

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_mean_ignores_the_order_inside_a_row(self, dtype):
        from repro.compression.kernels import SparseRowPayloads

        rng = np.random.default_rng(7)
        rows, dimension, keep = 6, 97, 23
        indices = np.stack([rng.permutation(dimension)[:keep] for _ in range(rows)])
        values = rng.standard_normal((rows, keep)).astype(dtype)
        shuffles = np.stack([rng.permutation(keep) for _ in range(rows)])
        shuffled = SparseRowPayloads(
            np.take_along_axis(indices, shuffles, axis=1),
            np.take_along_axis(values, shuffles, axis=1),
            dimension,
            2 * keep,
        )
        reference = SparseRowPayloads(indices, values, dimension, 2 * keep)
        assert shuffled.mean().dtype == dtype
        assert shuffled.mean().tobytes() == reference.mean().tobytes()
