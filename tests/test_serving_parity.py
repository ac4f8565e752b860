"""Parity pins for the serving plane.

Two contracts, both asserted on *both* execution engines:

* **Golden Poisson fixture** — a small open-loop Poisson-arrival FDA run has
  its sync count, byte ledger, virtual clock, and p50/p95/p99 latency digits
  frozen here.  Any change to arrival draws, queue ordering, staleness
  weighting, upload charging, or the timeline tie-break shifts at least one
  pinned digit and fails loudly.
* **Closed-loop bit-exactness** — ``ServingConfig(arrival="closed")`` (no
  exogenous arrivals, unbounded queue, instant service) is the paper's
  Section 3.3 asynchronous coordinator.  Its trajectory was recorded from the
  stand-alone ``AsynchronousFDATrainer`` at the last commit that had one (it
  ran on the timeline's heap while serving ran on a second one) and is frozen
  in ``CLOSED_GOLDEN``: event stream, estimate digits, clock and byte
  ledgers, and a digest of every worker's parameters, with and without
  per-step jitter (which pins the timeline's RNG draw order).
"""

import hashlib
import math
from dataclasses import fields

import numpy as np
import pytest

from repro.core.monitor import make_monitor
from repro.core.timeline import StragglerProfile
from repro.data.datasets import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.participation import Participation
from repro.distributed.worker import Worker
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.nn.architectures import mlp
from repro.optim.adam import Adam
from repro.serving import ServedFDATrainer, ServingConfig, ServingReport

pytestmark = pytest.mark.serving

ENGINES = ["sequential", "batched"]


def build_cluster(execution, **cluster_kwargs):
    rng = np.random.default_rng(7)
    workers = []
    for worker_id in range(4):
        x = rng.normal(size=(40, 6))
        y = rng.integers(0, 3, size=40)
        workers.append(
            Worker(
                worker_id,
                mlp(6, 3, hidden_units=(10,), seed=11),
                Dataset(x, y, 3),
                Adam(0.01),
                batch_size=8,
                seed=worker_id,
            )
        )
    return SimulatedCluster(workers, execution=execution, **cluster_kwargs)


#: Frozen digits of the golden Poisson run (150 updates, K=4, star x fl,
#: rate 0.5/worker, queue 64/drop, staleness-weighted, 50 ms service,
#: linear monitor, theta = 0.05, arrival seed 2026).
GOLDEN = {
    "sync_count": 6,
    "total_bytes": 22176,
    "updates_served": 150,
    "updates_offered": 150,
    "virtual_seconds": 70.34103951051148,
    "p50": 0.04999999999999982,
    "p95": 0.08595376964713072,
    "p99": 0.12407261982686359,
}


def run_golden(execution):
    cluster = build_cluster(execution, topology="star", network="fl")
    monitor = make_monitor("linear", cluster.model_dimension, seed=3)
    config = ServingConfig(
        arrival="poisson",
        arrival_rate=0.5,
        queue_capacity=64,
        queue_policy="drop",
        staleness_rule="staleness-weighted",
        service_seconds=0.05,
        arrival_seed=2026,
    )
    trainer = ServedFDATrainer(cluster, monitor, 0.05, config)
    trainer.serve_updates(150)
    return trainer


#: Frozen closed-loop runs (60 updates, K=4, star x fl, one 3x straggler,
#: linear monitor, theta = 0.05, timeline seed 5): ``"stragglers"`` is
#: jitter-free, ``"jittered"`` adds ``jitter=0.2``.  Events are
#: ``(time, worker_id, step_index, synchronized)``; estimates are the repr
#: digits of the non-NaN variance estimates in event order.
CLOSED_GOLDEN = {
    "stragglers": {
        "jitter": 0.0,
        "events": [
            (1.0, 0, 1, False),
            (1.0, 1, 1, False),
            (1.0, 3, 1, False),
            (2.0500002559999997, 0, 2, False),
            (2.0500002559999997, 1, 2, False),
            (2.0500002559999997, 3, 2, False),
            (3.0, 2, 1, False),
            (3.100000512, 0, 3, False),
            (3.100000512, 1, 3, False),
            (3.100000512, 3, 3, False),
            (4.150000768, 0, 4, False),
            (4.250027136, 1, 4, True),
            (4.250027136, 3, 4, False),
            (5.300027392, 0, 5, False),
            (5.300027392, 1, 5, False),
            (5.300027392, 3, 5, False),
            (6.1500266240000006, 2, 2, False),
            (6.350027647999999, 0, 6, False),
            (6.350027647999999, 1, 6, False),
            (6.350027647999999, 3, 6, False),
            (7.400027903999999, 0, 7, False),
            (7.400027903999999, 1, 7, False),
            (7.400027903999999, 3, 7, False),
            (8.450028159999999, 0, 8, False),
            (8.450028159999999, 1, 8, False),
            (8.450028159999999, 3, 8, False),
            (9.20002688, 2, 3, False),
            (9.500028416, 0, 9, False),
            (9.500028416, 1, 9, False),
            (9.500028416, 3, 9, False),
            (10.550028672, 0, 10, False),
            (10.550028672, 1, 10, False),
            (10.550028672, 3, 10, False),
            (11.600028928, 0, 11, False),
            (11.700055296, 1, 11, True),
            (11.700055296, 3, 11, False),
            (12.350053504, 2, 4, False),
            (12.750055552000001, 0, 12, False),
            (12.750055552000001, 1, 12, False),
            (12.750055552000001, 3, 12, False),
            (13.800055808000002, 0, 13, False),
            (13.800055808000002, 1, 13, False),
            (13.800055808000002, 3, 13, False),
            (14.850056064000002, 0, 14, False),
            (14.850056064000002, 1, 14, False),
            (14.850056064000002, 3, 14, False),
            (15.40005376, 2, 5, False),
            (15.900056320000003, 0, 15, False),
            (15.900056320000003, 1, 15, False),
            (15.900056320000003, 3, 15, False),
            (16.950056576, 0, 16, False),
            (16.950056576, 1, 16, False),
            (16.950056576, 3, 16, False),
            (18.000056832000002, 0, 17, False),
            (18.000056832000002, 1, 17, False),
            (18.000056832000002, 3, 17, False),
            (18.450054016000003, 2, 6, False),
            (19.050057088000003, 0, 18, False),
            (19.050057088000003, 1, 18, False),
            (19.050057088000003, 3, 18, False),
        ],
        "estimates": [
            "0.02354110807779375", "0.02957039901882574", "0.035313272758803034",
            "0.040683274098058275", "0.048794023118653454", "0.055283434321182004",
            "0.0034880580933541235", "0.004707117524367926", "0.005385320331584332",
            "0.007452234279913057", "0.009456787763194273", "0.010969292046986379",
            "0.013981774172581157", "0.016518670502726096", "0.01897793877434885",
            "0.022850270764694345", "0.022982766075041215", "0.025837782912448697",
            "0.02871314418706956", "0.03280057270524074", "0.03631769649508516",
            "0.039805444455575295", "0.044732541519862834", "0.04858033705023072",
            "0.05276884657750604", "0.0015194458785694075", "0.002601181089066539",
            "0.0032617272603801825", "0.003884569073100914", "0.0055169522448134875",
            "0.00670492479255842", "0.0077905775269336095", "0.010185374917762462",
            "0.011131368563298768", "0.012925244048522157", "0.014553865231850352",
            "0.01735566412756031", "0.01972864168827875", "0.022032310816963628",
            "0.025250646020132852", "0.028145822928477296", "0.031197760575815574",
            "0.03459863419025863", "0.035584439163856924", "0.038689348164537236",
            "0.04206958188403138", "0.045395342432328414",
        ],
        "virtual_time": 19.050057088000003,
        "compute_seconds": 18.850004352000003,
        "comm_seconds": 3.2000680960000016,
        "total_bytes": 7552,
        "sync_count": 2,
        "parameters_sha256": "3452eb96dd5e796741910844a051e140e106a7c8d2a973c3d8888220c9aed83d",
    },
    "jittered": {
        "jitter": 0.2,
        "events": [
            (0.7673043127544276, 0, 1, False),
            (0.951541170227946, 1, 1, False),
            (1.2550925394739045, 3, 1, False),
            (1.8394883286935277, 0, 2, False),
            (1.896901375047226, 1, 2, False),
            (2.1598344013520334, 3, 2, False),
            (3.0510314226704187, 0, 3, False),
            (3.263177246634166, 2, 1, False),
            (3.2659039014205993, 3, 3, False),
            (3.333642934263948, 1, 3, False),
            (3.882433525554488, 0, 4, False),
            (4.525080520467804, 1, 4, True),
            (4.739670615605513, 0, 5, False),
            (4.793063547364727, 3, 4, False),
            (5.5584808604903815, 1, 5, False),
            (5.58210555529162, 0, 6, False),
            (5.724804184453761, 3, 5, False),
            (5.889983667874125, 2, 2, False),
            (6.499152307906118, 0, 7, False),
            (6.515491695992029, 1, 6, False),
            (6.8918370282687915, 3, 6, False),
            (7.437949710018514, 0, 8, False),
            (7.650869140015537, 1, 7, False),
            (8.12237622236811, 3, 7, False),
            (8.2078775323997, 0, 9, False),
            (8.650819302995002, 1, 8, False),
            (8.902370129981763, 2, 3, False),
            (8.994265855066024, 3, 8, False),
            (9.223839535361225, 0, 10, False),
            (9.473504611019964, 1, 9, False),
            (10.036717597077148, 3, 9, False),
            (10.214787651247763, 0, 11, False),
            (10.334425331156723, 1, 10, False),
            (11.010537821129269, 3, 10, False),
            (11.168726024580593, 0, 12, True),
            (11.247036613566541, 1, 11, False),
            (12.01974578063069, 0, 13, False),
            (12.064836711414928, 2, 4, False),
            (12.206547480035162, 3, 11, False),
            (12.560756197314804, 1, 12, False),
            (13.223842241645151, 0, 14, False),
            (13.312481831651716, 3, 12, False),
            (13.412999773388705, 1, 13, False),
            (14.126675406158501, 2, 5, False),
            (14.13487302049882, 1, 14, False),
            (14.280475845518298, 0, 15, False),
            (14.37124667217574, 3, 13, False),
            (15.135001808895366, 1, 15, False),
            (15.210799102977031, 3, 14, False),
            (15.542631512571843, 0, 16, False),
            (16.06348304927193, 3, 15, False),
            (16.344060961221924, 1, 16, False),
            (16.528520975160443, 0, 17, False),
            (16.958757144793733, 3, 16, False),
            (17.039841027512498, 2, 6, False),
            (17.698872893165735, 0, 18, False),
            (17.730149640194888, 1, 17, False),
            (18.635120835239107, 3, 17, False),
            (18.932991567261062, 0, 19, False),
            (18.963248077742705, 1, 18, False),
        ],
        "estimates": [
            "0.02957039901882574", "0.034936043612469145", "0.040683274098058275",
            "0.048794023118653454", "0.055283434321182004", "0.004707117524367926",
            "0.007096787892053522", "0.007558416914231558", "0.009456787763194273",
            "0.012361014380051659", "0.013677669683060356", "0.016518670502726096",
            "0.019902203376736864", "0.022182488250278194", "0.022251013293815902",
            "0.025837782912448697", "0.029621367992746162", "0.03236310979435075",
            "0.03631769649508516", "0.040418182648078685", "0.04376118639627522",
            "0.04858033705023072", "0.053301264928732356", "0.0015505221062687745",
            "0.002581509878743924", "0.0032330774269853976", "0.004069131860248583",
            "0.005636710763288097", "0.006917944056327724", "0.00905634453999141",
            "0.010148146146906463", "0.011287313714816578", "0.014130005336373375",
            "0.016228843902561192", "0.017757592720442215", "0.020446387497014242",
            "0.02380218007555056", "0.025888264528487366", "0.028970804110077554",
            "0.03018534813727389", "0.032666679060395054", "0.03650353913016423",
            "0.03969133621060073", "0.042844987430015385", "0.047093690888775436",
        ],
        "virtual_time": 18.963248077742705,
        "compute_seconds": 18.763195341742705,
        "comm_seconds": 3.2000680960000016,
        "total_bytes": 7552,
        "sync_count": 2,
        "parameters_sha256": "933354d195b61c31234c918dda882767cee76f1777bef639457eb9c22ba0df7b",
    },
}


def run_closed(execution, jitter):
    cluster = build_cluster(execution, topology="star", network="fl")
    monitor = make_monitor("linear", cluster.model_dimension, seed=3)
    profile = StragglerProfile(
        straggler_fraction=0.25, straggler_factor=3.0, jitter=jitter
    )
    trainer = ServedFDATrainer(
        cluster, monitor, 0.05, ServingConfig(arrival="closed"),
        profile=profile, seed=5,
    )
    return trainer, [trainer.serve_next() for _ in range(60)]


class TestGoldenPoissonFixture:
    @pytest.mark.parametrize("execution", ENGINES)
    def test_golden_run_digits_are_frozen(self, execution):
        report = run_golden(execution).report()
        assert report.sync_count == GOLDEN["sync_count"]
        assert report.total_bytes == GOLDEN["total_bytes"]
        assert report.updates_served == GOLDEN["updates_served"]
        assert report.updates_offered == GOLDEN["updates_offered"]
        assert report.virtual_seconds == GOLDEN["virtual_seconds"]
        assert report.latency["p50"] == GOLDEN["p50"]
        assert report.latency["p95"] == GOLDEN["p95"]
        assert report.latency["p99"] == GOLDEN["p99"]

    def test_both_engines_agree_bit_exactly(self):
        sequential = run_golden("sequential")
        batched = run_golden("batched")
        np.testing.assert_array_equal(
            sequential.cluster.parameter_matrix, batched.cluster.parameter_matrix
        )
        assert sequential.cluster.total_bytes == batched.cluster.total_bytes
        assert sequential.latency.ledger.values().tolist() == (
            batched.latency.ledger.values().tolist()
        )


def assert_matches_closed_golden(execution, cell):
    golden = CLOSED_GOLDEN[cell]
    served, records = run_closed(execution, golden["jitter"])
    # Bit-exact event stream, estimates, clock, byte ledger, parameters.
    assert [
        (r.time, r.worker_id, r.step_index, r.synchronized) for r in records
    ] == golden["events"]
    # The estimate is NaN until every worker has reported.
    assert [
        repr(r.variance_estimate)
        for r in records
        if not math.isnan(r.variance_estimate)
    ] == golden["estimates"]
    assert served.virtual_time == golden["virtual_time"]
    assert served.timeline.compute_seconds == golden["compute_seconds"]
    assert served.timeline.comm_seconds == golden["comm_seconds"]
    assert served.cluster.total_bytes == golden["total_bytes"]
    assert served.sync_count == golden["sync_count"]
    assert (
        hashlib.sha256(served.cluster.parameter_matrix.tobytes()).hexdigest()
        == golden["parameters_sha256"]
    )
    assert served.updates_served == len(records) == 60


class TestDegenerateModeBitExactness:
    @pytest.mark.parametrize("execution", ENGINES)
    def test_closed_mode_reproduces_async_trainer(self, execution):
        assert_matches_closed_golden(execution, "stragglers")

    @pytest.mark.parametrize("execution", ENGINES)
    def test_closed_mode_pins_the_jitter_draw_order(self, execution):
        assert_matches_closed_golden(execution, "jittered")

    @pytest.mark.parametrize("execution", ENGINES)
    def test_closed_mode_latency_is_identically_zero(self, execution):
        cluster = build_cluster(execution)
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        served = ServedFDATrainer(
            cluster, monitor, 0.05, ServingConfig(arrival="closed")
        )
        served.serve_updates(20)
        summary = served.latency.summary()
        assert summary["count"] == 20
        assert summary["p99"] == 0.0
        assert summary["max"] == 0.0
        assert served.queue.conservation_holds()


class TestOpenLoopInvariants:
    @pytest.mark.parametrize("execution", ENGINES)
    def test_uniform_rule_matches_unweighted_averaging(self, execution):
        """The uniform rule must take the exact np.mean path (None weights)."""

        def run(rule):
            cluster = build_cluster(execution)
            monitor = make_monitor("linear", cluster.model_dimension, seed=3)
            config = ServingConfig(
                arrival="deterministic", arrival_rate=1.0, staleness_rule=rule
            )
            trainer = ServedFDATrainer(cluster, monitor, 0.05, config)
            trainer.serve_updates(80)
            return trainer

        uniform = run("uniform")
        # With deterministic arrivals and instant service no update is ever
        # stale, so staleness-weighted weights are all equal and the weighted
        # path must land on the same synchronization schedule.
        weighted = run("staleness-weighted")
        assert uniform.sync_count == weighted.sync_count
        np.testing.assert_allclose(
            uniform.cluster.parameter_matrix,
            weighted.cluster.parameter_matrix,
            rtol=0,
            atol=1e-12,
        )

    def test_saturation_inflates_tail_latency(self):
        def run(rate):
            cluster = build_cluster("sequential")
            monitor = make_monitor("linear", cluster.model_dimension, seed=3)
            config = ServingConfig(
                arrival="poisson",
                arrival_rate=rate,
                staleness_rule="uniform",
                service_seconds=0.4,
            )
            trainer = ServedFDATrainer(cluster, monitor, float("inf"), config)
            trainer.serve_updates(200)
            return trainer.report()

        # Aggregate service rate is 1/0.4 = 2.5 updates/s; K=4 workers at
        # 0.25/s offer 1.0/s (stable), at 2.5/s offer 10/s (4x overload).
        stable = run(0.25)
        saturated = run(2.5)
        assert saturated.latency["p99"] > 10 * stable.latency["p99"]
        assert saturated.max_queue_depth > 10 * max(stable.max_queue_depth, 1)


class TestUnsupportedCompositionsAreRefused:
    """The event loop steps single workers and never opens a round, so the
    planes that act on rounds must be refused by name, not silently ignored."""

    CONFIGS = [ServingConfig(arrival="closed"), ServingConfig(arrival="poisson")]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.arrival)
    def test_a_crash_plan_is_refused(self, config):
        plan = FaultPlan(crash_rate=0.5, recovery_rounds=3, seed=1)
        cluster = build_cluster("batched", faults=plan)
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        with pytest.raises(ConfigurationError, match="ROADMAP item 2c"):
            ServedFDATrainer(cluster, monitor, 0.05, config)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.arrival)
    def test_a_partial_cohort_is_refused(self, config):
        cluster = build_cluster("batched")
        cluster.bind_members(Participation(mask=[True, True, False, True]))
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        with pytest.raises(ConfigurationError, match="ROADMAP item 2c"):
            ServedFDATrainer(cluster, monitor, 0.05, config)

    def test_loss_only_plans_and_full_cohorts_stay_legal(self):
        cluster = build_cluster(
            "batched", network="fl", faults=FaultPlan(loss_rate=0.2, seed=1)
        )
        cluster.bind_members(Participation(mask=[True] * 4, weights=[1.0, 2.0, 1.0, 1.0]))
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        trainer = ServedFDATrainer(cluster, monitor, 0.05, ServingConfig(arrival="closed"))
        assert trainer.serve_updates(12) == 12
        assert cluster.faults.log.retransmitted_bytes > 0


class TestServingReport:
    def test_to_dict_carries_every_scalar_field(self):
        cluster = build_cluster("sequential")
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        config = ServingConfig(
            arrival="deterministic", arrival_rate=4.0, queue_capacity=1,
            queue_policy="block", service_seconds=1.0,
        )
        trainer = ServedFDATrainer(cluster, monitor, 0.05, config)
        trainer.serve_updates(10)
        report = trainer.report()
        row = report.to_dict()
        assert set(row) >= {f.name for f in fields(ServingReport)} - {"latency"}
        # Block-policy back-pressure is visible to BENCH_serving.json consumers.
        assert row["updates_blocked_peak"] == report.updates_blocked_peak > 0
        assert row["latency_p99"] == report.latency["p99"]
