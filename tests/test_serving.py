"""Property tests of the serving plane's three load-bearing contracts.

* **Arrival reproducibility** — Poisson inter-arrival draws are a pure
  function of ``(seed, worker, rate)``: replaying a process yields the
  identical sequence, and distinct seeds yield distinct sequences.
* **Queue conservation** — under *arbitrary* interleavings of offers and
  pops, every capacity and every policy, the ledger invariant
  ``offered == aggregated + dropped + shed + in_flight`` holds at every
  intermediate instant (Hypothesis drives the interleavings).
* **Percentile cross-check** — the P² streaming estimator stays within its
  documented rank-error bound of the exact sorted ledger: the empirical CDF
  evaluated at the P² estimate is within ``P2_RANK_ERROR_BOUND`` of the
  target quantile for n >= 100 observations.

Deterministic unit tests for the staleness rules and the individual queue
policies ride along.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, ExperimentError
from helpers.serving import write_arrival_trace
from repro.serving.aggregation import STALENESS_RULES, staleness_weight
from repro.serving.arrivals import (
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
    build_arrival_process,
)
from repro.serving.config import ServingConfig
from repro.serving.metrics import (
    P2_RANK_ERROR_BOUND,
    LatencyTracker,
    P2Quantile,
    PercentileLedger,
)
from repro.serving.queueing import IngressQueue, PendingUpdate

pytestmark = pytest.mark.serving

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _update(seq: int, worker: int = 0, time: float = 0.0) -> PendingUpdate:
    return PendingUpdate(worker_id=worker, enqueue_time=time, version=0, seq=seq)


class TestArrivalReproducibility:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.floats(min_value=0.05, max_value=50.0),
        worker=st.integers(min_value=0, max_value=3),
        draws=st.integers(min_value=1, max_value=50),
    )
    @SETTINGS
    def test_poisson_sequence_is_a_pure_function_of_seed(self, seed, rate, worker, draws):
        first = PoissonArrivals(rate, num_workers=4, seed=seed)
        second = PoissonArrivals(rate, num_workers=4, seed=seed)
        times_a, times_b = [], []
        now_a = now_b = 0.0
        for _ in range(draws):
            now_a = first.next_arrival(worker, now_a)
            now_b = second.next_arrival(worker, now_b)
            times_a.append(now_a)
            times_b.append(now_b)
        assert times_a == times_b
        assert all(t > 0 for t in times_a)
        assert times_a == sorted(times_a)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @SETTINGS
    def test_distinct_seeds_give_distinct_streams(self, seed):
        a = PoissonArrivals(1.0, num_workers=1, seed=seed)
        b = PoissonArrivals(1.0, num_workers=1, seed=seed + 1)
        draws_a = [a.next_arrival(0, 0.0) for _ in range(8)]
        draws_b = [b.next_arrival(0, 0.0) for _ in range(8)]
        assert draws_a != draws_b

    def test_workers_have_independent_streams(self):
        process = PoissonArrivals(1.0, num_workers=2, seed=0)
        a = [process.next_arrival(0, 0.0) for _ in range(8)]
        b = [process.next_arrival(1, 0.0) for _ in range(8)]
        assert a != b
        # Re-created process replays both worker streams identically.
        replay = PoissonArrivals(1.0, num_workers=2, seed=0)
        assert [replay.next_arrival(0, 0.0) for _ in range(8)] == a
        assert [replay.next_arrival(1, 0.0) for _ in range(8)] == b

    def test_deterministic_intervals(self):
        process = DeterministicArrivals(4.0)
        assert process.next_arrival(0, 0.0) == pytest.approx(0.25)
        assert process.next_arrival(0, 1.0) == pytest.approx(1.25)

    def test_trace_replays_in_order_and_exhausts(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_arrival_trace(str(path), [(0, 0.5), (0, 0.1), (1, 2.0)])
        trace = TraceArrivals.from_jsonl(str(path))
        assert trace.next_arrival(0, 0.0) == pytest.approx(0.1)
        assert trace.next_arrival(0, 0.2) == pytest.approx(0.5)
        assert trace.next_arrival(0, 1.0) is None
        assert trace.next_arrival(1, 0.0) == pytest.approx(2.0)
        assert trace.next_arrival(2, 0.0) is None

    def test_trace_late_delivery_stays_after_now(self):
        trace = TraceArrivals({0: [1.0]})
        delivered = trace.next_arrival(0, 5.0)
        assert delivered > 5.0

    def test_build_arrival_process_dispatch(self):
        assert build_arrival_process(ServingConfig(arrival="closed"), 4) is None
        assert isinstance(
            build_arrival_process(ServingConfig(arrival="poisson"), 4), PoissonArrivals
        )
        assert isinstance(
            build_arrival_process(ServingConfig(arrival="deterministic"), 4),
            DeterministicArrivals,
        )

    def test_a_trace_for_a_larger_cluster_is_refused_by_name(self, tmp_path):
        """An 8-worker trace on 4 workers used to serve half its events, silently."""
        path = tmp_path / "trace.jsonl"
        write_arrival_trace(str(path), [(w, 0.1 * (w + 1)) for w in range(8)])
        config = ServingConfig(arrival="trace", trace_path=str(path))
        assert isinstance(build_arrival_process(config, 8), TraceArrivals)
        with pytest.raises(ConfigurationError, match=r"workers \[4, 5, 6, 7\]"):
            build_arrival_process(config, 4)


class TestQueueConservation:
    @given(
        capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
        policy=st.sampled_from(["drop", "block", "shed"]),
        # True = offer one update, False = pop (if non-empty).
        ops=st.lists(st.booleans(), min_size=1, max_size=200),
    )
    @SETTINGS
    def test_conservation_under_arbitrary_interleavings(self, capacity, policy, ops):
        queue = IngressQueue(capacity, policy)
        seq = 0
        now = 0.0
        for is_offer in ops:
            now += 1.0
            if is_offer:
                queue.offer(_update(seq), now)
                seq += 1
            elif queue:
                queue.pop(now)
            # The invariant holds at EVERY intermediate instant.
            assert queue.conservation_holds()
            if capacity is not None:
                assert queue.depth <= capacity

    @given(
        capacity=st.integers(min_value=1, max_value=4),
        offers=st.integers(min_value=1, max_value=50),
    )
    @SETTINGS
    def test_draining_accounts_for_every_offer(self, capacity, offers):
        for policy in ("drop", "block", "shed"):
            queue = IngressQueue(capacity, policy)
            for seq in range(offers):
                queue.offer(_update(seq), float(seq))
            while queue:
                queue.pop(99.0)
            # Block keeps everything (anteroom drains through the queue);
            # after a full drain under drop/shed nothing is in flight.
            if policy == "block":
                while queue:
                    queue.pop(99.0)
            assert queue.conservation_holds()
            if policy != "block":
                assert queue.in_flight == 0
                assert queue.offered == queue.dequeued + queue.lost

    def test_drop_refuses_newcomer(self):
        queue = IngressQueue(1, "drop")
        assert queue.offer(_update(0), 0.0) == "enqueued"
        assert queue.offer(_update(1), 0.1) == "dropped"
        assert queue.dropped == 1
        assert queue.pop(0.2).seq == 0

    def test_block_parks_and_promotes_fifo(self):
        queue = IngressQueue(1, "block")
        queue.offer(_update(0, time=0.0), 0.0)
        assert queue.offer(_update(1, time=0.1), 0.1) == "blocked"
        assert queue.offer(_update(2, time=0.2), 0.2) == "blocked"
        assert queue.blocked == 2
        assert queue.pop(0.3).seq == 0
        # Oldest blocked update was promoted, with its original timestamp.
        promoted = queue.pop(0.4)
        assert promoted.seq == 1
        assert promoted.enqueue_time == pytest.approx(0.1)

    def test_shed_evicts_oldest(self):
        queue = IngressQueue(2, "shed")
        for seq in range(3):
            queue.offer(_update(seq), float(seq))
        assert queue.shed == 1
        assert [queue.pop(9.0).seq for _ in range(2)] == [1, 2]

    def test_empty_pop_raises(self):
        with pytest.raises(ExperimentError):
            IngressQueue().pop(0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IngressQueue(capacity=0)
        with pytest.raises(ConfigurationError):
            IngressQueue(policy="lifo")


class TestPercentileCrossCheck:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=100, max_value=3000),
        distribution=st.sampled_from(["exponential", "lognormal", "uniform"]),
    )
    @SETTINGS
    def test_p2_estimate_within_documented_rank_bound(self, seed, n, distribution):
        rng = np.random.default_rng(seed)
        if distribution == "exponential":
            samples = rng.exponential(2.0, size=n)
        elif distribution == "lognormal":
            samples = rng.lognormal(0.0, 1.0, size=n)
        else:
            samples = rng.uniform(0.0, 10.0, size=n)
        tracker = LatencyTracker()
        for value in samples:
            tracker.record(float(value))
        for q, estimator in tracker.estimators.items():
            rank = tracker.ledger.cdf_at(estimator.value())
            assert abs(rank - q) <= P2_RANK_ERROR_BOUND, (
                f"P²({q}) estimate ranks at {rank:.3f}, "
                f"outside the documented ±{P2_RANK_ERROR_BOUND} bound"
            )

    def test_exact_below_five_observations(self):
        estimator = P2Quantile(0.5)
        for value in (3.0, 1.0, 2.0):
            estimator.add(value)
        assert estimator.value() == pytest.approx(np.percentile([3.0, 1.0, 2.0], 50))

    def test_ledger_percentiles_are_exact(self):
        ledger = PercentileLedger()
        for value in range(1, 101):
            ledger.record(float(value))
        assert ledger.percentile(0.5) == pytest.approx(np.percentile(range(1, 101), 50))
        assert ledger.percentile(0.99) == pytest.approx(np.percentile(range(1, 101), 99))

    def test_summary_reports_exact_and_estimated(self):
        tracker = LatencyTracker()
        for value in np.linspace(0.0, 1.0, 500):
            tracker.record(float(value))
        summary = tracker.summary()
        for key in ("p50", "p95", "p99", "p50_est", "p95_est", "p99_est", "mean", "max"):
            assert key in summary
        assert summary["count"] == 500
        assert summary["p50"] == pytest.approx(0.5, abs=0.01)


class TestStalenessRules:
    def test_rule_values(self):
        assert staleness_weight("uniform", 7) == 1.0
        assert staleness_weight("staleness-weighted", 0) == 1.0
        assert staleness_weight("staleness-weighted", 3) == pytest.approx(0.25)
        assert staleness_weight("max-staleness", 4, max_staleness=4) == 1.0
        assert staleness_weight("max-staleness", 5, max_staleness=4) == 0.0
        assert staleness_weight("polynomial", 3, poly_alpha=0.5) == pytest.approx(0.5)

    def test_weights_are_monotone(self):
        for rule in STALENESS_RULES:
            weights = [staleness_weight(rule, staleness) for staleness in range(6)]
            # Staler never weighs more than fresher, for every rule.
            assert (np.diff(weights) <= 1e-12).all()

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            staleness_weight("exponential", 1)
        with pytest.raises(ConfigurationError):
            staleness_weight("uniform", -1)


class TestServingConfigValidation:
    def test_defaults_are_valid(self):
        config = ServingConfig()
        assert config.arrival == "poisson"
        assert "poisson" in config.describe()

    def test_closed_mode_requires_degenerate_knobs(self):
        ServingConfig(arrival="closed")  # valid
        with pytest.raises(ConfigurationError):
            ServingConfig(arrival="closed", service_seconds=0.5)
        with pytest.raises(ConfigurationError):
            ServingConfig(arrival="closed", queue_capacity=8)
        with pytest.raises(ConfigurationError):
            ServingConfig(arrival="closed", protocol="bsp")

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(arrival="warp")
        with pytest.raises(ConfigurationError):
            ServingConfig(arrival_rate=0.0)
        with pytest.raises(ConfigurationError):
            ServingConfig(arrival="trace")
        with pytest.raises(ConfigurationError):
            ServingConfig(queue_policy="random")
        with pytest.raises(ConfigurationError):
            ServingConfig(staleness_rule="linear-decay")
        with pytest.raises(ConfigurationError):
            ServingConfig(service_seconds=-1.0)
