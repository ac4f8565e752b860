"""Served steps settle by rank: when a produced step is computed is unobservable.

The coordinator leaves a produced update's local step on the worker's backlog
and computes the backlog rank by rank before anything reads a result.  These
tests hold that to the semantics it replaced — every step computed at its own
event (``helpers.serving.PerEventTrainer``) — and pin the rules that make the
deferral invisible:

* **Oracle property** — over arrival kind x rate x queue capacity x staleness
  rule x protocol x monitor x engine x dtype, on a model with ``Dropout``: identical
  records, parameters, buffers, optimizer moments, byte/link/latency ledgers
  and sampler/dropout RNG states.  ``"exact"`` is the widest row: its
  payload is the whole drift, written into the state table at the settle.
* **Visibility rule** — a public driver returns with every produced step
  computed, and a worker's unsettled steps carry consecutive step indices.
* **Bounded backlog** — a load that never reaches the estimate's read barrier
  still settles, and still equals the oracle.
* **Divergence names its worker**, at the settle, before a synchronization
  could spread the bad step.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers.parity import MODELS, assert_same_state, make_cluster
from helpers.per_worker import SIDES
from helpers.serving import (
    PerEventTrainer,
    RecordingTrainer,
    drive,
    serve_next,
    served_snapshot,
)
from repro.core.monitor import make_monitor
from repro.exceptions import TrainingError
from repro.faults.plan import FaultPlan
from repro.optim.sgd import SGD
from repro.serving import ArrivalProcess, ServingConfig, harness
from repro.serving.aggregation import STALENESS_RULES
from repro.serving.harness import BACKLOG_LIMIT_PER_WORKER

pytestmark = pytest.mark.serving

NUM_WORKERS = 4


def build(trainer_class, config, *, side, dtype="float64", variant="linear",
          threshold=0.05, lossy=False, **cluster_kwargs):
    cluster = make_cluster(
        side,
        *MODELS["dropout-head"],
        num_workers=NUM_WORKERS,
        dtype=dtype,
        topology="star",
        network="fl",
        faults=FaultPlan(loss_rate=0.2, seed=1) if lossy else None,
        **cluster_kwargs,
    )
    monitor = make_monitor(variant, cluster.model_dimension, sketch_width=16, seed=3)
    return trainer_class(cluster, monitor, threshold, config, seed=5)


@st.composite
def serving_configs(draw):
    staleness = dict(
        staleness_rule=draw(st.sampled_from(STALENESS_RULES)),
        max_staleness=draw(st.integers(min_value=0, max_value=2)),
    )
    if draw(st.sampled_from(["poisson", "closed"])) == "closed":
        return ServingConfig(arrival="closed", **staleness)
    return ServingConfig(
        arrival="poisson",
        arrival_rate=draw(st.sampled_from([0.3, 1.0, 4.0])),
        queue_capacity=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=6))),
        service_seconds=draw(st.sampled_from([0.0, 0.05, 0.4])),
        protocol=draw(st.sampled_from(["fda", "bsp"])),
        arrival_seed=draw(st.integers(min_value=0, max_value=3)),
        **staleness,
    )


#: Four times the load the coordinator can serve: workers report several times
#: between two read barriers, and most of what they report is dropped.
SATURATED = ServingConfig(
    arrival="poisson", arrival_rate=2.5, queue_capacity=4,
    staleness_rule="max-staleness", max_staleness=1, service_seconds=0.4, arrival_seed=7,
)


def assert_equals_oracle(config, run, trainer_class=RecordingTrainer, **build_kwargs):
    """``run`` a settle-by-rank trainer and the per-event oracle: same everything."""
    trainer, oracle = (
        build(cls, config, **build_kwargs) for cls in (trainer_class, PerEventTrainer)
    )
    run(trainer)
    run(oracle)
    assert_same_state(served_snapshot(trainer), served_snapshot(oracle), path="served")
    return trainer


class TestPerEventOracle:
    @pytest.mark.parametrize("variant", ["linear", "sketch", "exact"])
    @pytest.mark.parametrize("side", SIDES)
    def test_saturated_backlog_equals_the_oracle_under_every_monitor(self, side, variant):
        """Deep backlogs, many ranks per settle, states outliving their settle."""
        trainer = assert_equals_oracle(
            SATURATED, lambda trainer: trainer.serve_updates(120),
            side=side, variant=variant, threshold=0.02,
        )
        assert trainer.sync_count > 0

    @given(
        data=st.data(),
        side=st.sampled_from(SIDES),
        dtype=st.sampled_from(["float64", "float32"]),
        variant=st.sampled_from(["linear", "sketch", "exact"]),
        threshold=st.sampled_from([0.0, 0.02, 0.2]),
        lossy=st.booleans(),
        drivers=st.lists(
            st.tuples(
                st.sampled_from(["serve_updates", "serve_for", "serve_next"]),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_settling_by_rank_equals_settling_every_event(
        self, data, side, dtype, variant, threshold, lossy, drivers
    ):
        def run(trainer):
            for driver, amount in drivers:
                drive(trainer, driver, amount / 4.0 if driver == "serve_for" else amount)

        assert_equals_oracle(
            data.draw(serving_configs()), run, side=side,
            dtype=dtype, variant=variant, threshold=threshold, lossy=lossy,
        )


class BacklogWatcher(RecordingTrainer):
    """Checks the backlog's invariants at every settle and tracks its peak."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.peak_unsettled = 0
        self.deepest_backlog = 0

    def _settle(self) -> None:
        assert self._unsettled == sum(map(len, self._backlog))
        self.peak_unsettled = max(self.peak_unsettled, self._unsettled)
        for worker, backlog in zip(self.cluster.workers, self._backlog):
            self.deepest_backlog = max(self.deepest_backlog, len(backlog))
            # Unsettled steps continue the worker's count, one by one.
            assert [update.step_index for update in backlog] == list(
                range(worker.steps_performed + 1, worker.steps_performed + 1 + len(backlog))
            )
        super()._settle()


class TestVisibilityRule:
    @pytest.mark.parametrize("side", SIDES)
    def test_a_driver_returns_with_every_produced_step_computed(self, side):
        trainer = build(BacklogWatcher, SATURATED, side=side)

        def assert_settled():
            assert trainer._unsettled == 0 and not any(trainer._backlog)
            assert (
                sum(w.steps_performed for w in trainer.cluster.workers)
                == trainer._update_seq
            )

        for _ in range(40):
            serve_next(trainer)
            assert_settled()
        trainer.serve_updates(40)
        assert_settled()
        trainer.serve_for(3.0)
        assert_settled()
        # The saturated queue made workers report several times between two
        # read barriers, so the consecutive-index rule was exercised.
        assert trainer.deepest_backlog >= 2
        # Lost updates' steps are computed like any other.
        assert trainer._update_seq > trainer.queue.offered - trainer.queue.lost


class RoundRobinWithoutLastWorker(ArrivalProcess):
    """Workers 0..K-2 report in turn, one report every 10 ms; worker K-1's
    first arrival never comes."""

    def next_arrival(self, worker_id: int, after: float) -> float:
        if worker_id == NUM_WORKERS - 1:
            return float("inf")
        if after == 0.0:
            return 0.01 * (worker_id + 1)
        return after + 0.01 * (NUM_WORKERS - 1)


class TestBoundedBacklog:
    @pytest.mark.parametrize("side", SIDES)
    def test_a_worker_that_never_reports_does_not_let_the_backlog_grow(
        self, side, monkeypatch
    ):
        """Worker 3 never reports, so its row stays empty: no estimate, no
        synchronization — only the bound settles mid-run."""
        monkeypatch.setattr(
            harness, "build_arrival_process",
            lambda config, num_workers: RoundRobinWithoutLastWorker(),
        )
        config = ServingConfig(arrival="poisson", service_seconds=0.005)
        trainer = assert_equals_oracle(
            config, lambda trainer: trainer.serve_updates(180), BacklogWatcher,
            side=side,
        )
        assert trainer.updates_served == 180 and trainer.sync_count == 0
        # Reached, never passed.
        assert trainer.peak_unsettled == BACKLOG_LIMIT_PER_WORKER * NUM_WORKERS


class TestDivergence:
    @pytest.mark.parametrize("side", SIDES)
    def test_a_diverging_served_run_names_its_worker(self, side):
        trainer = build(
            RecordingTrainer,
            ServingConfig(arrival="poisson", arrival_rate=1.0, service_seconds=0.05),
            side=side,
            threshold=float("inf"),
            optimizer_factory=lambda worker_id: SGD(1e12 if worker_id == 2 else 0.01),
        )
        with pytest.raises(TrainingError, match="worker 2") as excinfo:
            trainer.serve_updates(200)
        assert not any(f"worker {w}" in str(excinfo.value) for w in (0, 1, 3))
        # Raised at the settle: nothing consumed the bad step.
        assert trainer.sync_count == 0
        assert np.isfinite(trainer.cluster.parameter_matrix[[0, 1, 3]]).all()
