"""Served steps settle by rank: when a produced step is computed is unobservable.

The coordinator leaves a produced update's local step on the worker's backlog
and computes the backlog rank by rank before anything reads a result.  These
tests hold that to the semantics it replaced — every step computed at its own
event (``helpers.serving.PerEventTrainer``) — and pin the rules that make the
deferral invisible:

* **Oracle property** — over arrival kind x rate x queue x staleness rule x
  protocol x monitor x engine x dtype, on a model with ``Dropout``: identical
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

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers.parity import EXECUTIONS, MODELS, assert_same_state, make_cluster
from helpers.serving import PerEventTrainer, RecordingTrainer, drive, served_snapshot
from repro.core.monitor import make_monitor
from repro.exceptions import TrainingError
from repro.faults.plan import FaultPlan
from repro.optim.sgd import SGD
from repro.serving import ServingConfig, write_arrival_trace
from repro.serving.aggregation import STALENESS_RULES
from repro.serving.harness import BACKLOG_LIMIT_PER_WORKER

pytestmark = pytest.mark.serving

NUM_WORKERS = 4


def build(trainer_class, config, *, execution, dtype="float64", variant="linear",
          threshold=0.05, lossy=False, **cluster_kwargs):
    cluster = make_cluster(
        execution,
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
def serving_configs(draw, trace_dir):
    staleness = dict(
        staleness_rule=draw(st.sampled_from(STALENESS_RULES)),
        max_staleness=draw(st.integers(min_value=0, max_value=2)),
    )
    arrival = draw(st.sampled_from(["poisson", "deterministic", "trace", "closed"]))
    if arrival == "closed":
        return ServingConfig(arrival="closed", **staleness)
    trace_path = None
    if arrival == "trace":
        events = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=NUM_WORKERS - 1),
                    st.floats(min_value=0.0, max_value=20.0),
                ),
                min_size=1,
                max_size=60,
            )
        )
        trace_path = str(Path(trace_dir) / "trace.jsonl")
        write_arrival_trace(trace_path, events)
    return ServingConfig(
        arrival=arrival,
        arrival_rate=draw(st.sampled_from([0.3, 1.0, 4.0])),
        trace_path=trace_path,
        queue_capacity=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=6))),
        queue_policy=draw(st.sampled_from(["drop", "block", "shed"])),
        service_seconds=draw(st.sampled_from([0.0, 0.05, 0.4])),
        protocol=draw(st.sampled_from(["fda", "bsp"])),
        arrival_seed=draw(st.integers(min_value=0, max_value=3)),
        **staleness,
    )


#: Four times the load the coordinator can serve: workers report several times
#: between two read barriers, and most of what they report is dropped.
SATURATED = ServingConfig(
    arrival="poisson", arrival_rate=2.5, queue_capacity=4, queue_policy="drop",
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
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_saturated_backlog_equals_the_oracle_under_every_monitor(self, execution, variant):
        """Deep backlogs, many ranks per settle, states outliving their settle."""
        trainer = assert_equals_oracle(
            SATURATED, lambda trainer: trainer.serve_updates(120),
            execution=execution, variant=variant, threshold=0.02,
        )
        assert trainer.sync_count > 0

    @given(
        data=st.data(),
        execution=st.sampled_from(EXECUTIONS),
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
        self, data, execution, dtype, variant, threshold, lossy, drivers
    ):
        def run(trainer):
            for driver, amount in drivers:
                drive(trainer, driver, amount / 4.0 if driver == "serve_for" else amount)

        with tempfile.TemporaryDirectory() as trace_dir:
            assert_equals_oracle(
                data.draw(serving_configs(trace_dir)), run, execution=execution,
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
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_a_driver_returns_with_every_produced_step_computed(self, execution):
        trainer = build(BacklogWatcher, SATURATED, execution=execution)

        def assert_settled():
            assert trainer._unsettled == 0 and not any(trainer._backlog)
            assert (
                sum(w.steps_performed for w in trainer.cluster.workers)
                == trainer._update_seq
            )

        for _ in range(40):
            trainer.serve_next()
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


class TestBoundedBacklog:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_a_worker_that_never_reports_does_not_let_the_backlog_grow(
        self, execution, tmp_path
    ):
        """Worker 3 is absent from the trace, so its row never reports: no
        estimate, no synchronization — only the bound settles mid-run."""
        path = tmp_path / "trace.jsonl"
        write_arrival_trace(
            str(path), [(w, 0.01 * (3 * i + w + 1)) for i in range(60) for w in range(3)]
        )
        config = ServingConfig(arrival="trace", trace_path=str(path), service_seconds=0.005)
        trainer = assert_equals_oracle(
            config, lambda trainer: trainer.serve_updates(180), BacklogWatcher,
            execution=execution,
        )
        assert trainer.updates_served == 180 and trainer.sync_count == 0
        # Reached, never passed.
        assert trainer.peak_unsettled == BACKLOG_LIMIT_PER_WORKER * NUM_WORKERS


class TestDivergence:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_a_diverging_served_run_names_its_worker(self, execution):
        trainer = build(
            RecordingTrainer,
            ServingConfig(arrival="poisson", arrival_rate=1.0, service_seconds=0.05),
            execution=execution,
            threshold=float("inf"),
            optimizer_factory=lambda worker_id: SGD(1e12 if worker_id == 2 else 0.01),
        )
        with pytest.raises(TrainingError, match="worker 2") as excinfo:
            trainer.serve_updates(200)
        assert not any(f"worker {w}" in str(excinfo.value) for w in (0, 1, 3))
        # Raised at the settle: nothing consumed the bad step.
        assert trainer.sync_count == 0
        assert np.isfinite(trainer.cluster.parameter_matrix[[0, 1, 3]]).all()
