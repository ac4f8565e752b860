"""The event-driven coordinator: Section 3.3 of the paper as a served system.

The synchronous protocol advances all workers in lockstep, which one
straggler can stall.  The paper's asynchronous variant makes one node a
*coordinator*: a worker sends its small local state whenever it finishes a
local step, the coordinator evaluates the variance over-estimate on the most
recent state from every worker, and orders a synchronization when it exceeds
Θ.  :class:`ServedFDATrainer` is that coordinator, driven by the events of the
cluster's :class:`~repro.core.timeline.Timeline`: an update is produced (a
worker steps and uploads), reaches the bounded
:class:`~repro.serving.queueing.IngressQueue`, is serviced one at a time
(``service_seconds`` per aggregation) and folded in under a staleness-aware
rule.  Every serviced update records its enqueue→aggregate virtual-time
latency into a :class:`~repro.serving.metrics.LatencyTracker`, which is where
the p50/p95/p99 numbers in ``BENCH_serving.json`` come from.

The coordinator's view of the workers is the protocol's state table
(:class:`~repro.core.fda.FDAProtocol`): an aggregated update writes its
worker's row, and once every row has reported since the last synchronization
each further update is followed by one estimate over the whole table.

*Who reports when* is a schedule feeding that one rule:

* open loop (``arrival="poisson" | "deterministic" | "trace"``) — updates are
  produced at the exogenous times of an
  :class:`~repro.serving.arrivals.ArrivalProcess`, whatever the backlog, and
  reach the queue after their upload latency;
* closed loop (``arrival="closed"``) — the paper's protocol as written: a
  worker reports when the timeline says its step completed, the update is
  aggregated at that instant (unbounded queue, instant service, latency
  identically zero), and the worker starts its next step once that is done —
  after any synchronization it triggered — and its upload latency has passed.

Two protocols share the machinery: ``"fda"`` (triggered sync, as above) and
``"bsp"``, the lockstep baseline — a round fires unconditionally once every
worker has delivered an update since the last synchronization, and workers
upload full models rather than tiny FDA states.

*When a step is computed* is not an event: workers are independent between
synchronizations, so producing an update does in event order only what order
can change (arrival draw, upload charge, ``version``, ``seq``, ``step_index``);
:meth:`ServedFDATrainer._settle` computes the backlogged steps before an
estimate, a synchronization or a driver's return reads them.  A diverging step
raises ``TrainingError``, naming its worker, at that settle and aborts the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.composition import check_composition, features
from repro.core.fda import FDAProtocol
from repro.core.monitor import VarianceMonitor, make_monitor
from repro.core.timeline import ARRIVAL, ENQUEUE, SERVICE, StragglerProfile, Timeline
from repro.distributed.cluster import CATEGORY_MODEL, CATEGORY_STATE, SimulatedCluster
from repro.distributed.participation import Participation
from repro.exceptions import ConfigurationError
from repro.serving.aggregation import staleness_weight
from repro.serving.arrivals import build_arrival_process
from repro.serving.config import ServingConfig
from repro.serving.metrics import LatencyTracker
from repro.serving.queueing import IngressQueue, PendingUpdate

__all__ = ["ServedFDATrainer", "ServedUpdate", "ServingReport", "serve_workload"]

#: Settle unprompted at this many uncomputed steps per worker: a trace can starve the barrier.
BACKLOG_LIMIT_PER_WORKER = 8


class ServedUpdate(NamedTuple):
    """The coordinator's record of one aggregated update.

    ``step_index`` is the producing worker's step count when it made the
    update; ``variance_estimate`` is NaN until every worker has reported since
    the last synchronization (and always under ``"bsp"``).
    """

    time: float
    worker_id: int
    step_index: int
    variance_estimate: float
    synchronized: bool


@dataclass
class ServingReport:
    """Summary of one served run (one row of the serving benchmark)."""

    protocol: str
    arrival: str
    arrival_rate: float
    queue_policy: str
    queue_capacity: Optional[int]
    staleness_rule: str
    service_seconds: float
    updates_served: int
    updates_offered: int
    updates_dropped: int
    updates_shed: int
    updates_blocked_peak: int
    stale_rejected: int
    sync_count: int
    virtual_seconds: float
    throughput: float
    max_queue_depth: int
    total_bytes: int
    latency: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        row = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "latency"}
        row.update({f"latency_{key}": value for key, value in self.latency.items()})
        return row


class ServedFDATrainer(FDAProtocol):
    """The event-driven coordinator over a :class:`SimulatedCluster`.

    The trainer drives the cluster's timeline.  An explicit ``profile``
    builds a fresh :class:`~repro.core.timeline.Timeline` from it and ``seed``
    and installs it as the fabric's clock; otherwise the cluster's own
    timeline is used as-is — so a straggler timeline configured through
    ``WorkloadConfig.compute_profile`` is honoured.  Either way, communication
    charged by the fabric and the trainer's events advance the same clock.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        monitor: VarianceMonitor,
        threshold: float,
        config: ServingConfig,
        profile: Optional[StragglerProfile] = None,
        seed: int = 0,
    ) -> None:
        check_composition("served", *features(cluster))
        super().__init__(cluster, monitor, threshold)
        if profile is not None:
            cluster.fabric.clock = Timeline(cluster.num_workers, profile=profile, seed=seed)
        self.timeline = cluster.timeline
        self.config = config
        self.latency = LatencyTracker()
        self.queue = IngressQueue(config.queue_capacity, config.queue_policy)
        self.stale_rejected = 0
        self.updates_served = 0
        self.blocked_peak = 0
        # Staleness weight of each worker's row, and how many rows have not
        # reported since the last sync — plain Python, so aggregating an
        # update costs no numpy call beyond its row write.
        self._weights = [1.0] * cluster.num_workers
        self._unreported = cluster.num_workers
        # Aggregated updates whose rows the next settle writes (their step
        # may not be computed yet), in aggregation order, so the latest wins.
        self._aggregated: List[PendingUpdate] = []
        # Per worker, the produced updates whose local step is not computed yet.
        self._backlog: List[List[PendingUpdate]] = [[] for _ in cluster.workers]
        self._unsettled = 0
        self._arrivals = build_arrival_process(config, cluster.num_workers)
        self._busy = False
        self._update_seq = 0
        for worker_id in range(cluster.num_workers):
            if self._arrivals is None:
                self.timeline.schedule_step(worker_id, start_time=0.0)
                continue
            first = self._arrivals.next_arrival(worker_id, 0.0)
            if first is not None:
                self.timeline.schedule(first, ARRIVAL, worker_id)

    @property
    def sync_count(self) -> int:
        return self.synchronization_count

    @property
    def virtual_time(self) -> float:
        """The current virtual clock (the shared timeline's)."""
        return self.timeline.now

    # -- the protocol ------------------------------------------------------------

    def _produce_update(self, worker_id: int, event_time: float) -> None:
        """A worker finishes a local step and ships the result to the coordinator.

        Everything whose order is observable happens here; the step itself
        joins the worker's backlog for :meth:`_settle`.
        """
        closed = self._arrivals is None
        if not closed:
            # Open loop: the next arrival is a function of this arrival's time
            # only, never of coordinator backlog.
            next_time = self._arrivals.next_arrival(worker_id, event_time)
            if next_time is not None:
                self.timeline.schedule(next_time, ARRIVAL, worker_id)
        if self.config.protocol == "fda":
            elements, category = self.state_elements_per_step, CATEGORY_STATE
        else:
            # BSP workers upload their full model, not a tiny FDA state.
            elements, category = self.cluster.model_dimension, CATEGORY_MODEL
        # Point-to-point traffic routed through the fabric (one hop on the
        # star; more on multi-hop topologies).
        charge = self.cluster.fabric.upload(elements, category, worker_id)
        backlog = self._backlog[worker_id]
        update = PendingUpdate(
            worker_id=worker_id,
            # Closed loop: the coordinator sees the state the instant the step
            # completes and the sender pays the upload before its next step.
            enqueue_time=event_time if closed else event_time + charge.seconds,
            version=self.synchronization_count,
            seq=self._update_seq,
            step_index=self.cluster.workers[worker_id].steps_performed + len(backlog) + 1,
            upload_seconds=charge.seconds,
        )
        self._update_seq += 1
        backlog.append(update)
        self._unsettled += 1
        self.timeline.schedule(update.enqueue_time, ENQUEUE, worker_id, update)
        if self._unsettled >= BACKLOG_LIMIT_PER_WORKER * len(self._backlog):
            self._settle()

    def _settle(self) -> None:
        """Compute the backlog rank by rank: every worker's oldest uncomputed
        step as one masked ``engine.step_all``, then their states; then write
        the rows of the updates aggregated since the last settle.  No sync
        falls between a step's event and its settle, so the cluster's shared
        model is the event's reference."""
        if self._unsettled:
            depth = np.array([len(backlog) for backlog in self._backlog])
            for rank in range(int(depth.max())):
                due = depth > rank
                self.cluster.engine.step_all(active=due)
                if self.config.protocol == "fda":
                    rows = np.flatnonzero(due)
                    drifts = self.cluster.parameter_matrix[rows]
                    drifts -= self.cluster.shared_parameters
                    for row, state in zip(rows, self.monitor.local_states(drifts)):
                        self._backlog[row][rank].state = state
            self._backlog = [[] for _ in self._backlog]
            self._unsettled = 0
        for update in self._aggregated:
            self.states[update.worker_id] = update.state
        self._aggregated.clear()

    def _admit(self, update: PendingUpdate) -> None:
        self.queue.offer(update, self.timeline.now)
        self.blocked_peak = max(self.blocked_peak, self.queue.blocked)
        if not self._busy and self.queue:
            self._start_service()

    def _start_service(self) -> None:
        update = self.queue.pop(self.timeline.now)
        self._busy = True
        completion = self.timeline.now + self.config.service_seconds
        self.timeline.schedule(completion, SERVICE, update.worker_id, update)

    def _aggregate(self, update: PendingUpdate) -> ServedUpdate:
        self._busy = False
        # Latency is enqueue→aggregate, recorded before any sync this update
        # triggers (the sync barrier inflates *later* updates' latencies).
        self.latency.record(self.timeline.now - update.enqueue_time)
        self.updates_served += 1
        weight = staleness_weight(
            self.config.staleness_rule,
            self.synchronization_count - update.version,
            max_staleness=self.config.max_staleness,
            poly_alpha=self.config.poly_alpha,
        )
        estimate, synchronized = float("nan"), False
        if weight <= 0.0:
            self.stale_rejected += 1
        else:
            fda = self.config.protocol == "fda"
            worker = update.worker_id
            if fda:
                self._weights[worker] = weight
                self._aggregated.append(update)
            if not self.reported[worker]:
                self.reported[worker] = True
                self._unreported -= 1
            if not self._unreported:
                self._settle()  # an estimate or a sync reads every worker
                if fda:
                    estimate = self._estimate()
                if not fda or estimate > self.threshold:
                    # The sync is a barrier for compute: the fabric's seconds
                    # delay every pending step completion.  Arrivals keep
                    # landing at their exogenous times, so the backlog the
                    # barrier creates is exactly the saturation effect the
                    # bench plots.
                    self._complete_synchronization(notify_monitor=fda)
                    self.reported[:] = False
                    self._unreported = self.cluster.num_workers
                    synchronized = True
        if self.queue:
            self._start_service()
        if self._arrivals is None:
            # Closed loop: the sender was waiting for this answer.
            self.timeline.schedule_step(
                update.worker_id, start_time=self.timeline.now + update.upload_seconds
            )
        return ServedUpdate(
            self.timeline.now, update.worker_id, update.step_index, estimate, synchronized
        )

    def _estimate(self) -> float:
        """The variance over-estimate on every worker's row (its most recent state)."""
        weights = self._weights
        # Equal weights are the plain mean (always the case in the closed
        # loop, where nothing is ever stale).
        normalized = (
            None
            if min(weights) == max(weights)
            else Participation(weights=weights).normalized()
        )
        return float(self.monitor.estimate(self.monitor.average(self.states, normalized)))

    def _process_event(self) -> Optional[ServedUpdate]:
        """Handle the timeline's next event; the record if it aggregated an update."""
        time, kind, worker_id, update = self.timeline.pop_event()
        if kind == SERVICE:
            return self._aggregate(update)
        if kind == ENQUEUE:
            self._admit(update)
        else:  # an exogenous ARRIVAL, or the closed loop's step COMPLETION
            self._produce_update(worker_id, time)
        return None

    # -- driving -----------------------------------------------------------------

    def _serve_one(self) -> Optional[ServedUpdate]:
        record = None
        while record is None and self.timeline.next_event_time() is not None:
            record = self._process_event()
        return record

    def serve_updates(self, num_updates: int) -> int:
        """Run until ``num_updates`` more updates have been aggregated.

        Returns how many were actually served — fewer only when the load ran
        dry.
        """
        if num_updates < 0:
            raise ConfigurationError(f"num_updates must be non-negative, got {num_updates}")
        served = 0
        while served < num_updates and self._serve_one() is not None:
            served += 1
        self._settle()
        return served

    def serve_for(self, virtual_seconds: float) -> int:
        """Process events until the clock passes ``virtual_seconds``; returns updates served."""
        if virtual_seconds <= 0:
            raise ConfigurationError(f"virtual_seconds must be positive, got {virtual_seconds}")
        deadline = self.timeline.now + virtual_seconds
        served = 0
        while (due := self.timeline.next_event_time()) is not None and due <= deadline:
            served += self._process_event() is not None
        self.timeline.advance_to(deadline)
        self._settle()
        return served

    # -- reporting ---------------------------------------------------------------

    def report(self) -> ServingReport:
        elapsed = self.timeline.now
        throughput = self.updates_served / elapsed if elapsed > 0 else 0.0
        return ServingReport(
            protocol=self.config.protocol,
            arrival=self.config.arrival,
            arrival_rate=float(self.config.arrival_rate),
            queue_policy=self.config.queue_policy,
            queue_capacity=self.config.queue_capacity,
            staleness_rule=self.config.staleness_rule,
            service_seconds=float(self.config.service_seconds),
            updates_served=self.updates_served,
            updates_offered=self.queue.offered,
            updates_dropped=self.queue.dropped,
            updates_shed=self.queue.shed,
            updates_blocked_peak=self.blocked_peak,
            stale_rejected=self.stale_rejected,
            sync_count=self.synchronization_count,
            virtual_seconds=float(self.timeline.now),
            throughput=float(throughput),
            max_queue_depth=self.queue.max_depth,
            total_bytes=int(self.cluster.total_bytes),
            latency=self.latency.summary(),
        )

    def __repr__(self) -> str:
        return (
            f"ServedFDATrainer({self.config.describe()}, t={self.timeline.now:.1f}, "
            f"served={self.updates_served}, syncs={self.synchronization_count})"
        )


def serve_workload(
    workload,
    threshold: float,
    num_updates: int,
    variant: str = "linear",
) -> ServingReport:
    """Build a workload's cluster, serve ``num_updates`` through it, report.

    The workload's ``serving`` config drives the run.  This is the entry
    point the ``cli serve`` command and the serving benchmark's run table
    lower onto.
    """
    from repro.experiments.setup import build_cluster

    if workload.serving is None:
        raise ConfigurationError("workload has no serving config; set WorkloadConfig.serving")
    cluster, _ = build_cluster(workload)
    monitor = make_monitor(variant, cluster.model_dimension, seed=workload.seed)
    trainer = ServedFDATrainer(
        cluster, monitor, threshold, workload.serving, seed=workload.seed
    )
    trainer.serve_updates(num_updates)
    return trainer.report()
