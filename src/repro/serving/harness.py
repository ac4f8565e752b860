"""The served coordinator: open-loop load over the event-mode timeline.

:class:`ServedFDATrainer` runs the asynchronous coordinator as a *served
system*: client updates arrive via an exogenous
:class:`~repro.serving.arrivals.ArrivalProcess`, queue at the coordinator's
bounded :class:`~repro.serving.queueing.IngressQueue`, are serviced one at a
time (``service_seconds`` per aggregation), and are folded into the global
model under a staleness-aware rule.  Every serviced update records its
enqueue→aggregate virtual-time latency into a
:class:`~repro.serving.metrics.LatencyTracker`, which is where the p50/p95/p99
numbers in ``BENCH_serving.json`` come from.

Two protocols share the machinery:

* ``"fda"`` — triggered sync: the coordinator keeps the most recent state per
  worker, averages them under the staleness weights (through the PR-9
  weighted-aggregation seam), and synchronizes when the variance estimate
  crosses Θ;
* ``"bsp"`` — the lockstep baseline: a round fires unconditionally once every
  worker has delivered at least one update since the last synchronization,
  and workers upload full models rather than tiny FDA states.

Degenerate mode (``arrival="closed"``): no arrival process, unbounded queue,
instant service.  The trainer then *composes* an
:class:`~repro.core.async_fda.AsynchronousFDATrainer` and delegates every
completion to it verbatim, making bit-exactness with the pre-serving
trajectory true by construction — the parity suite pins it on both engines.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.async_fda import AsynchronousFDATrainer
from repro.core.monitor import VarianceMonitor, make_monitor
from repro.core.state import average_states
from repro.core.timeline import StragglerProfile, Timeline
from repro.distributed.cluster import CATEGORY_MODEL, CATEGORY_STATE, SimulatedCluster
from repro.distributed.participation import Participation
from repro.exceptions import ConfigurationError, ExperimentError
from repro.serving.aggregation import staleness_weight
from repro.serving.arrivals import build_arrival_process
from repro.serving.config import ServingConfig
from repro.serving.metrics import LatencyTracker
from repro.serving.queueing import IngressQueue, PendingUpdate

__all__ = ["ServedFDATrainer", "ServingReport", "serve_workload"]

#: Event priorities at equal virtual times: free the server first, then admit
#: freshly uploaded updates, then process new arrivals.
_PRIORITY_SERVICE = 0
_PRIORITY_ENQUEUE = 1
_PRIORITY_ARRIVAL = 2


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
        row = {
            "protocol": self.protocol,
            "arrival": self.arrival,
            "arrival_rate": self.arrival_rate,
            "queue_policy": self.queue_policy,
            "queue_capacity": self.queue_capacity,
            "staleness_rule": self.staleness_rule,
            "service_seconds": self.service_seconds,
            "updates_served": self.updates_served,
            "updates_offered": self.updates_offered,
            "updates_dropped": self.updates_dropped,
            "updates_shed": self.updates_shed,
            "stale_rejected": self.stale_rejected,
            "sync_count": self.sync_count,
            "virtual_seconds": self.virtual_seconds,
            "throughput": self.throughput,
            "max_queue_depth": self.max_queue_depth,
            "total_bytes": self.total_bytes,
        }
        row.update({f"latency_{key}": value for key, value in self.latency.items()})
        return row


class ServedFDATrainer:
    """Open-loop served coordinator over a :class:`SimulatedCluster`.

    Timeline precedence matches :class:`AsynchronousFDATrainer`: an explicit
    ``timeline`` wins, else an explicit ``profile`` builds one, else the
    cluster's own timeline is used — so workload-configured straggler
    profiles flow through unchanged.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        monitor: VarianceMonitor,
        threshold: float,
        config: ServingConfig,
        profile: Optional[StragglerProfile] = None,
        seed: int = 0,
        timeline: Optional[Timeline] = None,
    ) -> None:
        if threshold < 0:
            raise ConfigurationError(
                f"threshold (Theta) must be non-negative, got {threshold}"
            )
        self.cluster = cluster
        self.monitor = monitor
        self.threshold = float(threshold)
        self.config = config
        self.latency = LatencyTracker()
        self.queue = IngressQueue(config.queue_capacity, config.queue_policy)
        self.stale_rejected = 0
        self.updates_served = 0
        self.blocked_peak = 0
        self._inner: Optional[AsynchronousFDATrainer] = None

        if config.arrival == "closed":
            # Degenerate mode: delegate the entire protocol to the existing
            # asynchronous trainer — zero queueing, instant service, latency
            # identically zero.  Bit-exactness by construction.
            self._inner = AsynchronousFDATrainer(
                cluster, monitor, threshold, profile=profile, seed=seed,
                timeline=timeline,
            )
            self.timeline = self._inner.timeline
            return

        if timeline is not None:
            if timeline.num_workers != cluster.num_workers:
                raise ConfigurationError(
                    f"timeline models {timeline.num_workers} workers, "
                    f"cluster has {cluster.num_workers}"
                )
            self.timeline = timeline
        elif profile is not None:
            self.timeline = Timeline(cluster.num_workers, profile=profile, seed=seed)
        else:
            self.timeline = cluster.timeline
        cluster.timeline = self.timeline

        initial = cluster.workers[0].get_parameters()
        cluster.broadcast_parameters(initial)
        self._reference = initial
        self._previous_reference = initial
        self.synchronization_count = 0
        self._latest: Dict[int, Tuple[object, float]] = {}
        self._contributed: Set[int] = set()
        self._arrivals = build_arrival_process(config, cluster.num_workers)
        self._events: List[Tuple[float, int, int, str, object]] = []
        self._event_seq = 0
        self._busy = False
        self._update_seq = 0
        for worker_id in range(cluster.num_workers):
            first = self._arrivals.next_arrival(worker_id, 0.0)
            if first is not None:
                self._push(first, _PRIORITY_ARRIVAL, "arrival", worker_id)

    # -- shared accessors --------------------------------------------------------

    @property
    def sync_count(self) -> int:
        if self._inner is not None:
            return self._inner.synchronization_count
        return self.synchronization_count

    @property
    def virtual_time(self) -> float:
        return self.timeline.now

    @property
    def state_elements(self) -> int:
        return self.monitor.state_num_elements(self.cluster.model_dimension)

    # -- event plumbing ----------------------------------------------------------

    def _push(self, time: float, priority: int, kind: str, payload: object) -> None:
        heapq.heappush(
            self._events, (float(time), priority, self._event_seq, kind, payload)
        )
        self._event_seq += 1

    # -- degenerate delegation ---------------------------------------------------

    def _serve_closed(self) -> bool:
        if self.timeline.next_completion_time() is None:
            return False
        self._inner.process_next_completion()
        # Closed-loop bookkeeping: every completion is one update consumed
        # the instant it was produced — zero queueing latency by definition.
        self.queue.offered += 1
        self.queue.enqueued += 1
        self.queue.dequeued += 1
        self.latency.record(0.0)
        self.updates_served += 1
        return True

    # -- open-loop protocol ------------------------------------------------------

    def _handle_arrival(self, worker_id: int, event_time: float) -> None:
        self.timeline.advance_to(event_time)
        # Open loop: the next arrival is a function of this arrival's time
        # only, never of coordinator backlog.
        next_time = self._arrivals.next_arrival(worker_id, event_time)
        if next_time is not None:
            self._push(next_time, _PRIORITY_ARRIVAL, "arrival", worker_id)
        # The client performs one local step and ships the result.
        self.cluster.engine.step_worker(worker_id)
        worker = self.cluster.workers[worker_id]
        if self.config.protocol == "fda":
            state = self.monitor.local_state(worker.drift_from(self._reference))
            elements, category = self.state_elements, CATEGORY_STATE
        else:
            # BSP workers upload their full model, not a tiny FDA state.
            state = None
            elements, category = self.cluster.model_dimension, CATEGORY_MODEL
        charge = self.cluster.charge_upload(elements, category, worker_id)
        update = PendingUpdate(
            worker_id=worker_id,
            enqueue_time=event_time + charge.seconds,
            version=self.synchronization_count,
            seq=self._update_seq,
            state=state,
        )
        self._update_seq += 1
        self._push(update.enqueue_time, _PRIORITY_ENQUEUE, "enqueue", update)

    def _handle_enqueue(self, update: PendingUpdate, event_time: float) -> None:
        self.timeline.advance_to(event_time)
        self.queue.offer(update, self.timeline.now)
        self.blocked_peak = max(self.blocked_peak, self.queue.blocked)
        if not self._busy and self.queue:
            self._start_service()

    def _start_service(self) -> None:
        update = self.queue.pop(self.timeline.now)
        self._busy = True
        completion = self.timeline.now + self.config.service_seconds
        self._push(completion, _PRIORITY_SERVICE, "service", update)

    def _handle_service(self, update: PendingUpdate, event_time: float) -> bool:
        self.timeline.advance_to(event_time)
        self._busy = False
        # Latency is enqueue→aggregate, recorded before any sync this update
        # triggers (the sync barrier inflates *later* updates' latencies).
        self.latency.record(self.timeline.now - update.enqueue_time)
        self.updates_served += 1
        staleness = self.synchronization_count - update.version
        weight = staleness_weight(
            self.config.staleness_rule,
            staleness,
            max_staleness=self.config.max_staleness,
            poly_alpha=self.config.poly_alpha,
        )
        if weight <= 0.0:
            self.stale_rejected += 1
        elif self.config.protocol == "fda":
            self._latest[update.worker_id] = (update.state, weight)
            if len(self._latest) == self.cluster.num_workers:
                self._maybe_synchronize_fda()
        else:
            self._contributed.add(update.worker_id)
            if len(self._contributed) == self.cluster.num_workers:
                self._synchronize()
                self._contributed.clear()
        if self.queue:
            self._start_service()
        return True

    def _maybe_synchronize_fda(self) -> None:
        ordered = [self._latest[w] for w in range(self.cluster.num_workers)]
        states = [state for state, _ in ordered]
        if self.config.staleness_rule == "uniform":
            # None weights keep the exact np.mean path bit-for-bit.
            normalized = None
        else:
            normalized = Participation(
                weights=[weight for _, weight in ordered]
            ).normalized()
        averaged = average_states(states, normalized)
        estimate = float(self.monitor.estimate(averaged))
        if estimate > self.threshold:
            self._synchronize()
            self._latest.clear()

    def _synchronize(self) -> None:
        # The sync barrier charges the fabric and advances the shared clock;
        # arrivals keep landing at their exogenous times, so the backlog the
        # barrier creates is exactly the saturation effect the bench plots.
        new_global = self.cluster.synchronize()
        if self.config.protocol == "fda":
            self.monitor.on_synchronization(new_global, self._previous_reference)
        self._previous_reference = self._reference
        self._reference = new_global
        self.synchronization_count += 1

    def _serve_open(self) -> bool:
        served_before = self.updates_served
        while self._events and self.updates_served == served_before:
            time, _, _, kind, payload = heapq.heappop(self._events)
            if kind == "arrival":
                self._handle_arrival(payload, time)
            elif kind == "enqueue":
                self._handle_enqueue(payload, time)
            elif kind == "service":
                self._handle_service(payload, time)
            else:  # pragma: no cover - defensive
                raise ExperimentError(f"unknown serving event kind {kind!r}")
        return self.updates_served > served_before

    # -- driving -----------------------------------------------------------------

    def serve_updates(self, num_updates: int) -> int:
        """Run until ``num_updates`` more updates have been aggregated.

        Returns how many were actually served — fewer only when the load is
        finite (a trace ran dry) and the queue drained.
        """
        if num_updates < 0:
            raise ConfigurationError(
                f"num_updates must be non-negative, got {num_updates}"
            )
        served = 0
        step = self._serve_closed if self._inner is not None else self._serve_open
        while served < num_updates and step():
            served += 1
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
            sync_count=self.sync_count,
            virtual_seconds=float(self.timeline.now),
            throughput=float(throughput),
            max_queue_depth=self.queue.max_depth,
            total_bytes=int(self.cluster.total_bytes),
            latency=self.latency.summary(),
        )

    def __repr__(self) -> str:
        return (
            f"ServedFDATrainer({self.config.describe()}, t={self.timeline.now:.1f}, "
            f"served={self.updates_served}, syncs={self.sync_count})"
        )


def serve_workload(
    workload,
    threshold: float,
    num_updates: int,
    variant: str = "linear",
    serving: Optional[ServingConfig] = None,
) -> ServingReport:
    """Build a workload's cluster, serve ``num_updates`` through it, report.

    ``serving`` defaults to ``workload.serving`` (set via
    :meth:`~repro.experiments.setup.WorkloadConfig.with_serving`); passing an
    explicit config overrides it.  This is the entry point the ``cli serve``
    command and the serving benchmark's run table lower onto.
    """
    from repro.experiments.setup import build_cluster

    config = serving if serving is not None else getattr(workload, "serving", None)
    if config is None:
        raise ConfigurationError(
            "workload has no serving config; use with_serving() or pass one"
        )
    cluster, _ = build_cluster(workload)
    monitor = make_monitor(variant, cluster.model_dimension, seed=workload.seed)
    trainer = ServedFDATrainer(
        cluster, monitor, threshold, config, seed=workload.seed
    )
    trainer.serve_updates(num_updates)
    return trainer.report()
