"""The coordinator's bounded ingress queue.

Updates arriving from clients land here before the coordinator aggregates
them.  The queue is a single-server FIFO with a configurable capacity and one
of three overflow policies:

* ``"drop"`` — a full queue refuses the newcomer (it is lost);
* ``"block"`` — the newcomer waits in an unbounded *anteroom* (client-side
  back-pressure: the client holds the update until a slot frees) and is
  promoted FIFO when the queue drains; its enqueue timestamp stays the
  original arrival instant, so blocking time counts toward latency;
* ``"shed"`` — the *oldest* queued update is evicted to admit the newcomer
  (favouring fresh updates under overload).

Everything is plain-Python deques, so the queue sustains hundreds of
thousands of in-flight updates without numpy round-trips.  The conservation
invariant — every offered update is eventually accounted as aggregated,
dropped, or still in flight — is checked property-style in
``tests/test_serving.py`` under arbitrary interleavings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.exceptions import ConfigurationError, ExperimentError

__all__ = ["PendingUpdate", "IngressQueue"]


@dataclass
class PendingUpdate:
    """One client update waiting for (or undergoing) aggregation.

    ``version`` is the coordinator's synchronization count when the update's
    state was computed; staleness at aggregation time is the number of model
    synchronizations the update missed while queued.  ``step_index`` is the
    sender's step count when it made the update and ``upload_seconds`` what
    shipping it cost the sender's link.  ``state`` is the local-state row
    (:meth:`VarianceMonitor.local_states
    <repro.core.monitor.VarianceMonitor.local_states>`), once the step is
    computed.
    """

    worker_id: int
    enqueue_time: float
    version: int
    seq: int
    state: object = None
    step_index: int = 0
    upload_seconds: float = 0.0


class IngressQueue:
    """Bounded FIFO ingress queue with drop/block/shed overflow policies.

    Counters satisfy, at every instant::

        offered == dequeued + dropped + shed + in_flight

    where ``in_flight = depth + blocked`` (updates in the main queue plus the
    block-policy anteroom).  ``depth_samples`` records ``(virtual_time,
    depth)`` at every state change, giving queue depth over time for the
    metrics plane.
    """

    def __init__(self, capacity: Optional[int] = None, policy: str = "drop") -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1 or None (unbounded), got {capacity}"
            )
        if policy not in ("drop", "block", "shed"):
            raise ConfigurationError(
                f"policy must be 'drop', 'block' or 'shed', got {policy!r}"
            )
        self.capacity = capacity
        self.policy = policy
        self._queue: Deque[PendingUpdate] = deque()
        self._anteroom: Deque[PendingUpdate] = deque()
        self.offered = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.shed = 0
        self.max_depth = 0
        self.depth_samples: List[Tuple[float, int]] = []

    # -- state -----------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Updates in the main queue right now."""
        return len(self._queue)

    @property
    def blocked(self) -> int:
        """Updates waiting in the block-policy anteroom."""
        return len(self._anteroom)

    @property
    def in_flight(self) -> int:
        """Updates offered but neither aggregated nor lost yet."""
        return len(self._queue) + len(self._anteroom)

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def _full(self) -> bool:
        return self.capacity is not None and len(self._queue) >= self.capacity

    def _sample(self, now: float) -> None:
        depth = len(self._queue)
        self.max_depth = max(self.max_depth, depth)
        self.depth_samples.append((float(now), depth))

    # -- operations ------------------------------------------------------------

    def offer(self, update: PendingUpdate, now: float) -> str:
        """Present one update to the queue; returns its fate.

        ``"enqueued"`` — admitted to the main queue; ``"blocked"`` — parked
        in the anteroom (block policy); ``"dropped"`` — refused (drop policy);
        ``"shed"`` — admitted by evicting the oldest queued update.
        """
        self.offered += 1
        if not self._full():
            self._queue.append(update)
            self.enqueued += 1
            self._sample(now)
            return "enqueued"
        if self.policy == "drop":
            self.dropped += 1
            self._sample(now)
            return "dropped"
        if self.policy == "block":
            self._anteroom.append(update)
            self._sample(now)
            return "blocked"
        # shed: the oldest queued update makes room for the newcomer.
        self._queue.popleft()
        self.shed += 1
        self._queue.append(update)
        self.enqueued += 1
        self._sample(now)
        return "shed"

    def pop(self, now: float) -> PendingUpdate:
        """Dequeue the oldest update for service; promotes from the anteroom."""
        if not self._queue:
            raise ExperimentError("cannot pop from an empty ingress queue")
        update = self._queue.popleft()
        self.dequeued += 1
        if self._anteroom and not self._full():
            promoted = self._anteroom.popleft()
            self._queue.append(promoted)
            self.enqueued += 1
        self._sample(now)
        return update

    # -- invariants ------------------------------------------------------------

    @property
    def lost(self) -> int:
        """Updates that will never be aggregated (drop-refused plus shed)."""
        return self.dropped + self.shed

    def conservation_holds(self) -> bool:
        """The ledger invariant: offered == dequeued + lost + in_flight."""
        return self.offered == self.dequeued + self.lost + self.in_flight

    def __repr__(self) -> str:
        capacity = "inf" if self.capacity is None else self.capacity
        return (
            f"IngressQueue(cap={capacity}, policy={self.policy}, "
            f"depth={self.depth}, blocked={self.blocked}, "
            f"offered={self.offered}, lost={self.lost})"
        )
