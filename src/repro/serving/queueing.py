"""The coordinator's bounded ingress queue.

Updates arriving from clients land here before the coordinator aggregates
them.  The queue is a single-server FIFO with an optional capacity; a full
queue refuses the newcomer, which is lost (``dropped``).

Everything is a plain-Python deque, so the queue sustains hundreds of
thousands of in-flight updates without numpy round-trips.  The conservation
invariant — every offered update is accounted as aggregated, dropped, or
still queued — is checked property-style in ``tests/test_serving.py`` under
arbitrary interleavings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

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
    """Bounded FIFO ingress queue; a full queue drops the newcomer.

    Counters satisfy, at every instant::

        offered == dequeued + dropped + depth
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1 or None (unbounded), got {capacity}"
            )
        self.capacity = capacity
        self._queue: Deque[PendingUpdate] = deque()
        self.offered = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.max_depth = 0

    # -- state -----------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Updates queued right now."""
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    # -- operations ------------------------------------------------------------

    def offer(self, update: PendingUpdate) -> str:
        """Present one update to the queue; returns its fate.

        ``"enqueued"`` — admitted; ``"dropped"`` — refused by a full queue.
        """
        self.offered += 1
        if self.capacity is not None and len(self._queue) >= self.capacity:
            self.dropped += 1
            return "dropped"
        self._queue.append(update)
        self.enqueued += 1
        self.max_depth = max(self.max_depth, len(self._queue))
        return "enqueued"

    def pop(self) -> PendingUpdate:
        """Dequeue the oldest update for service."""
        if not self._queue:
            raise ExperimentError("cannot pop from an empty ingress queue")
        self.dequeued += 1
        return self._queue.popleft()

    # -- invariants ------------------------------------------------------------

    @property
    def lost(self) -> int:
        """Updates that will never be aggregated (refused by a full queue)."""
        return self.dropped

    def conservation_holds(self) -> bool:
        """The ledger invariant: offered == dequeued + lost + depth."""
        return self.offered == self.dequeued + self.lost + self.depth

    def __repr__(self) -> str:
        capacity = "inf" if self.capacity is None else self.capacity
        return (
            f"IngressQueue(cap={capacity}, depth={self.depth}, "
            f"offered={self.offered}, lost={self.lost})"
        )
