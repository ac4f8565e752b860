"""The unified virtual-time engine.

The paper's headline claim (Figure 12 and the FL-vs-HPC discussion) is about
*time*, so every trainer and strategy reports on one clock.  :class:`Timeline`
is that clock, and the only event heap in the code base:

* **lockstep mode** (synchronous protocols): one round advances the clock by
  the *slowest participating worker's* compute time — heterogeneous per-worker
  step durations, optional per-step jitter, and optional per-round dropout
  come from one :class:`StragglerProfile`;
* **event mode** (the event-driven coordinator of
  :mod:`repro.serving.harness`): one heap orders four event kinds in virtual
  time — a coordinator :data:`SERVICE` completion, an update's
  :data:`ENQUEUE`, an exogenous client :data:`ARRIVAL`, and a worker-step
  :data:`COMPLETION`.  The pop order ``(time, kind, worker, seq)`` is a
  contract: at one instant the server is freed first, then uploaded updates
  are admitted, then new arrivals and finished steps are processed; equal
  kinds pop in ascending worker id, and one worker's events in scheduling
  (FIFO) order;
* **communication time**: a collective's virtual seconds — priced and booked
  by the cluster's :class:`~repro.distributed.topology.Fabric`, the one ledger
  of communication seconds — move this clock too, so compute and
  communication share one comparable clock.  A collective is a barrier for
  *compute*: it delays pending step completions, never exogenous arrivals or
  updates already in flight to or at the coordinator.

The timeline owns the clock, the compute seconds and the event heap; churn is
recorded by the fault plane's :class:`~repro.faults.injector.FaultLog`.

With the default profile (uniform unit step time, no jitter, no stragglers,
no dropout) and no network model, the timeline is a pure observer: byte
counts and parameter trajectories are bit-identical to the pre-timeline code.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ExperimentError
from repro.utils.rng import as_rng

#: Event kinds.  The value is the pop priority at equal virtual times.
SERVICE, ENQUEUE, ARRIVAL, COMPLETION = range(4)


@dataclass(frozen=True)
class StragglerProfile:
    """Per-worker step-duration model.

    Worker ``k``'s step duration is drawn once as
    ``base * (1 + slowdown_k)`` where ``slowdown_k`` is 0 for regular workers
    and ``straggler_factor − 1`` for the chosen stragglers; optional jitter
    adds per-step log-normal noise.
    """

    base_step_seconds: float = 1.0
    straggler_fraction: float = 0.0
    straggler_factor: float = 4.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base_step_seconds <= 0:
            raise ConfigurationError(
                f"base_step_seconds must be positive, got {self.base_step_seconds}"
            )
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ConfigurationError(
                f"straggler_fraction must lie in [0, 1], got {self.straggler_fraction}"
            )
        if self.straggler_factor < 1.0:
            raise ConfigurationError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be non-negative, got {self.jitter}")

    def step_durations(self, num_workers: int, seed=None) -> np.ndarray:
        """Base step duration per worker (before per-step jitter)."""
        rng = as_rng(seed)
        durations = np.full(num_workers, self.base_step_seconds, dtype=np.float64)
        num_stragglers = int(round(num_workers * self.straggler_fraction))
        if num_stragglers:
            stragglers = rng.choice(num_workers, size=num_stragglers, replace=False)
            durations[stragglers] *= self.straggler_factor
        return durations


class Timeline:
    """One virtual clock for compute and communication.

    ``dropout_rate`` enables partial participation: each lockstep round, every
    worker independently sits out with that probability (at least one worker
    always participates).  Dropped workers neither compute nor gate the
    round's duration — the protocol layer decides what their absence means for
    the collectives.
    """

    def __init__(
        self,
        num_workers: int,
        profile: Optional[StragglerProfile] = None,
        seed=0,
        dropout_rate: float = 0.0,
    ) -> None:
        if num_workers <= 0:
            raise ConfigurationError(f"num_workers must be positive, got {num_workers}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ConfigurationError(
                f"dropout_rate must lie in [0, 1), got {dropout_rate}"
            )
        self.num_workers = int(num_workers)
        self.profile = profile or StragglerProfile()
        self.dropout_rate = float(dropout_rate)
        self._rng = as_rng(seed)
        self._durations = self.profile.step_durations(self.num_workers, seed=self._rng)
        self.now = 0.0
        self.compute_seconds = 0.0
        self.rounds_advanced = 0
        # Event mode: a heap of (time, kind, worker_id, seq, payload).  The
        # tie-break is part of the contract, not an accident of heap layout
        # (see the module docstring); the monotone sequence number is unique,
        # so payloads are never compared.
        self._queue: List[Tuple[float, int, int, int, Any]] = []
        self._event_seq = 0

    # -- durations -------------------------------------------------------------

    def step_duration(self, worker_id: int) -> float:
        """One step's duration for ``worker_id``, with fresh jitter if enabled."""
        duration = float(self._durations[worker_id])
        if self.profile.jitter:
            duration *= float(np.exp(self._rng.normal(scale=self.profile.jitter)))
        return duration

    # -- participation ---------------------------------------------------------

    def sample_participation(self) -> Optional[np.ndarray]:
        """Boolean participation mask for one round, or ``None`` when everyone runs.

        With ``dropout_rate == 0`` no randomness is consumed, keeping default
        trajectories bit-identical to the pre-timeline code.  The mask flows
        into ``cluster.step_all(active=...)``, whose engine steps only the
        active rows of its stacked matrices; protocols sample once per
        lockstep step — FDA, BSP, and Local-SGD all draw from this one
        stream.
        """
        if not self.dropout_rate:
            return None
        mask = self._rng.random(self.num_workers) >= self.dropout_rate
        if not mask.any():
            mask[int(self._rng.integers(self.num_workers))] = True
        return mask

    # -- lockstep mode ----------------------------------------------------------

    def advance_round(self, steps: int = 1, active: Optional[np.ndarray] = None) -> float:
        """Advance the clock by ``steps`` lockstep compute steps.

        The round lasts as long as the slowest *participating* worker: with a
        jitter-free profile that is ``steps * max(durations[active])``; with
        jitter each step draws fresh per-worker noise.  Returns the elapsed
        virtual seconds.
        """
        if steps < 0:
            raise ConfigurationError(f"steps must be non-negative, got {steps}")
        if steps == 0:
            return 0.0
        durations = self._durations if active is None else self._durations[active]
        if durations.size == 0:
            return 0.0
        if self.profile.jitter:
            noise = np.exp(
                self._rng.normal(scale=self.profile.jitter, size=(steps, durations.size))
            )
            elapsed = float((durations * noise).max(axis=1).sum())
        else:
            elapsed = float(steps) * float(durations.max())
        self.now += elapsed
        self.compute_seconds += elapsed
        self.rounds_advanced += 1
        return elapsed

    # -- event mode -------------------------------------------------------------

    def schedule(self, time: float, kind: int, worker_id: int, payload: Any = None) -> None:
        """Put one ``kind`` event of ``worker_id`` on the heap at virtual ``time``."""
        heapq.heappush(
            self._queue, (float(time), kind, worker_id, self._event_seq, payload)
        )
        self._event_seq += 1

    def schedule_step(self, worker_id: int, start_time: Optional[float] = None) -> float:
        """Schedule ``worker_id``'s next step completion; returns its time.

        Completions with equal times are guaranteed to pop in ascending
        worker id (and, within one worker, in scheduling order) — protocol
        trajectories must not depend on how the heap happens to lay out ties.
        """
        if not 0 <= worker_id < self.num_workers:
            raise ConfigurationError(
                f"worker_id must lie in [0, {self.num_workers}), got {worker_id}"
            )
        start = self.now if start_time is None else float(start_time)
        completion = start + self.step_duration(worker_id)
        self.schedule(completion, COMPLETION, worker_id)
        return completion

    def next_event_time(self) -> Optional[float]:
        """The virtual time of the earliest pending event (or ``None``)."""
        return self._queue[0][0] if self._queue else None

    def pop_event(self) -> Tuple[float, int, int, Any]:
        """Advance the clock to the next event; return ``(time, kind, worker, payload)``.

        A step completion is compute: the clock lands on it and the elapsed
        seconds are charged as compute.  The other kinds are idle waits on
        times no barrier moves, so one can pop after a barrier has carried the
        clock past it — the clock then stays where it is.
        """
        if not self._queue:
            raise ExperimentError("no pending events in the timeline")
        time, kind, worker_id, _, payload = heapq.heappop(self._queue)
        if kind == COMPLETION:
            self.compute_seconds += max(time - self.now, 0.0)
            self.now = time
        else:
            self.advance_to(time)
        return time, kind, worker_id, payload

    def delay_pending(self, seconds: float) -> None:
        """Push every pending step completion ``seconds`` into the future (a barrier).

        Barriers delay compute, not arrivals: clients keep sending at their
        own pace, and an update already uploaded or in service is not slowed
        by a collective it takes no part in.
        """
        if seconds <= 0:
            return
        self._queue = [
            (time + seconds if kind == COMPLETION else time, kind, worker, seq, payload)
            for time, kind, worker, seq, payload in self._queue
        ]
        heapq.heapify(self._queue)

    # -- communication & bookkeeping --------------------------------------------

    def add_communication(self, seconds: float) -> None:
        """Move the clock past a collective's virtual seconds (booked by the fabric).

        In event mode the collective acts as a barrier: pending step
        completions are delayed by the same amount.
        """
        if seconds < 0:
            raise ConfigurationError(f"seconds must be non-negative, got {seconds}")
        if seconds == 0.0:
            return
        self.now += seconds
        if self._queue:
            self.delay_pending(seconds)

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` (idle wait); never backwards."""
        if time > self.now:
            self.now = float(time)

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the clock, event heap and RNG stream.

        Only payload-free events (step completions, arrivals) can be encoded;
        an update in flight raises rather than restoring to a shorter heap.
        """
        if any(entry[4] is not None for entry in self._queue):
            raise ExperimentError(
                "cannot snapshot a timeline with updates in flight: enqueue and "
                "service events carry payloads the snapshot cannot encode"
            )
        return {
            "now": self.now,
            "compute_seconds": self.compute_seconds,
            "rounds_advanced": self.rounds_advanced,
            "queue": [list(entry[:4]) for entry in self._queue],
            "event_seq": self._event_seq,
            "durations": self._durations.copy(),
            "rng": self._rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict` (bit-exact stream)."""
        self.now = float(state["now"])
        self.compute_seconds = float(state["compute_seconds"])
        self.rounds_advanced = int(state["rounds_advanced"])
        self._queue = [
            (float(time), int(kind), int(worker), int(seq), None)
            for time, kind, worker, seq in state["queue"]
        ]
        heapq.heapify(self._queue)
        self._event_seq = int(state["event_seq"])
        self._durations[...] = state["durations"]
        self._rng.bit_generator.state = state["rng"]

    def __repr__(self) -> str:
        return (
            f"Timeline(K={self.num_workers}, t={self.now:.2f}, "
            f"compute={self.compute_seconds:.2f}s)"
        )
