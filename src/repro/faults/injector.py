"""Deterministic fault injection driven by a :class:`~repro.faults.plan.FaultPlan`.

The injector is the single mutable object behind every injected fault.  It
owns one named RNG stream per fault *category* ("faults/churn",
"faults/links"), created lazily only when that category's rate is non-zero,
so enabling link loss never shifts the churn stream and vice versa.  Crucially, none of these streams
touch the training RNGs (data sampling, Dropout, initialization): a faulted
run draws exactly the same training randomness as a fault-free one, which is
what makes degradation attributable to the faults alone.

Determinism contract: two runs with the same :class:`FaultPlan` (same seed)
and the same round/collective sequence produce bit-identical fault draws and
therefore identical :class:`FaultLog` contents — the `chaos-smoke` CI job
asserts exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.utils.rng import RngFactory

#: Retransmissions per link per collective are capped here; after the cap the
#: transfer is assumed delivered (the simulation never deadlocks on an unlucky
#: stream).
MAX_RETRIES = 5
#: Capped exponential backoff: retry *i* (0-based) waits
#: ``min(BACKOFF_BASE_SECONDS * 2**i, BACKOFF_CAP_SECONDS)`` virtual seconds.
BACKOFF_BASE_SECONDS = 0.1
BACKOFF_CAP_SECONDS = 2.0


@dataclass
class FaultLog:
    """Append-only record of every injected event and its charged cost.

    Persisted on :class:`~repro.experiments.run.RunResult` (via
    :meth:`to_dict`) so faulted runs are auditable after the fact: the bench
    conservation check recomputes ``retransmitted_bytes`` from the per-link
    entries and compares against the fabric ledger delta.
    """

    crashes: List[Dict[str, object]] = field(default_factory=list)
    rejoins: List[Dict[str, object]] = field(default_factory=list)
    retransmissions: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def record_crash(self, round_index: int, worker_id: int, time: float) -> None:
        self.crashes.append(
            {"round": round_index, "worker": worker_id, "time": time}
        )

    def record_rejoin(
        self,
        round_index: int,
        worker_id: int,
        time: float,
        recovery_latency: float,
    ) -> None:
        self.rejoins.append(
            {
                "round": round_index,
                "worker": worker_id,
                "time": time,
                "recovery_latency": recovery_latency,
                "recovery_bytes": 0,
                "recovery_seconds": 0.0,
            }
        )

    def note_recovery_cost(self, worker_id: int, num_bytes: int, seconds: float) -> None:
        """Attach the model-download cost to the worker's latest rejoin event."""
        for event in reversed(self.rejoins):
            if event["worker"] == worker_id:
                event["recovery_bytes"] = int(event["recovery_bytes"]) + int(num_bytes)
                event["recovery_seconds"] = float(event["recovery_seconds"]) + float(seconds)
                return

    def record_retransmission(
        self, link: str, retries: int, num_bytes: int, backoff_seconds: float
    ) -> None:
        entry = self.retransmissions.setdefault(
            link, {"retries": 0, "bytes": 0, "backoff_seconds": 0.0}
        )
        entry["retries"] = int(entry["retries"]) + int(retries)
        entry["bytes"] = int(entry["bytes"]) + int(num_bytes)
        entry["backoff_seconds"] = float(entry["backoff_seconds"]) + float(backoff_seconds)

    @property
    def total_retries(self) -> int:
        return sum(int(entry["retries"]) for entry in self.retransmissions.values())

    @property
    def retransmitted_bytes(self) -> int:
        return sum(int(entry["bytes"]) for entry in self.retransmissions.values())

    @property
    def total_backoff_seconds(self) -> float:
        # Summed in sorted link order: a restored log's dict is rebuilt sorted
        # (see ``to_dict``), so float accumulation order must not depend on
        # first-seen insertion order.
        return sum(
            float(self.retransmissions[link]["backoff_seconds"])
            for link in sorted(self.retransmissions)
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON snapshot (stored on ``RunResult.fault_log``)."""
        return {
            "crashes": [dict(event) for event in self.crashes],
            "rejoins": [dict(event) for event in self.rejoins],
            "retransmissions": {
                link: dict(entry) for link, entry in sorted(self.retransmissions.items())
            },
            "total_retries": self.total_retries,
            "retransmitted_bytes": self.retransmitted_bytes,
            "total_backoff_seconds": self.total_backoff_seconds,
        }


class FaultInjector:
    """Draws faults from a plan's seeded streams and tracks cluster liveness.

    One injector serves exactly one run.  The cluster calls
    :meth:`advance_round` once per round (before stepping) to process churn;
    the fabric calls :meth:`sample_link_retries` once per link per collective
    while loss is active.
    """

    def __init__(self, plan: FaultPlan, num_workers: int) -> None:
        if plan.is_null:
            raise ValueError("FaultInjector requires a non-null FaultPlan")
        if num_workers < 1:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.plan = plan
        self.num_workers = num_workers
        self.log = FaultLog()
        self.round_index = 0
        self.alive = np.ones(num_workers, dtype=bool)
        #: Round at which each dead worker rejoins (-1 while alive).
        self._recovery_round = np.full(num_workers, -1, dtype=np.int64)
        self._crash_time = np.zeros(num_workers, dtype=np.float64)
        factory = RngFactory(plan.seed)
        self._churn_rng = factory.named("faults/churn") if plan.crash_rate > 0.0 else None
        self._links_rng = factory.named("faults/links") if plan.loss_rate > 0.0 else None

    # -- category activity -------------------------------------------------

    @property
    def churn_active(self) -> bool:
        return self._churn_rng is not None

    @property
    def loss_active(self) -> bool:
        return self._links_rng is not None

    # -- churn --------------------------------------------------------------

    def advance_round(self, now: float) -> Tuple[List[int], List[int]]:
        """Process one round of churn; returns ``(crashed, rejoined)`` ids.

        Rejoins due this round are processed first (their outage length was
        drawn at crash time, so rejoining consumes no randomness), then one
        fixed-size vector draw decides new crashes.  Drawing for *all*
        workers — dead ones included — keeps the churn stream aligned
        regardless of liveness history, which is what makes churn
        deterministic under a fixed seed.
        """
        self.round_index += 1
        rejoined: List[int] = []
        crashed: List[int] = []
        if not self.churn_active:
            return crashed, rejoined
        due = np.flatnonzero(
            (~self.alive) & (self._recovery_round <= self.round_index)
        )
        for worker_id in due:
            worker_id = int(worker_id)
            self.alive[worker_id] = True
            self._recovery_round[worker_id] = -1
            rejoined.append(worker_id)
            self.log.record_rejoin(
                self.round_index,
                worker_id,
                now,
                recovery_latency=now - float(self._crash_time[worker_id]),
            )
        draws = self._churn_rng.random(self.num_workers)
        candidates = [
            int(i) for i in np.flatnonzero(self.alive & (draws < self.plan.crash_rate))
        ]
        # Never let the whole cluster die: spare the lowest-indexed candidate
        # if the crash set would leave no survivors.
        if candidates and len(candidates) == int(self.alive.sum()):
            candidates = candidates[1:]
        for worker_id in candidates:
            outage = int(self._churn_rng.geometric(1.0 / self.plan.recovery_rounds))
            self.alive[worker_id] = False
            self._recovery_round[worker_id] = self.round_index + max(outage, 1)
            self._crash_time[worker_id] = now
            crashed.append(worker_id)
            self.log.record_crash(self.round_index, worker_id, now)
        return crashed, rejoined

    # -- lossy links ---------------------------------------------------------

    def sample_link_retries(self) -> Tuple[int, float]:
        """Draw retransmission count and total backoff delay for one link.

        One geometric draw models repeated independent transmission attempts
        with per-attempt loss probability ``loss_rate``; failures beyond
        :data:`MAX_RETRIES` are capped (the transfer is then assumed delivered).
        Returns ``(retries, backoff_seconds)``.
        """
        trials = int(self._links_rng.geometric(1.0 - self.plan.loss_rate))
        retries = min(trials - 1, MAX_RETRIES)
        backoff = sum(
            min(BACKOFF_BASE_SECONDS * (2.0 ** i), BACKOFF_CAP_SECONDS) for i in range(retries)
        )
        return retries, backoff

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot of liveness, renewal deadlines, and RNG streams."""
        streams: Dict[str, Optional[dict]] = {}
        for name in ("churn", "links"):
            rng = getattr(self, f"_{name}_rng")
            streams[name] = rng.bit_generator.state if rng is not None else None
        return {
            "round_index": self.round_index,
            "alive": [bool(flag) for flag in self.alive],
            "recovery_round": [int(value) for value in self._recovery_round],
            "crash_time": [float(value) for value in self._crash_time],
            "streams": streams,
            "log": self.log.to_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a snapshot taken by :meth:`state_dict` (bit-exact streams)."""
        self.round_index = int(state["round_index"])
        self.alive[...] = np.asarray(state["alive"], dtype=bool)
        self._recovery_round[...] = np.asarray(state["recovery_round"], dtype=np.int64)
        self._crash_time[...] = np.asarray(state["crash_time"], dtype=np.float64)
        streams = state["streams"]
        for name in ("churn", "links"):
            rng = getattr(self, f"_{name}_rng")
            if rng is not None and streams.get(name) is not None:
                rng.bit_generator.state = streams[name]
        log_state = state["log"]
        self.log = FaultLog()
        self.log.crashes = [dict(event) for event in log_state["crashes"]]
        self.log.rejoins = [dict(event) for event in log_state["rejoins"]]
        self.log.retransmissions = {
            link: dict(entry) for link, entry in log_state["retransmissions"].items()
        }
