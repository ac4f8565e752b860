"""Open-loop arrival processes for the serving plane.

An :class:`ArrivalProcess` answers one question: given that worker ``k``'s
previous update arrived at virtual time ``t``, when does its next update
arrive?  The processes are *open loop*: the answer depends only on the
process's own state (its private RNG stream, its trace cursor), never on how
backlogged the coordinator is — clients keep sending at their own pace even
when the queue is saturated, which is precisely what makes the p99 knee
visible.

Reproducibility contract: every stochastic draw comes from a private stream
``RngFactory(seed).named(f"arrival-{k}")`` — a pure function of
``(seed, worker)`` — so arrival sequences never perturb (and are never
perturbed by) data sampling, initialization, or timeline jitter streams.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RngFactory

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "TraceArrivals",
    "build_arrival_process",
    "write_arrival_trace",
]


class ArrivalProcess:
    """Base class: per-worker next-arrival-time generator."""

    def next_arrival(self, worker_id: int, after: float) -> Optional[float]:
        """Virtual time of ``worker_id``'s next arrival strictly after ``after``.

        Returns ``None`` when the process has no further arrivals for that
        worker (only finite traces ever exhaust).
        """
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Poisson process: i.i.d. exponential inter-arrival times per worker.

    Each worker draws from its own named stream, so the arrival sequence of
    worker ``k`` is a pure function of ``(seed, k, rate)`` — adding or
    removing workers never shifts the others' arrivals.
    """

    def __init__(self, rate: float, num_workers: int, seed: int = 0) -> None:
        if rate <= 0:
            raise ConfigurationError(f"arrival rate must be positive, got {rate}")
        if num_workers <= 0:
            raise ConfigurationError(f"num_workers must be positive, got {num_workers}")
        self.rate = float(rate)
        factory = RngFactory(seed)
        self._rngs = [factory.named(f"arrival-{k}") for k in range(num_workers)]

    def next_arrival(self, worker_id: int, after: float) -> float:
        return float(after) + float(self._rngs[worker_id].exponential(1.0 / self.rate))


class DeterministicArrivals(ArrivalProcess):
    """Fixed-interval arrivals: one update every ``1 / rate`` seconds."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ConfigurationError(f"arrival rate must be positive, got {rate}")
        self.rate = float(rate)

    def next_arrival(self, worker_id: int, after: float) -> float:
        return float(after) + 1.0 / self.rate


class TraceArrivals(ArrivalProcess):
    """Trace-driven arrivals replayed from recorded ``(worker, time)`` events.

    The trace is a JSONL file of ``{"worker": int, "time": float}`` records
    (see :func:`write_arrival_trace`); per-worker times are replayed in
    sorted order.  A recorded time at or before ``after`` is delivered at
    the first representable instant after it — the client sent the update,
    the simulation just had not caught up yet.
    """

    def __init__(self, times_by_worker: Dict[int, Sequence[float]]) -> None:
        self._times: Dict[int, List[float]] = {
            int(worker): sorted(float(t) for t in times)
            for worker, times in times_by_worker.items()
        }
        for worker, times in self._times.items():
            if any(t < 0 for t in times):
                raise ConfigurationError(
                    f"trace times must be non-negative (worker {worker})"
                )
        self._cursor: Dict[int, int] = {worker: 0 for worker in self._times}

    @classmethod
    def from_jsonl(cls, path: str) -> "TraceArrivals":
        times: Dict[int, List[float]] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                times.setdefault(int(record["worker"]), []).append(float(record["time"]))
        if not times:
            raise ConfigurationError(f"arrival trace {path!r} contains no events")
        return cls(times)

    def next_arrival(self, worker_id: int, after: float) -> Optional[float]:
        times = self._times.get(worker_id)
        if times is None:
            return None
        cursor = self._cursor[worker_id]
        if cursor >= len(times):
            return None
        self._cursor[worker_id] = cursor + 1
        recorded = times[cursor]
        if recorded > after:
            return recorded
        return float(np.nextafter(after, np.inf))


def write_arrival_trace(path: str, events: Sequence[tuple]) -> None:
    """Record ``(worker, time)`` events as the JSONL format traces replay."""
    with open(path, "w", encoding="utf-8") as handle:
        for worker, time in events:
            handle.write(json.dumps({"worker": int(worker), "time": float(time)}) + "\n")


def build_arrival_process(config, num_workers: int) -> Optional[ArrivalProcess]:
    """Arrival process for a :class:`~repro.serving.config.ServingConfig`.

    Returns ``None`` for ``"closed"``: the closed loop has no exogenous
    process — its schedule is the timeline's own step completions.
    """
    if config.arrival == "closed":
        return None
    if config.arrival == "poisson":
        return PoissonArrivals(config.arrival_rate, num_workers, seed=config.arrival_seed)
    if config.arrival == "deterministic":
        return DeterministicArrivals(config.arrival_rate)
    if config.arrival == "trace":
        trace = TraceArrivals.from_jsonl(config.trace_path)
        # Only workers 0..K-1 are ever scheduled: other ids would silently lose load.
        if unknown := sorted(w for w in trace._times if not 0 <= w < num_workers):
            raise ConfigurationError(
                f"arrival trace names workers {unknown}; the cluster has 0..{num_workers - 1}"
            )
        return trace
    raise ConfigurationError(f"unknown arrival kind {config.arrival!r}")
