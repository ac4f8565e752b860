"""Open-loop arrival processes for the serving plane.

An :class:`ArrivalProcess` answers one question: given that worker ``k``'s
previous update arrived at virtual time ``t``, when does its next update
arrive?  The process is *open loop*: the answer depends only on its own
state (its private RNG streams), never on how backlogged the coordinator is —
clients keep sending at their own pace even when the queue is saturated,
which is precisely what makes the p99 knee visible.

Reproducibility contract: every stochastic draw comes from a private stream
``RngFactory(seed).named(f"arrival-{k}")`` — a pure function of
``(seed, worker)`` — so arrival sequences never perturb (and are never
perturbed by) data sampling, initialization, or timeline jitter streams.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import ConfigurationError
from repro.utils.rng import RngFactory

__all__ = ["ArrivalProcess", "PoissonArrivals", "build_arrival_process"]


class ArrivalProcess:
    """Base class: per-worker next-arrival-time generator."""

    def next_arrival(self, worker_id: int, after: float) -> float:
        """Virtual time of ``worker_id``'s next arrival strictly after ``after``."""
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


def build_arrival_process(config, num_workers: int) -> Optional[ArrivalProcess]:
    """Arrival process for a :class:`~repro.serving.config.ServingConfig`.

    Returns ``None`` for ``"closed"``: the closed loop has no exogenous
    process — its schedule is the timeline's own step completions.
    """
    if config.arrival == "closed":
        return None
    return PoissonArrivals(config.arrival_rate, num_workers, seed=config.arrival_seed)
