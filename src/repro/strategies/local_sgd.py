"""Local-SGD with a fixed synchronization period τ.

Workers run ``tau`` local mini-batch steps between full model AllReduce
operations.  With ``tau`` equal to the number of batches in a local epoch and
plain averaging this is FedAvg; the paper's Section 2 reviews the many
schedule variants (fixed, increasing, decreasing τ), all of which reduce to
choosing the ``tau`` sequence handed to this strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.distributed.cluster import SimulatedCluster
from repro.exceptions import ConfigurationError
from repro.strategies.base import Strategy


@dataclass(frozen=True)
class TauSchedule:
    """τ per round: 1 for ``warmup`` rounds, then ``initial·factor^round`` in [minimum, maximum].

    One frozen value for all four schedule families below, so a schedule
    compares, hashes and fingerprints (``Strategy.spec`` → run keys) by its
    parameters — an anonymous lambda would fingerprint by qualified name.
    """

    initial: int
    factor: float = 1.0
    minimum: int = 1
    maximum: int = 1024
    warmup: int = 0

    def __call__(self, round_index: int) -> int:
        if round_index < self.warmup:
            return 1
        period = round(self.initial * self.factor**round_index)
        return int(min(self.maximum, max(self.minimum, period)))


def fixed_tau(tau: int) -> TauSchedule:
    """A constant synchronization period (classic Local-SGD / FedAvg)."""
    if int(tau) <= 0:
        raise ConfigurationError(f"tau must be a positive integer, got {tau}")
    return TauSchedule(int(tau), maximum=int(tau))


def increasing_tau(initial: int = 1, growth: float = 1.5, maximum: int = 1024) -> TauSchedule:
    """A geometrically increasing period (Haddadpour et al.: fewer rounds for fixed updates)."""
    if initial <= 0:
        raise ConfigurationError(f"initial must be positive, got {initial}")
    if growth < 1.0:
        raise ConfigurationError(f"growth must be >= 1, got {growth}")
    if maximum < initial:
        raise ConfigurationError(f"maximum must be >= initial, got {maximum}")
    return TauSchedule(initial, growth, maximum=maximum)


def decreasing_tau(initial: int = 64, decay: float = 0.7, minimum: int = 1) -> TauSchedule:
    """A geometrically decreasing period (Wang & Joshi: better error-runtime trade-off)."""
    if initial <= 0:
        raise ConfigurationError(f"initial must be positive, got {initial}")
    if not 0.0 < decay <= 1.0:
        raise ConfigurationError(f"decay must lie in (0, 1], got {decay}")
    if minimum <= 0 or minimum > initial:
        raise ConfigurationError(f"minimum must lie in [1, initial], got {minimum}")
    return TauSchedule(initial, decay, minimum=minimum, maximum=initial)


def post_local_sgd_tau(switch_round: int, tau_after: int = 16) -> TauSchedule:
    """Post-local SGD (Lin et al.): synchronous warm-up, then Local-SGD with fixed τ."""
    if switch_round < 0:
        raise ConfigurationError(f"switch_round must be non-negative, got {switch_round}")
    if tau_after <= 0:
        raise ConfigurationError(f"tau_after must be positive, got {tau_after}")
    return TauSchedule(int(tau_after), maximum=int(tau_after), warmup=switch_round)


class LocalSGDStrategy(Strategy):
    """Synchronize after every ``tau`` local steps (optionally a τ schedule).

    ``tau`` may be an integer (fixed period) or a callable mapping the round
    index to that round's period, which covers the increasing/decreasing
    schedules discussed in the related-work section.  The synchronization is a
    plain AllReduce average, so any fabric topology works.

    Each of the ``tau`` local steps goes through ``cluster.step_all`` and thus
    the cluster's execution engine — ``execution="batched"`` advances the
    participating workers per step in one vectorized pass with unchanged
    protocol semantics.  Partial participation (a timeline with
    ``dropout_rate > 0``) is sampled per local step, matching FDA's cadence;
    dropped workers skip that step but are still averaged at the period
    boundary (FedAvg over possibly stale rows), so the byte ledger is
    independent of who participated.
    """

    name = "LocalSGD"
    supported_topologies = ("star", "ring", "hierarchical", "gossip")

    def __init__(self, tau: Union[int, Callable[[int], int]] = 10) -> None:
        super().__init__()
        #: The period, or the schedule mapping a round index to it — public,
        #: so two periods are two ``spec()``s and two run keys.
        self.tau = tau if callable(tau) else fixed_tau(tau)

    def current_tau(self) -> int:
        """The synchronization period used for the upcoming round."""
        tau = int(self.tau(self.rounds_completed))
        if tau <= 0:
            raise ConfigurationError(
                f"tau schedule returned {tau} for round {self.rounds_completed}; must be >= 1"
            )
        return tau

    def _run_round(self, cluster: SimulatedCluster) -> float:
        tau = self.current_tau()
        mean_loss = 0.0
        for _ in range(tau):
            active = cluster.timeline.sample_participation()
            mean_loss = cluster.step_all(active=active)
        cluster.synchronize()
        return mean_loss
