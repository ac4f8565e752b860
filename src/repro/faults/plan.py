"""Declarative fault plans for the simulated cluster.

A :class:`FaultPlan` is a frozen, seeded description of *what can go wrong*
during a run: worker crash/recovery renewal processes and per-link message
loss with retry/backoff.  The plan itself is pure data — the mutable
machinery that draws from it lives in
:class:`~repro.faults.injector.FaultInjector` — so plans can participate in
content-addressed sweep cache keys (`repro.experiments.cache.canonical_value`
serializes dataclasses field-by-field) and be compared or persisted cheaply.

A plan with every rate at zero (``is_null``) is treated as "no plan at all"
throughout the stack: the cluster skips injector construction entirely, which
makes the fault-free path bit-identical to pre-faults builds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of the faults injected into one run.

    Parameters
    ----------
    crash_rate:
        Per-round probability that each alive worker crashes (independent
        Bernoulli draws; a renewal process once recovery is folded in).
    recovery_rounds:
        Mean number of rounds a crashed worker stays dead.  The actual
        outage length is geometric with mean ``recovery_rounds`` (minimum 1
        round), so recoveries form a memoryless renewal process.
    loss_rate:
        Per-link, per-collective probability that a message transmission
        fails and must be retransmitted, with capped retries and capped
        exponential backoff (:data:`~repro.faults.injector.MAX_RETRIES`).
    seed:
        Root seed for the injector's RNG streams.  Faults draw from their
        own named streams ("faults/churn", "faults/links") so enabling one
        fault category never perturbs another — or the training RNG.
    """

    crash_rate: float = 0.0
    recovery_rounds: float = 10.0
    loss_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "loss_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1), got {value}"
                )
        if self.recovery_rounds < 1.0:
            raise ConfigurationError(
                f"recovery_rounds must be >= 1, got {self.recovery_rounds}"
            )

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing (pure-observer / no-op plan)."""
        return self.crash_rate == 0.0 and self.loss_rate == 0.0

    def describe(self) -> str:
        """Compact human-readable label (used by CLI tables and logs)."""
        if self.is_null:
            return "none"
        parts = []
        if self.crash_rate:
            parts.append(f"crash={self.crash_rate:g}/round(recover~{self.recovery_rounds:g})")
        if self.loss_rate:
            parts.append(f"loss={self.loss_rate:g}/link")
        return ",".join(parts)
