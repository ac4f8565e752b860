"""Serving-plane configuration.

:class:`ServingConfig` bundles the load knobs — who reports when (open-loop
Poisson arrivals, or ``"closed"``: the workers' own step completions, i.e. the
paper's asynchronous coordinator), the coordinator's ingress-queue capacity,
the staleness-aware aggregation rule, and the per-update service time — into
one frozen dataclass.  Frozen matters: the sweep executor's content-addressed
cache fingerprints workloads through
:func:`repro.experiments.cache.canonical_value`, which walks frozen
dataclasses field-wise, so every serving knob participates in the run
fingerprint automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError

#: Arrival-process kinds: open-loop Poisson arrivals, or ``"closed"``, the
#: closed loop of the paper's Section 3.3: no exogenous arrivals — a worker
#: reports when its own step completes, the update is aggregated on the spot,
#: and the worker's next step waits for the coordinator's answer (the parity
#: suite pins the trajectory).
ARRIVAL_KINDS = ("poisson", "closed")

#: Protocols the served coordinator can run: triggered-sync FDA or the
#: lockstep BSP baseline (a round fires once every worker has delivered an
#: update since the last synchronization).
PROTOCOLS = ("fda", "bsp")


@dataclass(frozen=True)
class ServingConfig:
    """Open-loop serving knobs for one run.

    ``arrival_rate`` is per-worker arrivals per virtual second (the aggregate
    offered load is ``K * arrival_rate``).  ``service_seconds`` is the
    coordinator's aggregation time per update; the service rate ``1 /
    service_seconds`` against the aggregate arrival rate decides which side
    of the saturation knee the run sits on.
    """

    arrival: str = "poisson"
    arrival_rate: float = 1.0
    queue_capacity: Optional[int] = None
    #: A full queue refuses the newcomer; ``"drop"`` is the one policy.  The
    #: field stays only because ``bench/workloads.py`` still spells it.
    queue_policy: str = "drop"
    staleness_rule: str = "uniform"
    max_staleness: int = 4
    service_seconds: float = 0.0
    protocol: str = "fda"
    arrival_seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigurationError(
                f"arrival must be one of {ARRIVAL_KINDS}, got {self.arrival!r}"
            )
        if self.arrival == "poisson" and self.arrival_rate <= 0:
            raise ConfigurationError(
                f"arrival_rate must be positive, got {self.arrival_rate}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1 or None (unbounded), got {self.queue_capacity}"
            )
        if self.queue_policy != "drop":
            raise ConfigurationError(
                f"queue_policy must be 'drop', got {self.queue_policy!r}"
            )
        # The rule names live in repro.serving.aggregation; imported lazily to
        # keep the config module dependency-free.
        from repro.serving.aggregation import STALENESS_RULES

        if self.staleness_rule not in STALENESS_RULES:
            raise ConfigurationError(
                f"staleness_rule must be one of {STALENESS_RULES}, "
                f"got {self.staleness_rule!r}"
            )
        if self.max_staleness < 0:
            raise ConfigurationError(
                f"max_staleness must be non-negative, got {self.max_staleness}"
            )
        if self.service_seconds < 0:
            raise ConfigurationError(
                f"service_seconds must be non-negative, got {self.service_seconds}"
            )
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}"
            )
        if self.arrival == "closed":
            # The closed loop aggregates every update the instant its step
            # completes, which rules out anything that could delay, reorder or
            # refuse updates.
            if self.service_seconds != 0.0:
                raise ConfigurationError(
                    "closed (degenerate) mode requires instant service "
                    f"(service_seconds=0), got {self.service_seconds}"
                )
            if self.queue_capacity is not None:
                raise ConfigurationError(
                    "closed (degenerate) mode requires an unbounded queue"
                )
            if self.protocol != "fda":
                raise ConfigurationError(
                    "closed (degenerate) mode is the asynchronous FDA "
                    f"coordinator; protocol must be 'fda', got {self.protocol!r}"
                )

    def describe(self) -> str:
        """Compact label for run tables and benchmark rows."""
        parts = [self.protocol, self.arrival]
        if self.arrival == "poisson":
            parts.append(f"rate{self.arrival_rate:g}")
        capacity = "inf" if self.queue_capacity is None else str(self.queue_capacity)
        parts.append(f"q{capacity}-{self.queue_policy}")
        parts.append(self.staleness_rule)
        if self.service_seconds:
            parts.append(f"svc{self.service_seconds:g}")
        return "-".join(parts)
