"""Plane 8: the event-driven coordinator and its serving harness.

The paper's Section 3.3 coordinator as a *served system*: who reports when
(:mod:`~repro.serving.arrivals` — exogenous open-loop arrivals, or the closed
loop of the workers' own step completions), a bounded coordinator ingress
queue (:mod:`~repro.serving.queueing`), staleness-aware aggregation rules
(:mod:`~repro.serving.aggregation`), streaming latency percentiles
(:mod:`~repro.serving.metrics`), and the one coordinator that runs them on
the event-mode timeline (:mod:`~repro.serving.harness`).
"""

from repro.serving.aggregation import STALENESS_RULES, staleness_weight, staleness_weights
from repro.serving.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    PoissonArrivals,
    TraceArrivals,
    build_arrival_process,
    write_arrival_trace,
)
from repro.serving.config import ARRIVAL_KINDS, PROTOCOLS, QUEUE_POLICIES, ServingConfig
from repro.serving.harness import (
    ServedFDATrainer,
    ServedUpdate,
    ServingReport,
    serve_workload,
)
from repro.serving.metrics import (
    P2_RANK_ERROR_BOUND,
    LatencyTracker,
    P2Quantile,
    PercentileLedger,
)
from repro.serving.queueing import IngressQueue, PendingUpdate

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "DeterministicArrivals",
    "IngressQueue",
    "LatencyTracker",
    "P2Quantile",
    "P2_RANK_ERROR_BOUND",
    "PROTOCOLS",
    "PendingUpdate",
    "PercentileLedger",
    "PoissonArrivals",
    "QUEUE_POLICIES",
    "STALENESS_RULES",
    "ServedFDATrainer",
    "ServedUpdate",
    "ServingConfig",
    "ServingReport",
    "TraceArrivals",
    "build_arrival_process",
    "serve_workload",
    "staleness_weight",
    "staleness_weights",
    "write_arrival_trace",
]
