"""The fault-injection plane: deterministic chaos for the simulated cluster.

Three pieces, layered exactly like the rest of the library:

* :class:`~repro.faults.plan.FaultPlan` — frozen, seeded *description* of the
  faults (crash/recovery renewal processes, per-link loss with retry/backoff).
  Pure data; participates in sweep cache keys.
* :class:`~repro.faults.injector.FaultInjector` /
  :class:`~repro.faults.injector.FaultLog` — the mutable machinery drawing
  from the plan's own named RNG streams, plus the append-only audit log
  persisted on :class:`~repro.experiments.run.RunResult`.
* :class:`~repro.faults.checkpoint.ClusterCheckpoint` — run-level snapshot
  and bit-exact restore of the whole training plane (parameters, optimizer
  state, every RNG stream, clocks, ledgers, protocol state).
"""

from repro.faults.checkpoint import ClusterCheckpoint
from repro.faults.injector import FaultInjector, FaultLog
from repro.faults.plan import FaultPlan

__all__ = [
    "ClusterCheckpoint",
    "FaultInjector",
    "FaultLog",
    "FaultPlan",
]
