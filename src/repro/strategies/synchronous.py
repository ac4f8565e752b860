"""The Synchronous (bulk-synchronous parallel) baseline.

Every worker performs one mini-batch step and the models are synchronized via
AllReduce after *every* step.  The paper notes this is the special case of
Algorithm 1 with Θ = 0: convergence is fast in steps but the communication
cost is enormous, which is exactly where it lands in every figure (bottom
right: low computation, very high communication).
"""

from __future__ import annotations

from repro.strategies.local_sgd import LocalSGDStrategy


class SynchronousStrategy(LocalSGDStrategy):
    """BSP training: Local-SGD with τ = 1, reported under its own name.

    One local step through ``cluster.step_all`` (all participating workers in
    one vectorized pass), then a full model AllReduce, every round.  Dropped
    workers (a timeline with ``dropout_rate > 0``) skip the step but still
    contribute their stale model to the AllReduce, so the quorum change
    affects compute only, never the byte ledger.
    """

    name = "Synchronous"

    def __init__(self) -> None:
        super().__init__(tau=1)
