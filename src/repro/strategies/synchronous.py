"""The Synchronous (bulk-synchronous parallel) baseline.

Every worker performs one mini-batch step and the models are synchronized via
AllReduce after *every* step.  The paper notes this is the special case of
Algorithm 1 with Θ = 0: convergence is fast in steps but the communication
cost is enormous, which is exactly where it lands in every figure (bottom
right: low computation, very high communication).
"""

from __future__ import annotations

from repro.distributed.cluster import SimulatedCluster
from repro.strategies.base import Strategy


class SynchronousStrategy(Strategy):
    """BSP training: one local step, then a full model AllReduce, every round.

    The local step goes through ``cluster.step_all`` and therefore through the
    cluster's engine: all participating worker steps of a round run as one
    vectorized pass.

    Partial participation (a timeline with ``dropout_rate > 0``) is sampled
    per round: dropped workers skip the local step but still contribute their
    (stale) model to the AllReduce — BSP's synchronization is unconditional,
    so the quorum change affects compute only, never the byte ledger.  With
    the default timeline no mask is drawn and behaviour is bit-identical to
    the mask-free protocol.
    """

    name = "Synchronous"

    def _run_round(self, cluster: SimulatedCluster) -> float:
        active = cluster.timeline.sample_participation()
        mean_loss = cluster.step_all(active=active)
        cluster.synchronize()
        return mean_loss
