"""Local-SGD with a fixed synchronization period τ.

Workers run ``tau`` local mini-batch steps between full model AllReduce
operations.  With ``tau`` equal to the number of batches in a local epoch and
plain averaging this is FedAvg.  The paper's Section 2 reviews variants that
vary τ over training; this repository runs the fixed period, the baseline
against which FDA's variance-triggered synchronization is measured.
"""

from __future__ import annotations

from numbers import Integral

from repro.distributed.cluster import SimulatedCluster
from repro.exceptions import ConfigurationError
from repro.strategies.base import Strategy


class LocalSGDStrategy(Strategy):
    """Synchronize after every ``tau`` local steps.

    The synchronization is a plain AllReduce average, so any fabric topology
    works.

    Each of the ``tau`` local steps goes through ``cluster.step_all`` and thus
    the cluster's engine, which advances the participating workers per step
    in one vectorized pass.  Partial participation (a timeline with
    ``dropout_rate > 0``) is sampled per local step, matching FDA's cadence;
    dropped workers skip that step but are still averaged at the period
    boundary (FedAvg over possibly stale rows), so the byte ledger is
    independent of who participated.
    """

    name = "LocalSGD"
    supported_topologies = ("star", "ring", "hierarchical", "gossip")

    def __init__(self, tau: int = 10) -> None:
        super().__init__()
        if not isinstance(tau, Integral) or isinstance(tau, bool) or tau <= 0:
            raise ConfigurationError(f"tau must be a positive integer, got {tau!r}")
        #: The period — public, so two periods are two ``spec()``s and two run keys.
        self.tau = int(tau)

    def _run_round(self, cluster: SimulatedCluster) -> float:
        mean_loss = 0.0
        for _ in range(self.tau):
            active = cluster.timeline.sample_participation()
            mean_loss = cluster.step_all(active=active)
        cluster.synchronize()
        return mean_loss
