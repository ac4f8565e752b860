"""The strategy interface.

A strategy owns the *protocol* (when to communicate and what), while the
cluster owns the *mechanics* (local steps, AllReduce, byte accounting).  The
experiment harness only needs two things from a strategy: run one protocol
round, and know how many in-parallel steps a round advances, so it can place
evaluation points consistently across algorithms with very different natural
round lengths (one step for Synchronous/FDA, a full local epoch for FedOpt).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.distributed.cluster import SimulatedCluster
from repro.exceptions import ConfigurationError, ExperimentError


@dataclass(frozen=True)
class StrategyRound:
    """Observables of one protocol round."""

    mean_loss: float
    steps_advanced: int
    synchronized: bool
    communication_bytes: int
    virtual_seconds: float = 0.0


class Strategy:
    """Base class for all distributed training strategies."""

    #: Name used in experiment reports and figures.
    name = "strategy"

    #: Fabric topologies this protocol can run on.  Peer-to-peer collectives
    #: (AllReduce averaging) work on any layout; server-based protocols that
    #: need a central aggregator declare the subset they support and
    #: :meth:`attach` rejects a cluster whose fabric uses anything else.
    supported_topologies = ("star", "ring", "hierarchical", "gossip")

    def __init__(self) -> None:
        self._cluster: Optional[SimulatedCluster] = None
        self.rounds_completed = 0

    # -- wiring ------------------------------------------------------------------

    def attach(self, cluster: SimulatedCluster) -> "Strategy":
        """Bind the strategy to a cluster and perform protocol initialization."""
        topology_name = cluster.fabric.topology.name
        if topology_name not in self.supported_topologies:
            raise ConfigurationError(
                f"strategy {self.name!r} does not support the {topology_name!r} topology; "
                f"supported: {sorted(self.supported_topologies)}"
            )
        self._cluster = cluster
        # Every algorithm in the paper starts all workers from the same model.
        cluster.broadcast_parameters(cluster.workers[0].get_parameters())
        self._setup(cluster)
        return self

    @property
    def cluster(self) -> SimulatedCluster:
        """The attached cluster (raises if :meth:`attach` has not been called)."""
        if self._cluster is None:
            raise ExperimentError(
                f"strategy {self.name!r} is not attached to a cluster; call attach() first"
            )
        return self._cluster

    # -- protocol ----------------------------------------------------------------

    def run_round(self) -> StrategyRound:
        """Run one protocol round; subclasses implement :meth:`_run_round`."""
        cluster = self.cluster
        bytes_before = cluster.total_bytes
        steps_before = cluster.parallel_steps
        syncs_before = cluster.synchronization_count
        time_before = cluster.virtual_time
        mean_loss = self._run_round(cluster)
        self.rounds_completed += 1
        return StrategyRound(
            mean_loss=float(mean_loss),
            steps_advanced=cluster.parallel_steps - steps_before,
            synchronized=cluster.synchronization_count > syncs_before,
            communication_bytes=cluster.total_bytes - bytes_before,
            virtual_seconds=cluster.virtual_time - time_before,
        )

    def run_steps(self, num_steps: int) -> float:
        """Run whole rounds until at least ``num_steps`` steps have been advanced."""
        if num_steps < 0:
            raise ConfigurationError(f"num_steps must be non-negative, got {num_steps}")
        advanced = 0
        last_loss = 0.0
        while advanced < num_steps:
            result = self.run_round()
            advanced += result.steps_advanced
            last_loss = result.mean_loss
        return last_loss

    def finalize(self) -> None:
        """Hook called once at the end of training (default: no-op).

        Strategies whose workers may have diverged from the evaluated global
        model (e.g. FDA mid-round) can consolidate here.
        """

    # -- checkpointing --------------------------------------------------------------

    def checkpoint_state(self) -> dict:
        """JSON-safe protocol state for a :class:`~repro.faults.checkpoint.ClusterCheckpoint`.

        The base implementation captures the round counter; strategies with
        protocol-level mutable state (FDA's references and monitor direction,
        for instance) extend the dict.  Restoring the returned dict via
        :meth:`restore_state` on a freshly attached strategy must reproduce
        the protocol bit-exactly.
        """
        return {"rounds_completed": int(self.rounds_completed)}

    def restore_state(self, state: dict) -> None:
        """Restore protocol state captured by :meth:`checkpoint_state`."""
        self.rounds_completed = int(state["rounds_completed"])

    # -- fingerprinting -------------------------------------------------------------

    def spec(self) -> dict:
        """Canonical configuration of the strategy.

        Used by the sweep executor to fingerprint the strategy into a run
        key, and by checkpoints to refuse a differently configured resume:
        the class plus every public attribute (thresholds, variants, seeds,
        controllers — nested objects are canonicalized downstream).  Training
        state (``rounds_completed``, ``_``-prefixed attributes, and the
        private counters of the objects a strategy holds) is excluded, so the
        spec reads the same before, during and after training.
        """
        config = {
            key: value
            for key, value in vars(self).items()
            if not key.startswith("_") and key != "rounds_completed"
        }
        config["class"] = type(self).__name__
        config.setdefault("name", self.name)
        return config

    # -- subclass hooks -------------------------------------------------------------

    def _setup(self, cluster: SimulatedCluster) -> None:
        """Protocol-specific initialization after workers share the initial model."""

    def _run_round(self, cluster: SimulatedCluster) -> float:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rounds={self.rounds_completed})"
