"""FedOpt strategies: FedAvg, FedAvgM, FedAdam (and the other adaptive variants).

One round consists of ``local_epochs`` full passes over every worker's shard
(the paper uses E = 1, following the FedAdam paper), after which the clients'
parameters are aggregated by a server optimizer and the result is broadcast
back.  The round's communication is the same full-model AllReduce volume as a
synchronization, charged under the model-sync category.
"""

from __future__ import annotations

from typing import Optional

from repro.distributed.cluster import CATEGORY_MODEL, SimulatedCluster
from repro.exceptions import ConfigurationError
from repro.optim.server import FedAdam, FedAvgM, ServerOptimizer
from repro.strategies.base import Strategy


class FedOptStrategy(Strategy):
    """Federated optimization with a pluggable server optimizer."""

    name = "FedOpt"

    #: FedOpt needs a central server holding the optimizer state; it runs on
    #: the star directly and on the two-level hierarchy (the root is the
    #: server), but not on serverless ring/gossip layouts.
    supported_topologies = ("star", "hierarchical")

    def __init__(self, server_optimizer: ServerOptimizer, local_epochs: int = 1) -> None:
        super().__init__()
        if local_epochs <= 0:
            raise ConfigurationError(f"local_epochs must be positive, got {local_epochs}")
        self.server_optimizer = server_optimizer
        self.local_epochs = int(local_epochs)
        self._global_parameters = None
        self.name = f"Fed{type(server_optimizer).__name__.replace('Fed', '')}"

    def _setup(self, cluster: SimulatedCluster) -> None:
        self.server_optimizer.reset()
        self._global_parameters = cluster.workers[0].get_parameters()

    @property
    def steps_per_round(self) -> int:
        return self.local_epochs * max(
            worker.batches_per_epoch for worker in self.cluster.workers
        )

    def _run_round(self, cluster: SimulatedCluster) -> float:
        mean_loss = 0.0
        for _ in range(self.local_epochs):
            mean_loss = cluster.epoch_all()

        # Clients upload their models, the server optimizer produces the new
        # global model, and it is broadcast back; in total this moves the same
        # data volume as one full-model AllReduce, routed through the fabric.
        # cluster.gather_models prices that upload (compressed when the
        # cluster has collective-level compression) and hands back the client
        # matrix as the server sees it — the live (K, d) parameter matrix on
        # the exact path, reference + reconstructed drifts under compression.
        client_models = cluster.gather_models(self._global_parameters, CATEGORY_MODEL)
        # The server sees one client: the members' average — dead clients
        # cannot upload, unbound slots hold nobody, and a weighted cohort
        # votes by data size.
        new_global = self.server_optimizer.aggregate(
            self._global_parameters, [cluster.members.mean(client_models)]
        )
        self._global_parameters = new_global
        cluster.broadcast_parameters(new_global)
        if cluster.workers[0].model.num_buffers:
            cluster.broadcast_buffers(cluster.average_buffers())
        cluster.synchronization_count += 1
        return mean_loss

    # -- checkpointing -----------------------------------------------------------

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        state["fedopt"] = {
            "global_parameters": self._global_parameters.copy(),
            "server": self.server_optimizer.state_dict(),
        }
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        payload = state["fedopt"]
        self._global_parameters = payload["global_parameters"]
        self.server_optimizer.load_state_dict(payload["server"])


def fedavgm_strategy(
    learning_rate: float = 0.316, momentum: float = 0.9, local_epochs: int = 1
) -> FedOptStrategy:
    """The paper's FedAvgM baseline (server momentum 0.9, server LR 0.316)."""
    return FedOptStrategy(FedAvgM(learning_rate, momentum), local_epochs)


def fedadam_strategy(
    learning_rate: float = 0.01, local_epochs: int = 1, tau: float = 1e-3
) -> FedOptStrategy:
    """The paper's FedAdam baseline with the defaults of Reddi et al."""
    return FedOptStrategy(FedAdam(learning_rate, tau=tau), local_epochs)
