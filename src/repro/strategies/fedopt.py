"""The server round, and FedOpt on it: FedAvg, FedAvgM, FedAdam (and the other adaptive variants).

Every server-based strategy — FedOpt, FedProx, SCAFFOLD — is the same round:
``local_epochs`` full passes over every participating worker's shard (the
paper uses E = 1, following the FedAdam paper) through ``cluster.epoch_all``
and hence the cluster's engine, one client → server model upload, a new
global model, its broadcast.  :class:`ServerRoundStrategy` is that round,
once; a strategy adds three hooks — the gradient transform its epochs run
under, what the upload carries, how the participants' mean becomes the new
global model — and the server state a checkpoint must hold.  The global model
itself is the cluster's :attr:`~repro.distributed.cluster.SimulatedCluster.shared_parameters`:
the round's broadcast writes it, the hooks read it.

FedOpt's hook is a server optimizer applied to the negative average client
update; the round moves the same full-model AllReduce volume as a
synchronization, charged under the model-sync category.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.distributed.cluster import SimulatedCluster
from repro.distributed.participation import Participation
from repro.exceptions import ConfigurationError
from repro.optim.server import FedAdam, FedAvgM, ServerOptimizer
from repro.strategies.base import Strategy

#: ``transform(rows, params, grads)``: edit the ``(A, d)`` gradient block of
#: worker rows ``rows`` in place, just before their optimizer step; ``params``
#: is the matching parameter block (read-only).
RowTransform = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


class ServerRoundStrategy(Strategy):
    """Local epochs → upload → new global model → broadcast, with three hooks."""

    features = ("server-round",)

    def __init__(self, local_epochs: int = 1) -> None:
        super().__init__()
        if local_epochs <= 0:
            raise ConfigurationError(f"local_epochs must be positive, got {local_epochs}")
        self.local_epochs = int(local_epochs)

    def _run_round(self, cluster: SimulatedCluster) -> float:
        transform = self._open_round(cluster)
        mean_loss = 0.0
        for _ in range(self.local_epochs):
            mean_loss = cluster.epoch_all(gradient_transform=transform)
        # Who trained and reports: dead clients cannot upload, unbound slots
        # hold nobody, and a weighted cohort votes by data size.
        participants = cluster.participants
        client_models = self._upload(cluster)
        cluster.broadcast_parameters(
            self._new_global(cluster, participants, participants.mean(client_models))
        )
        if cluster.buffer_matrix.shape[1]:
            cluster.buffer_matrix[cluster.members.rows] = cluster.average_buffers()
        cluster.synchronization_count += 1
        return mean_loss

    # -- the three hooks -----------------------------------------------------------

    def _open_round(self, cluster: SimulatedCluster) -> Optional[RowTransform]:
        """Called once before the local epochs; returns their gradient transform."""
        return None

    def _upload(self, cluster: SimulatedCluster) -> np.ndarray:
        """Charge the round's client → server traffic; return the models as received:
        the live ``(K, d)`` matrix on the exact path, the global model plus the
        reconstructed drifts when the cluster compresses its collectives."""
        return cluster.gather_models()

    def _new_global(
        self, cluster: SimulatedCluster, participants: Participation, mean: np.ndarray
    ) -> np.ndarray:
        """The new global model, given the participants' ``mean`` model (the
        old one is still ``cluster.shared_parameters``)."""
        return mean

    # -- checkpointing -----------------------------------------------------------

    def _server_state(self) -> dict:
        """What the server holds besides the global model (copies)."""
        return {}

    def _load_server_state(self, state: dict) -> None:
        """Resume from :meth:`_server_state`."""

    def checkpoint_state(self) -> dict:
        return {**super().checkpoint_state(), "server_round": self._server_state()}

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self._load_server_state(state["server_round"])


class FedOptStrategy(ServerRoundStrategy):
    """Federated optimization with a pluggable server optimizer."""

    name = "FedOpt"

    def __init__(self, server_optimizer: ServerOptimizer, local_epochs: int = 1) -> None:
        super().__init__(local_epochs)
        self.server_optimizer = server_optimizer
        self.name = f"Fed{type(server_optimizer).__name__.replace('Fed', '')}"

    def _setup(self, cluster: SimulatedCluster) -> None:
        self.server_optimizer.reset()

    def _new_global(self, cluster, participants, mean) -> np.ndarray:
        return self.server_optimizer.aggregate(cluster.shared_parameters, mean)

    def _server_state(self) -> dict:
        return self.server_optimizer.state_dict()

    def _load_server_state(self, state: dict) -> None:
        self.server_optimizer.load_state_dict(state)


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
