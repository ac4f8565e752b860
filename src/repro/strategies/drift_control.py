"""Drift-control baselines from the paper's related-work section: FedProx and SCAFFOLD.

Both algorithms attack the *client-drift* problem that FDA's variance metric
detects: under heterogeneous data, workers pull toward their own local optima
and the averaged model degrades.  FedProx adds a proximal term
``(μ/2)·‖w − w_global‖²`` to every local objective; SCAFFOLD corrects every
local gradient with control variates ``c − c_k`` so local updates point toward
the global descent direction.  The paper positions FDA as *orthogonal* to
these optimization-side fixes (they keep a fixed synchronization schedule,
FDA changes the schedule); having them in the library lets the ablation
benchmarks quantify that relationship under Non-IID data.

Both are the :class:`~repro.strategies.fedopt.ServerRoundStrategy` round —
``local_epochs`` passes per worker through ``cluster.epoch_all``, then a
full-model aggregation — and differ from FedAvg only in its hooks: the
``(rows, params, grads)`` gradient transform the cluster's engine applies to
the stepping rows' gradient block, and (SCAFFOLD) the variate traffic and
refresh.  Only the round's participants train, upload and vote, so dead
workers and unbound slots neither move nor count and a weighted cohort votes
by data size.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.distributed.cluster import CATEGORY_MODEL, SimulatedCluster
from repro.exceptions import ConfigurationError
from repro.strategies.fedopt import RowTransform, ServerRoundStrategy


class FedProxStrategy(ServerRoundStrategy):
    """FedAvg with a proximal term keeping local models near the global model.

    The proximal coefficient ``mu`` adds ``mu · (w − w_global)`` to every local
    gradient; ``mu = 0`` recovers plain FedAvg.
    """

    name = "FedProx"

    def __init__(self, mu: float = 0.01, local_epochs: int = 1) -> None:
        super().__init__(local_epochs)
        if mu < 0:
            raise ConfigurationError(f"mu must be non-negative, got {mu}")
        self.mu = float(mu)

    def _open_round(self, cluster: SimulatedCluster) -> RowTransform:
        # The round's global model: the broadcast at the round's end rebinds
        # the cluster's shared model and leaves this array as it is.
        mu, global_parameters = self.mu, cluster.shared_parameters

        def proximal(rows: np.ndarray, params: np.ndarray, grads: np.ndarray) -> None:
            grads += mu * (params - global_parameters)

        return proximal


class ScaffoldStrategy(ServerRoundStrategy):
    """SCAFFOLD (Karimireddy et al.): control variates against client drift.

    Every worker ``k`` keeps a control variate ``c_k`` — row ``k`` of one
    ``(K, d)`` matrix in the plane dtype — and the server keeps the global
    variate ``c``; each local gradient is corrected by ``c − c_k``.  After a
    round, the participants' variates are refreshed from the realized local
    update (option II of the SCAFFOLD paper) and the server variate is their
    average; workers that sat the round out keep model and variate as is.
    The communication per round is the model plus the control variate, i.e.
    twice the FedAvg volume — exactly the overhead the original paper reports.
    """

    name = "SCAFFOLD"

    def __init__(self, local_epochs: int = 1, local_learning_rate_hint: float = 0.01) -> None:
        super().__init__(local_epochs)
        if local_learning_rate_hint <= 0:
            raise ConfigurationError(
                f"local_learning_rate_hint must be positive, got {local_learning_rate_hint}"
            )
        self.local_learning_rate_hint = float(local_learning_rate_hint)
        self._server_variate: Optional[np.ndarray] = None
        self._worker_variates: Optional[np.ndarray] = None
        self._steps_before: Optional[np.ndarray] = None

    def _setup(self, cluster: SimulatedCluster) -> None:
        self._server_variate = np.zeros(cluster.model_dimension, dtype=cluster.dtype)
        self._worker_variates = np.zeros_like(cluster.parameter_matrix)

    @staticmethod
    def _steps(cluster: SimulatedCluster) -> np.ndarray:
        return np.array([worker.steps_performed for worker in cluster.workers])

    def _open_round(self, cluster: SimulatedCluster) -> RowTransform:
        self._steps_before = self._steps(cluster)
        server_variate, worker_variates = self._server_variate, self._worker_variates

        def corrected(rows: np.ndarray, params: np.ndarray, grads: np.ndarray) -> None:
            grads += server_variate
            grads -= worker_variates[rows]

        return corrected

    def _upload(self, cluster: SimulatedCluster) -> np.ndarray:
        # Model + control variate move across the network each round.  The
        # model half goes through cluster.gather_models (compressed when the
        # cluster carries collective-level compression); the control variates
        # stay full-precision — they are the drift correctors themselves, and
        # compressing them is a different algorithm — so without compression
        # the round charges exactly the historical 2·d volume.
        if cluster.compression is None:
            cluster.charge_allreduce(2 * cluster.model_dimension, CATEGORY_MODEL)
            return cluster.parameter_matrix
        client_models = super()._upload(cluster)
        cluster.charge_allreduce(cluster.model_dimension, CATEGORY_MODEL)
        return client_models

    def _new_global(self, cluster, participants, mean) -> np.ndarray:
        rows = participants.indices(cluster.num_workers)
        steps = np.maximum((self._steps(cluster) - self._steps_before)[rows], 1)
        scale = (steps * self.local_learning_rate_hint).astype(cluster.dtype)[:, None]
        local_update = cluster.shared_parameters - cluster.parameter_matrix[rows]
        self._worker_variates[rows] = (
            self._worker_variates[rows] - self._server_variate + local_update / scale
        )
        self._server_variate = participants.mean(self._worker_variates)
        return mean

    def _server_state(self) -> dict:
        return {
            "server_variate": self._server_variate.copy(),
            "worker_variates": self._worker_variates.copy(),
        }

    def _load_server_state(self, state: dict) -> None:
        self._server_variate = state["server_variate"]
        self._worker_variates[...] = state["worker_variates"]
