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

Both strategies follow the FedAvg round structure: ``local_epochs`` passes per
worker, then a full-model aggregation charged like one AllReduce.  Their local
steps need a per-worker gradient transform, so they drive the workers
themselves instead of calling ``cluster.epoch_all`` — and therefore open the
round themselves: ``cluster.begin_round()`` advances churn and returns the
round's :class:`~repro.distributed.participation.Participation`.  Only its
rows train; models (and SCAFFOLD's server variate) are averaged with its
``mean``, so dead workers and unbound slots neither move nor vote and a
weighted cohort votes by data size.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.distributed.cluster import CATEGORY_MODEL, SimulatedCluster
from repro.exceptions import ConfigurationError
from repro.strategies.base import Strategy


class FedProxStrategy(Strategy):
    """FedAvg with a proximal term keeping local models near the global model.

    The proximal coefficient ``mu`` adds ``mu · (w − w_global)`` to every local
    gradient; ``mu = 0`` recovers plain FedAvg.
    """

    name = "FedProx"

    #: Server-based round structure, like FedOpt.
    supported_topologies = ("star", "hierarchical")

    def __init__(self, mu: float = 0.01, local_epochs: int = 1) -> None:
        super().__init__()
        if mu < 0:
            raise ConfigurationError(f"mu must be non-negative, got {mu}")
        if local_epochs <= 0:
            raise ConfigurationError(f"local_epochs must be positive, got {local_epochs}")
        self.mu = float(mu)
        self.local_epochs = int(local_epochs)
        self._global_parameters: Optional[np.ndarray] = None

    def _setup(self, cluster: SimulatedCluster) -> None:
        self._global_parameters = cluster.workers[0].get_parameters()

    @property
    def steps_per_round(self) -> int:
        return self.local_epochs * max(
            worker.batches_per_epoch for worker in self.cluster.workers
        )

    def _run_round(self, cluster: SimulatedCluster) -> float:
        global_parameters = self._global_parameters

        def proximal(params: np.ndarray, grads: np.ndarray) -> np.ndarray:
            return grads + self.mu * (params - global_parameters)

        participants = cluster.begin_round()
        workers = [cluster.workers[k] for k in participants.indices(cluster.num_workers)]
        if not workers:
            return 0.0
        mean_loss = 0.0
        for _ in range(self.local_epochs):
            losses = [worker.local_epoch(gradient_transform=proximal) for worker in workers]
            mean_loss = float(np.mean(losses))
        cluster.timeline.advance_round(
            self.local_epochs * max(w.batches_per_epoch for w in workers)
        )

        # One full-model client upload, priced (and, when the cluster has
        # collective-level compression, lossily reconstructed) by the cluster.
        client_models = cluster.gather_models(global_parameters, CATEGORY_MODEL)
        new_global = participants.mean(client_models)
        self._global_parameters = new_global
        cluster.broadcast_parameters(new_global)
        cluster.synchronization_count += 1
        return mean_loss


class ScaffoldStrategy(Strategy):
    """SCAFFOLD (Karimireddy et al.): control variates against client drift.

    Every worker ``k`` keeps a control variate ``c_k`` and the server keeps the
    global variate ``c``; each local gradient is corrected by ``c − c_k``.
    After a round, worker variates are refreshed from the realized local update
    (option II of the SCAFFOLD paper) and the server variate is their average.
    The communication per round is the model plus the control variate, i.e.
    twice the FedAvg volume — exactly the overhead the original paper reports.
    """

    name = "SCAFFOLD"

    #: Server-based round structure, like FedOpt.
    supported_topologies = ("star", "hierarchical")

    def __init__(self, local_epochs: int = 1, local_learning_rate_hint: float = 0.01) -> None:
        super().__init__()
        if local_epochs <= 0:
            raise ConfigurationError(f"local_epochs must be positive, got {local_epochs}")
        if local_learning_rate_hint <= 0:
            raise ConfigurationError(
                f"local_learning_rate_hint must be positive, got {local_learning_rate_hint}"
            )
        self.local_epochs = int(local_epochs)
        self.local_learning_rate_hint = float(local_learning_rate_hint)
        self._global_parameters: Optional[np.ndarray] = None
        self._server_variate: Optional[np.ndarray] = None
        self._worker_variates: Dict[int, np.ndarray] = {}

    def _setup(self, cluster: SimulatedCluster) -> None:
        dimension = cluster.model_dimension
        self._global_parameters = cluster.workers[0].get_parameters()
        self._server_variate = np.zeros(dimension)
        self._worker_variates = {
            worker.worker_id: np.zeros(dimension) for worker in cluster.workers
        }

    @property
    def steps_per_round(self) -> int:
        return self.local_epochs * max(
            worker.batches_per_epoch for worker in self.cluster.workers
        )

    def _run_round(self, cluster: SimulatedCluster) -> float:
        global_parameters = self._global_parameters
        server_variate = self._server_variate
        participants = cluster.begin_round()
        workers = [cluster.workers[k] for k in participants.indices(cluster.num_workers)]
        if not workers:
            return 0.0
        mean_loss = 0.0

        # Local epochs under the corrected gradient, then each participant's
        # control variate refreshed from its realized update (SCAFFOLD option
        # II).  Workers that sat the round out keep model and variate as is.
        for worker in workers:
            variate = self._worker_variates[worker.worker_id]

            def corrected(params: np.ndarray, grads: np.ndarray, variate=variate) -> np.ndarray:
                return grads + server_variate - variate

            steps_before = worker.steps_performed
            for _ in range(self.local_epochs):
                mean_loss = worker.local_epoch(gradient_transform=corrected)
            steps = max(worker.steps_performed - steps_before, 1)
            local_update = global_parameters - worker.parameters_view()
            self._worker_variates[worker.worker_id] = (
                variate - server_variate + local_update / (steps * self.local_learning_rate_hint)
            )

        cluster.timeline.advance_round(
            self.local_epochs * max(w.batches_per_epoch for w in workers)
        )
        # Model + control variate move across the network each round.  The
        # model half goes through cluster.gather_models (compressed when the
        # cluster carries collective-level compression); the control variates
        # stay full-precision — they are the drift correctors themselves, and
        # compressing them is a different algorithm — so without compression
        # the round charges exactly the historical 2·d volume.
        if cluster.compression is None:
            cluster.charge_allreduce(2 * cluster.model_dimension, CATEGORY_MODEL)
            client_models = cluster.parameter_matrix
        else:
            client_models = cluster.gather_models(global_parameters, CATEGORY_MODEL)
            cluster.charge_allreduce(cluster.model_dimension, CATEGORY_MODEL)
        new_global = participants.mean(client_models)
        self._server_variate = participants.mean(
            np.stack([self._worker_variates[w.worker_id] for w in cluster.workers], axis=0)
        )
        self._global_parameters = new_global
        cluster.broadcast_parameters(new_global)
        cluster.synchronization_count += 1
        return mean_loss
