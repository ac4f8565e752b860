"""The population plane: cohort binding over a fixed-slot cluster.

A :class:`ClientPopulation` turns the ``(K, d)`` cluster into a *window* onto
a registered population of ``N ≫ K`` logical clients.  The cluster's worker
slots are physical resources (models, samplers, and rows of the parameter,
buffer, optimizer-state and residual matrices); clients are logical records.
Each round:

1. the :class:`~repro.population.sampler.CohortSampler` draws a cohort,
2. every cohort member is **bound** into a slot — a returning client's saved
   slot snapshot is restored (``cluster.restore_slot``), a first-time client
   gets a freshly built worker on the initial global model with its own
   seed-derived streams (``cluster.reset_slot``); both write the slot's rows
   *in place*, the client's optimizer moments and step count among them, so
   those follow the client into whichever slot it is bound to,
3. the strategy runs its round on the bound cluster exactly as it would on a
   materialized one — the masked ``(A, d)`` batched path, the fabric charges,
   FDA's triggered syncs, all unchanged,
4. every bound client is **unbound** — ``cluster.capture_slot`` snapshots its
   slot into the LRU :class:`~repro.population.store.ClientStateStore`.

What a slot's state *is* is the cluster's and the worker's business (see
:meth:`SimulatedCluster.capture_slot
<repro.distributed.cluster.SimulatedCluster.capture_slot>`); this module only
decides which client's state sits in which slot, and when.

Participation: each binding hands the cluster one
:class:`~repro.distributed.participation.Participation` (``bind_members``) —
a mask when the cohort leaves slots unbound, weights equal to the bound
clients' shard sizes with ``weighting="data-size"`` — and every collective
(`synchronize`, the server strategies' aggregation, global evaluation)
averages with it.  A uniform full-slot cohort binds ``Participation()``, the
exact ``mean(axis=0)`` paths — which is what makes the cohort=all
configuration bit-identical to a fully materialized cluster (asserted by
``tests/helpers/parity.run_population_parity``).

Fault plans compose at the *slot* level: churn crashes a slot, and whichever
client is bound there loses its local progress for the round — cohort-scoped
churn, matching the cross-device reality that a sampled device can drop out
mid-round.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.data.datasets import Dataset, DatasetView
from repro.distributed.participation import Participation
from repro.exceptions import ConfigurationError, ExperimentError
from repro.population.config import PopulationConfig
from repro.population.directory import ClientDirectory
from repro.population.sampler import CohortSampler
from repro.population.store import ClientStateStore
from repro.utils.rng import RngFactory


class ClientPopulation:
    """N logical clients multiplexed onto a C-slot cluster, one cohort per round.

    ``client_seed_fn`` maps a client id to the seed of its private training
    streams (batch sampler + epoch iterator); the default derives a named
    stream per client from ``seed``.  ``build_cluster`` passes the workload's
    ``RngFactory.worker`` so that a population of ``N == K`` clients with
    cohort=all reproduces a materialized ``build_cluster`` worker-for-worker;
    the parity harness passes ``lambda c: c`` to mirror its int-seeded
    workers.
    """

    def __init__(
        self,
        config: PopulationConfig,
        *,
        shards: Optional[Sequence[Union[Dataset, DatasetView]]] = None,
        train_dataset: Optional[Dataset] = None,
        seed: int = 0,
        client_seed_fn: Optional[Callable[[int], object]] = None,
        spill_dir=None,
    ) -> None:
        self.config = config
        self.seed = int(seed)
        self.directory = ClientDirectory(
            config, shards=shards, train_dataset=train_dataset, seed=seed
        )
        self.cohort_sampler = CohortSampler(config, seed)
        self.store = ClientStateStore(
            budget=config.effective_memory_budget, spill_dir=spill_dir
        )
        if client_seed_fn is None:
            factory = RngFactory(seed)
            client_seed_fn = lambda client_id: factory.named(f"pop-client-{client_id}")
        self._client_seed_fn = client_seed_fn
        self._cluster = None
        self.strategy = None
        self._initial_params: Optional[np.ndarray] = None
        self._initial_buffers: Optional[np.ndarray] = None
        self._bound: Optional[np.ndarray] = None
        self._bound_base_steps: Optional[list] = None
        self.rounds_completed = 0
        #: Cumulative local steps per ever-bound client (small: one int per
        #: stateful client, regardless of snapshot residency).
        self.client_steps: Dict[int, int] = {}

    # -- wiring ------------------------------------------------------------------

    @property
    def cluster(self):
        if self._cluster is None:
            raise ExperimentError(
                "ClientPopulation is not attached to a cluster; call attach() first"
            )
        return self._cluster

    def attach(self, cluster, strategy=None) -> "ClientPopulation":
        """Bind to a cluster (after the strategy's initial broadcast).

        Captures the model a first-time client starts from: the shared initial
        model ``w₀`` and the factory-initial buffers.  Must run *after*
        ``strategy.attach`` so ``w₀`` is the broadcast initial model.
        """
        if cluster.num_workers != self.config.cohort_size:
            raise ConfigurationError(
                f"population cohort_size={self.config.cohort_size} needs exactly "
                f"that many worker slots, cluster has {cluster.num_workers}"
            )
        self._cluster = cluster
        if strategy is not None:
            self.strategy = strategy
        self._initial_params = cluster.parameter_matrix[0].copy()
        self._initial_buffers = cluster.buffer_matrix[0].copy()
        cluster.population = self
        return self

    def describe(self) -> str:
        return self.config.describe()

    @property
    def peak_resident_clients(self) -> int:
        """High-water mark of in-memory client snapshots (cohort-bounded)."""
        return self.store.peak_resident

    # -- binding -----------------------------------------------------------------

    def bind_cohort(self, cohort: np.ndarray) -> None:
        """Bind the cohort's clients into slots 0..len(cohort)-1.

        Slots beyond a partial (Bernoulli) cohort keep their stale contents
        but are masked out of stepping, state reporting, aggregation and
        broadcasts: the cohort is bound as a
        :class:`~repro.distributed.participation.Participation` whose mask
        leaves them out.
        """
        cluster = self.cluster
        if self._bound is not None:
            raise ExperimentError("a cohort is already bound; unbind it first")
        cohort = np.asarray(cohort, dtype=np.int64)
        if cohort.size == 0 or cohort.size > cluster.num_workers:
            raise ConfigurationError(
                f"cohort size must lie in [1, {cluster.num_workers}], got {cohort.size}"
            )
        self.store.make_room(cohort)  # its saves' evictions are written while it trains
        sample_counts = np.zeros(cluster.num_workers)
        self._bound_base_steps = []
        for slot, client_id in enumerate(cohort):
            client_id = int(client_id)
            worker = cluster.workers[slot]
            shard = self.directory.shard(client_id)
            worker.set_dataset(shard)
            # The step counter paces the run budget (cluster.parallel_steps):
            # it stays with the slot, whichever client moves in.
            slot_steps = worker.steps_performed
            snapshot = self.store.load(client_id)
            if snapshot is None:
                cluster.reset_slot(
                    slot,
                    self._initial_params,
                    self._initial_buffers,
                    self._client_seed_fn(client_id),
                )
            else:
                cluster.restore_slot(slot, snapshot)
            worker.steps_performed = slot_steps
            self._bound_base_steps.append(slot_steps)
            sample_counts[slot] = len(shard)
        # One value says who is seated and how much each counts.  A uniform
        # full-slot cohort is Participation(): the cluster's exact
        # mean(axis=0) collectives, bit-identical to a materialized cluster
        # (the parity contract).
        partial = cohort.size < cluster.num_workers
        cluster.bind_members(
            Participation(
                mask=np.arange(cluster.num_workers) < cohort.size if partial else None,
                weights=sample_counts if self.config.weighting == "data-size" else None,
            )
        )
        self._bound = cohort

    def unbind_cohort(self) -> None:
        """Snapshot every bound client into the store and release the slots.

        The bound participation is deliberately left in force until the next
        binding, so between-round evaluation of the global model still
        aggregates over the round's cohort.
        """
        cluster = self.cluster
        if self._bound is None:
            raise ExperimentError("no cohort is bound")
        for slot, client_id in enumerate(self._bound):
            client_id = int(client_id)
            delta = cluster.workers[slot].steps_performed - self._bound_base_steps[slot]
            self.client_steps[client_id] = self.client_steps.get(client_id, 0) + delta
            self.store.save(client_id, cluster.capture_slot(slot))
        self._bound = None
        self._bound_base_steps = None

    # -- the round loop ----------------------------------------------------------

    def run_round(self):
        """Draw a cohort, bind it, run one strategy round, unbind.

        Returns the strategy's :class:`~repro.strategies.base.StrategyRound`.
        """
        if self.strategy is None:
            raise ExperimentError(
                "ClientPopulation has no strategy; attach(cluster, strategy) first"
            )
        cohort = self.cohort_sampler.draw()
        self.bind_cohort(cohort)
        result = self.strategy.run_round()
        self.unbind_cohort()
        self.rounds_completed += 1
        return result

    def __repr__(self) -> str:
        return (
            f"ClientPopulation({self.describe()}, rounds={self.rounds_completed}, "
            f"stateful={self.store.stateful_count}, "
            f"resident={self.store.resident_count})"
        )
