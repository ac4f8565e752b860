"""Workload configuration and cluster construction.

A :class:`WorkloadConfig` bundles everything Table 2 of the paper specifies
per experiment: the model (a factory), the dataset pair, the local optimizer,
the batch size ``b``, the number of workers ``K``, and the data-distribution
scheme.  :func:`build_cluster` turns a workload into a ready-to-train
:class:`~repro.distributed.cluster.SimulatedCluster` with identically
initialized worker models and per-worker data shards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.backend import resolve_dtype
from repro.composition import allows, features
from repro.compression import CompressionConfig, get_compression
from repro.core.timeline import Timeline
from repro.data.datasets import Dataset, DatasetView
from repro.data.partition import partition_dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.network import NetworkModel
from repro.distributed.topology import Topology
from repro.distributed.worker import Worker
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.nn.model import Sequential
from repro.optim.adam import Adam, AdamW
from repro.optim.base import Optimizer
from repro.optim.sgd import SGD
from repro.population.config import PopulationConfig
from repro.serving.config import ServingConfig
from repro.utils.rng import RngFactory

ModelFactory = Callable[[], Sequential]
OptimizerFactory = Callable[[], Optimizer]

def make_optimizer(name: str, **kwargs) -> OptimizerFactory:
    """Return a factory for one of the paper's local optimizers.

    ``name`` is ``"adam"`` (LeNet-5 / VGG16* experiments), ``"sgd-nm"`` (the
    DenseNet experiments: SGD with Nesterov momentum 0.9), ``"sgd"`` or
    ``"adamw"`` (the ConvNeXt fine-tuning experiments).
    """
    if name == "adam":
        return lambda: Adam(**{"learning_rate": 0.001, **kwargs})
    if name == "adamw":
        return lambda: AdamW(**{"learning_rate": 0.001, "weight_decay": 0.01, **kwargs})
    if name == "sgd":
        return lambda: SGD(**{"learning_rate": 0.05, **kwargs})
    if name == "sgd-nm":
        defaults = {"learning_rate": 0.05, "momentum": 0.9, "nesterov": True}
        return lambda: SGD(**{**defaults, **kwargs})
    raise ConfigurationError(
        f"unknown optimizer {name!r}; expected 'adam', 'adamw', 'sgd' or 'sgd-nm'"
    )


@dataclass
class WorkloadConfig:
    """Everything needed to build one training workload.

    ``model_factory`` must return a *built* model; it is called once per
    worker (plus once for evaluation) with identical seeds so all replicas
    start from the same initialization, as Algorithm 1 requires.
    """

    name: str
    model_factory: ModelFactory
    train_dataset: Dataset
    test_dataset: Dataset
    optimizer_factory: OptimizerFactory
    num_workers: int = 5
    batch_size: int = 32
    partition_scheme: str = "iid"
    partition_kwargs: Dict[str, object] = field(default_factory=dict)
    #: Fabric configuration: a topology name (``"star"``, ``"ring"``,
    #: ``"hierarchical"``, ``"gossip"``) or instance, and a network-model name
    #: (``"fl"``, ``"hpc"``, ``"balanced"``, ``"none"``) or instance.
    topology: Union[str, Topology, None] = None
    network: Union[str, NetworkModel, None] = None
    #: Timeline configuration: optional per-round dropout.  ``0`` keeps the
    #: default unperturbed clock.
    dropout_rate: float = 0.0
    #: The engine the built cluster runs.  There is one, ``"batched"`` (see
    #: :mod:`repro.distributed.engine`); any other value is refused.  The
    #: field stays only because ``bench/workloads.py`` still spells it.
    execution: str = "batched"
    #: Collective-level payload compression for the built cluster: a kernel
    #: name (``"topk"``, ``"quantization"``, ...), a
    #: :class:`~repro.compression.config.CompressionConfig`, or ``None`` for
    #: exact collectives (the default).  Applies uniformly to every strategy's
    #: sync payloads; see :mod:`repro.compression`.
    compression: Union[str, CompressionConfig, None] = None
    #: Compute dtype of the built cluster's parameter plane: ``"float64"``
    #: (the bit-exact reference, default) or ``"float32"`` (the fast mode;
    #: see :mod:`repro.backend`).
    dtype: str = "float64"
    #: Fault injection for the built cluster: a
    #: :class:`~repro.faults.plan.FaultPlan` (worker churn, lossy links) or
    #: ``None``.  A null plan (all rates zero) installs nothing, so it is
    #: stored as ``None``: the run and its run key are those of no plan.
    faults: Optional["FaultPlan"] = None
    #: Population plane: a :class:`~repro.population.config.PopulationConfig`
    #: registers ``num_clients`` logical clients multiplexed onto
    #: ``cohort_size`` physical worker slots (``num_workers`` must equal the
    #: cohort size).  ``None`` (the default) trains the materialized cluster
    #: directly — bit-identical to the pre-population behaviour.
    population: Optional[PopulationConfig] = None
    #: Serving plane: a :class:`~repro.serving.config.ServingConfig` drives
    #: the workload as a served system — open-loop client-update arrivals,
    #: a bounded coordinator ingress queue, staleness-aware aggregation —
    #: instead of the closed-loop trainer.  ``None`` (the default) leaves
    #: training untouched.
    serving: Optional[ServingConfig] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ConfigurationError(f"num_workers must be positive, got {self.num_workers}")
        if self.batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(
                f"dropout_rate must lie in [0, 1), got {self.dropout_rate}"
            )
        if self.execution != "batched":
            raise ConfigurationError(
                f"execution={self.execution!r}: the per-worker engine is gone; every "
                "cluster runs the batched engine (execution='batched')"
            )
        # Normalize eagerly so configuration errors (unknown kernel names,
        # out-of-range knobs) surface where the workload is defined, not at
        # cluster construction deep inside a sweep.
        self.compression = get_compression(self.compression)
        self.dtype = resolve_dtype(self.dtype).name
        self.dropout_rate = float(self.dropout_rate)
        if self.faults is not None and self.faults.is_null:
            self.faults = None
        if self.population is not None and self.num_workers != self.population.cohort_size:
            raise ConfigurationError(
                f"population workloads need num_workers == cohort_size "
                f"({self.population.cohort_size}), got num_workers={self.num_workers}; "
                f"use with_population() to keep them in sync"
            )

    def with_seed(self, seed: int) -> "WorkloadConfig":
        """A copy of this workload with a different random seed."""
        return replace(self, seed=seed)

    def with_population(self, population: Optional[PopulationConfig]) -> "WorkloadConfig":
        """A copy of this workload over a registered client population.

        ``population`` is a :class:`~repro.population.config.PopulationConfig`
        (the worker count snaps to its cohort size — the cluster's slots
        become the cohort window) or ``None`` to return to the materialized
        cluster; used by the CLI's ``compare --population``/``--cohort-size``
        flags and the population scaling bench.
        """
        if population is None:
            return replace(self, population=None)
        return replace(self, population=population, num_workers=population.cohort_size)


# ---------------------------------------------------------------------------
# Shared-setup memoization
# ---------------------------------------------------------------------------


class _ModelPool:
    """K reusable model skeletons plus their pristine initial state.

    Building a model runs every layer's initializer; on small-cell grids that
    per-cell, per-worker rebuild dominates setup time.  The pool builds the K
    skeletons once and thereafter *copy-on-binds*: each :meth:`bind` restores
    the pristine initial parameter/buffer vectors (flat array copies), zeroes
    the gradients, and rewinds every layer's private RNG stream, which is
    bit-identical to a fresh factory build (factories seed deterministically,
    so all builds from one factory are equal by construction).

    Only one cluster built from a pool may be *live* at a time: binding for
    the next cell overwrites the skeletons the previous cell's cluster holds.
    :meth:`SetupCache.worker_models` drops the cluster the cache holds before
    it binds; any other lives for one cell (the executor runs one at a time).
    """

    def __init__(self, factory: ModelFactory, num_workers: int) -> None:
        from repro.experiments.cache import model_digest

        self.factory = factory  # strong ref pins id(factory) for the cache key
        self.models = [factory() for _ in range(num_workers)]
        template = self.models[0]
        self.dtype = template.dtype
        self.init_params = template.get_parameters()
        self.init_buffers = template.get_buffers()
        #: Content digest of the pristine model, computed once per pool.
        self.digest = model_digest(template)
        # Per-model snapshot of every layer's private RNG (Dropout streams):
        # bind() rewinds them so mask sequences replay exactly.
        self._rng_states = [model.rng_states() for model in self.models]

    def bind(self, dtype) -> List[Sequential]:
        """Reset every skeleton to its pristine state *in* ``dtype`` and return them.

        ``dtype`` is the dtype of the cell about to use the skeletons (``None``
        = the pool's build dtype).  A skeleton still in the dtype the previous
        cell left it in is reused as it is; its plane is converted only when
        that differs from ``dtype``.  The pristine vectors (kept in the build
        dtype) are then written *through* the plane: assignment rounds exactly
        as ``astype`` does, so the result equals an eager factory build that
        the cluster then converts, in either dtype and in any order of cells.
        """
        dtype = self.dtype if dtype is None else dtype
        for model, rng_states in zip(self.models, self._rng_states):
            model.to_dtype(dtype)
            model.parameters_view()[...] = self.init_params
            model.buffers_view()[...] = self.init_buffers
            model.gradients_view()[...] = 0.0
            model.load_rng_states(rng_states)
        return self.models


class SetupCache:
    """Memoizes the expensive, reusable pieces of :func:`build_cluster`.

    Three levels, each keyed by content (or by a pinned factory object):

    * **dataset digests** — SHA-256 content hashes, memoized per dataset
      object (datasets are immutable by convention);
    * **partitions** — the per-worker shards for one (dataset content, K,
      scheme, kwargs, seed) combination, shared read-only across cells;
    * **model pools** — K pre-built skeletons per (factory, K), rebound to
      their pristine initial state for every build (see :class:`_ModelPool`);
    * **the held cluster** — the last built cluster and its as-built
      ``state_dict()``, restored for the next cell of its workload.

    One instance serves one executor (or one process of a parallel sweep);
    everything it returns is deterministic, so memoized, restored and eager
    builds produce bit-identical training trajectories.
    """

    def __init__(self) -> None:
        self._dataset_digests: Dict[int, Tuple[Dataset, str]] = {}
        self._partitions: Dict[Tuple, List[DatasetView]] = {}
        self._pools: Dict[Tuple[int, int], _ModelPool] = {}
        self._model_digests: Dict[int, Tuple[ModelFactory, str]] = {}
        self.partition_hits = 0
        self.partition_misses = 0
        self.model_hits = 0
        self.model_misses = 0
        self._held: Optional[Tuple[str, SimulatedCluster, dict]] = None
        self.cluster_hits = 0
        self.cluster_misses = 0

    def dataset_digest(self, dataset: Dataset) -> str:
        from repro.experiments.cache import dataset_digest

        entry = self._dataset_digests.get(id(dataset))
        if entry is not None and entry[0] is dataset:
            return entry[1]
        digest = dataset_digest(dataset)
        self._dataset_digests[id(dataset)] = (dataset, digest)
        return digest

    def _partition_key(self, config: WorkloadConfig) -> Tuple:
        kwargs = json.dumps(config.partition_kwargs, sort_keys=True, default=str)
        return (
            self.dataset_digest(config.train_dataset),
            int(config.num_workers),
            str(config.partition_scheme),
            kwargs,
            int(config.seed),
        )

    def partitions(self, config: WorkloadConfig) -> List[DatasetView]:
        """The workload's per-worker shards (shared, read-only)."""
        key = self._partition_key(config)
        shards = self._partitions.get(key)
        if shards is not None:
            self.partition_hits += 1
            return shards
        self.partition_misses += 1
        shards = partition_dataset(
            config.train_dataset,
            config.num_workers,
            scheme=config.partition_scheme,
            seed=RngFactory(config.seed).named("partition"),
            **config.partition_kwargs,
        )
        self._partitions[key] = shards
        return shards

    def _pool(self, config: WorkloadConfig) -> _ModelPool:
        # Pools are keyed by physical slots, not by clients.
        slots = config.num_workers
        key = (id(config.model_factory), slots)
        pool = self._pools.get(key)
        if pool is not None and pool.factory is config.model_factory:
            self.model_hits += 1
            return pool
        self.model_misses += 1
        pool = _ModelPool(config.model_factory, slots)
        self._pools[key] = pool
        return pool

    def worker_models(self, config: WorkloadConfig) -> List[Sequential]:
        """K pristine worker models for one cell.

        The models come bound in the cell's own dtype (``config.dtype``, or
        the factory's when that is ``None``), so the cluster built from them
        has nothing left to convert.  The held cluster, whose models may be
        the skeletons this rebinds, is dropped first.
        """
        self.release_cluster()
        return self._pool(config).bind(config.dtype)

    def restored_cluster(self, workload: str) -> Optional[SimulatedCluster]:
        """The held cluster in its as-built state if built for ``workload`` (a
        fingerprint digest); ``None``: build, and offer it to :meth:`hold_cluster`."""
        if self._held is None or self._held[0] != workload:
            self.cluster_misses += 1
            self.release_cluster()  # before the caller's build allocates
            return None
        self.cluster_hits += 1
        _, cluster, as_built = self._held
        cluster.load_state_dict(as_built)
        return cluster

    def hold_cluster(self, workload: str, cluster: SimulatedCluster) -> None:
        """Keep a just-built ``cluster`` and its state for the next cell of ``workload``.

        Only a cluster a checkpoint may resume is held (not a population's).
        All-zero slot matrices (fresh optimizer state, residual) are held as
        the scalar ``0``, which the restore broadcasts.
        """
        if allows("resume", *features(cluster)):
            as_built = {
                name: 0 if isinstance(value, np.ndarray) and value.ndim == 2 and not value.any()
                else value
                for name, value in cluster.state_dict().items()
            }
            self._held = (workload, cluster, as_built)

    def release_cluster(self) -> None:
        """Drop the held cluster and its as-built state."""
        self._held = None

    def model_digest(self, config: WorkloadConfig) -> str:
        """Content digest of the workload's initial model (architecture + θ₀).

        Memoized per factory object with a single probe build — key
        computation must stay cheap even when no cell executes (the warm
        replay path digests every cell's model without training anything).
        A factory whose model is not built raises ``ModelNotBuiltError``
        here, as :class:`SimulatedCluster` would.
        """
        from repro.experiments.cache import model_digest

        key = id(config.model_factory)
        entry = self._model_digests.get(key)
        if entry is not None and entry[0] is config.model_factory:
            return entry[1]
        digest = model_digest(config.model_factory())
        self._model_digests[key] = (config.model_factory, digest)
        return digest


def build_cluster(
    config: WorkloadConfig, setup: Optional[SetupCache] = None
) -> Tuple[SimulatedCluster, Dataset]:
    """Build the simulated cluster for a workload.

    Returns ``(cluster, test_dataset)``.  Worker models are created from the
    same factory, so they share an architecture; the cluster/strategy then
    broadcasts worker 0's parameters so that all replicas start identical.
    ``optimizer_factory`` is called once: its optimizer is the cluster's, and
    every worker's state is a row of its stack.

    ``setup`` (a :class:`SetupCache`) memoizes partitions and initial model
    state across repeated builds of the same workload — the sweep executor's
    shared-setup path.  Memoized and eager builds are bit-identical; without
    a cache every call rebuilds everything from scratch.

    With ``config.population`` set, the built cluster is the *cohort window*:
    ``cohort_size`` slots, slot ``s`` seeded with client ``s mod N``'s shard so
    every slot has valid data before the first cohort binds.  Partitioning is
    bypassed — client shards come from the population's
    :class:`~repro.population.directory.ClientDirectory` — and an unattached
    :class:`~repro.population.plane.ClientPopulation` hangs on
    ``cluster.population`` for the training run to attach (after the
    strategy's initial broadcast, so the fresh-client model is the shared w₀)
    and drive.
    """
    rng_factory = RngFactory(config.seed)
    population = None
    if config.population is not None:
        from repro.population.plane import ClientPopulation

        population = ClientPopulation(
            config.population,
            train_dataset=config.train_dataset,
            seed=config.seed,
            client_seed_fn=rng_factory.worker,
        )
        shards = [
            population.directory.shard(slot % config.population.num_clients)
            for slot in range(config.num_workers)
        ]
    elif setup is not None:
        shards = setup.partitions(config)
    else:
        shards = partition_dataset(
            config.train_dataset,
            config.num_workers,
            scheme=config.partition_scheme,
            seed=rng_factory.named("partition"),
            **config.partition_kwargs,
        )
    pooled_models = setup.worker_models(config) if setup is not None else None
    workers = []
    for worker_id, shard in enumerate(shards):
        model = pooled_models[worker_id] if pooled_models else config.model_factory()
        workers.append(
            Worker(
                worker_id,
                model,
                shard,
                batch_size=config.batch_size,
                seed=rng_factory.worker(worker_id),
            )
        )
    timeline = None
    if config.dropout_rate:
        timeline = Timeline(
            len(workers),
            seed=rng_factory.named("timeline"),
            dropout_rate=config.dropout_rate,
        )
    cluster = SimulatedCluster(
        workers,
        config.optimizer_factory(),
        topology=config.topology,
        network=config.network,
        timeline=timeline,
        compression=config.compression,
        dtype=config.dtype,
        faults=config.faults,
    )
    cluster.population = population
    return cluster, config.test_dataset
