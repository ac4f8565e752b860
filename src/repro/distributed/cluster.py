"""The simulated cluster: collectives, synchronization, and global evaluation.

:class:`SimulatedCluster` owns the workers and implements the two collective
operations FDA needs (AllReduce of local states and AllReduce of model
parameters).  Every collective is routed through the cluster's
:class:`~repro.distributed.topology.Fabric`, which composes the interconnect
topology (star / ring / hierarchical / gossip), the plane dtype's itemsize
and an optional network model into one ``(bytes, virtual-seconds)`` charge,
booked on the fabric's ledgers; the seconds also move the cluster's shared
:class:`~repro.core.timeline.Timeline` clock.  The cluster also maintains an
*evaluation model* used to measure the accuracy of the global (average) model
without disturbing any worker's local state.

The cluster is the top of the parameter plane: on construction it stacks
every worker's flat parameter vector (and buffer vector) into one contiguous
``(K, d)`` matrix and rebinds each model's storage onto its row.  From then
on ``average_parameters``, ``synchronize``, ``broadcast_parameters``, and
``drift_matrix`` are single row-wise matrix operations — no per-worker Python
loops, no gather/scatter copies.

The cluster holds the one copy of the *shared model*
(:attr:`SimulatedCluster.shared_parameters`, the paper's ``w_{t0}``): FDA's
drifts, the compressed exchange's drifts and the server round's global model
are this value.  Compression is a collective-level concern and lives here
too: an optional :class:`~repro.compression.state.ClusterCompression`
(configured once, by the ``compression`` constructor argument) reroutes
``synchronize`` and :meth:`gather_models` through row-wise compression kernels
with per-worker error-feedback memory, and every ``charge_*`` call accepts a
compression spec so the fabric prices the true compressed payload per link.
Without it, every path below is bit-identical to the uncompressed
implementation.

Which rows a collective averages and overwrites is one value, a
:class:`~repro.distributed.participation.Participation`, with two producers
here: :attr:`SimulatedCluster.members` (the cohort the population plane
bound ∧ the fault injector's liveness — who votes and receives) and
:meth:`SimulatedCluster.begin_round` (members ∧ the timeline's dropout draw —
who steps and reports this round).  Every average below is its ``mean`` and
every write-back indexes with its ``rows``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import resolve_dtype, row_shards, run_shards, shard_bounds
from repro.data.datasets import Dataset
from repro.distributed.engine import BatchedEngine
from repro.distributed.network import NetworkModel, get_network
from repro.distributed.participation import Participation
from repro.distributed.topology import CollectiveCharge, Fabric, Topology, get_topology
from repro.distributed.worker import Worker
from repro.exceptions import CommunicationError, ConfigurationError, ShapeError
from repro.nn.losses import Loss, SoftmaxCrossEntropy

#: Traffic categories used by the tracker.
CATEGORY_MODEL = "model-sync"
CATEGORY_STATE = "fda-state"


class SimulatedCluster:
    """A set of workers plus exact-average collectives with cost accounting.

    ``topology`` (a name or :class:`~repro.distributed.topology.Topology`) and
    ``network`` (a name or :class:`~repro.distributed.network.NetworkModel`)
    configure the communication fabric; ``timeline`` supplies the virtual
    clock (heterogeneous compute, stragglers, dropout).  All three default to
    the paper's setting — star topology, instantaneous network, uniform unit
    compute.

    Below ``step_all`` one engine advances all ``K`` workers in one
    vectorized pass (see :mod:`repro.distributed.engine`).

    ``compression`` installs cluster-level payload compression: a kernel name
    (``"topk"``, ``"quantization"``, ``"randomk"``, ``"signsgd"``,
    ``"layerwise-topk"``), a
    :class:`~repro.compression.config.CompressionConfig`, or ``None`` (exact
    collectives, the default).  From then on ``synchronize`` and
    :meth:`gather_models` exchange compressed drifts from
    :attr:`shared_parameters` and the fabric charges compressed bytes.

    ``dtype`` selects the compute dtype of the whole parameter plane:
    ``float64`` (default, the bit-exact reference) or ``float32`` (the fast
    mode — half the memory traffic, itemsize-accurate half the sync bytes).
    Worker models built in another dtype are converted in place before their
    storage is rebound onto the ``(K, d)`` matrix rows.  The fabric prices
    collectives at ``dtype.itemsize`` bytes per element, so byte ledgers
    always reflect what the selected precision actually puts on the wire.
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        loss: Optional[Loss] = None,
        topology: Union[str, Topology, None] = None,
        network: Union[str, NetworkModel, None] = None,
        timeline: Optional["Timeline"] = None,
        compression=None,
        dtype=None,
        faults=None,
    ) -> None:
        if not workers:
            raise ConfigurationError("a cluster needs at least one worker")
        dimensions = {worker.num_parameters for worker in workers}
        if len(dimensions) != 1:
            raise CommunicationError(
                f"all workers must share the same model dimension, got {sorted(dimensions)}"
            )
        buffer_sizes = {worker.model.num_buffers for worker in workers}
        if len(buffer_sizes) != 1:
            raise CommunicationError(
                f"all workers must share the same buffer dimension, got {sorted(buffer_sizes)}"
            )
        self.workers: List[Worker] = list(workers)
        # The plane dtype: explicit ``dtype`` wins; otherwise inherit from the
        # workers' models (which default to the float64 reference dtype).
        if dtype is not None:
            self.dtype = resolve_dtype(dtype)
        else:
            model_dtypes = {worker.model.dtype for worker in self.workers}
            if len(model_dtypes) != 1:
                raise ConfigurationError(
                    "workers disagree on model dtype "
                    f"({sorted(d.name for d in model_dtypes)}); pass dtype= to "
                    "pick the cluster-wide compute dtype"
                )
            self.dtype = model_dtypes.pop()
        for worker in self.workers:
            worker.model.to_dtype(self.dtype)
        self.fabric = Fabric(
            topology=get_topology("star" if topology is None else topology),
            itemsize=self.dtype.itemsize,
            network=get_network(network),
        )
        self.fabric.topology.validate(len(self.workers))
        # Compatibility alias: the tracker is owned by the fabric but remains
        # reachable as ``cluster.tracker`` for existing callers and tests.
        self.tracker = self.fabric.tracker
        from repro.core.timeline import Timeline  # local import: core builds on distributed

        if timeline is not None and timeline.num_workers != len(self.workers):
            raise ConfigurationError(
                f"timeline models {timeline.num_workers} workers, cluster has {len(self.workers)}"
            )
        self.timeline = timeline or Timeline(len(self.workers))
        self.loss = loss or SoftmaxCrossEntropy()
        self.synchronization_count = 0
        # The cluster-wide parameter plane: one contiguous (K, d) matrix whose
        # rows ARE the workers' parameter vectors (each model's flat storage is
        # rebound onto its row), plus the analogous buffer matrix.
        dimension = dimensions.pop()
        self._param_matrix = np.empty((len(self.workers), dimension), dtype=self.dtype)
        for row, worker in zip(self._param_matrix, self.workers):
            worker.model.rebind_parameter_storage(row)
        buffer_size = buffer_sizes.pop()
        self._buffer_matrix = np.empty((len(self.workers), buffer_size), dtype=self.dtype)
        for row, worker in zip(self._buffer_matrix, self.workers):
            worker.model.rebind_buffer_storage(row)
        self._evaluation_model = self.workers[0].model.clone()
        # The bound cohort (population plane): who is seated in the slots and
        # with what weight.  ``Participation()`` — everyone, equally — keeps
        # every collective on the exact lockstep path.
        self._cohort = Participation()
        #: Who stepped and reports this round (set by :meth:`begin_round`).
        self.participants = self._cohort
        self.population = None
        # Optional fault injection: ``faults`` is a
        # :class:`~repro.faults.plan.FaultPlan` (or ``None``).  A null plan
        # (all rates zero) installs nothing at all, which is what makes the
        # fault-free path bit-identical to a run with no plan attached.
        self.faults = None
        if faults is not None and not faults.is_null:
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(faults, len(self.workers))
            self.fabric.injector = self.faults
        # Optional collective-level compression (kernel + (K, d) error-feedback
        # memory), configured here once; None means exact collectives.
        from repro.compression import ClusterCompression, get_compression

        compression = get_compression(compression)
        self._compression = None
        if compression is not None:
            if self.faults is not None:
                raise ConfigurationError(
                    "fault injection and collective compression cannot be "
                    "combined yet; drop one of the two"
                )
            self._compression = ClusterCompression(
                compression,
                num_workers=self.num_workers,
                dimension=self.model_dimension,
                layout=self.workers[0].model.plane.parameter_layout(),
                dtype=self.dtype,
            )
        self._shared_parameters: Optional[np.ndarray] = None  # see shared_parameters
        # The engine sits below step_all; built last because it stacks
        # gradients next to the matrices created above.
        self._engine = BatchedEngine(self)

    # -- basic properties ------------------------------------------------------

    @property
    def num_workers(self) -> int:
        """``K`` in the paper."""
        return len(self.workers)

    @property
    def engine(self) -> BatchedEngine:
        """The engine driving local compute (see :mod:`repro.distributed.engine`)."""
        return self._engine

    @property
    def gradient_matrix(self) -> np.ndarray:
        """The live ``(K, d)`` gradient matrix; row ``k`` IS worker ``k``'s gradients."""
        return self._engine.gradient_matrix

    @property
    def dtype_name(self) -> str:
        """The plane dtype as a string (``"float64"`` or ``"float32"``)."""
        return self.dtype.name

    @property
    def model_dimension(self) -> int:
        """``d`` in the paper."""
        return self.workers[0].num_parameters

    @property
    def parallel_steps(self) -> int:
        """In-parallel learning steps: the maximum steps performed by any worker.

        All strategies in this library drive workers in lockstep, so this also
        equals every individual worker's step count.
        """
        return max(worker.steps_performed for worker in self.workers)

    @property
    def total_bytes(self) -> int:
        """Total communication cost so far (bytes transmitted by all workers)."""
        return self.tracker.total_bytes

    @property
    def virtual_time(self) -> float:
        """The cluster's virtual clock (compute plus communication seconds)."""
        return self.timeline.now

    # -- collective-level compression -------------------------------------------

    @property
    def compression(self):
        """The installed :class:`~repro.compression.state.ClusterCompression` (or ``None``)."""
        return self._compression

    @property
    def compression_label(self) -> str:
        """Compact description of the installed compression (``"none"`` without)."""
        return self._compression.label if self._compression is not None else "none"

    # -- fabric charges ---------------------------------------------------------

    def charge_allreduce(
        self, num_elements: int, category: str, compression=None
    ) -> CollectiveCharge:
        """Charge one AllReduce through the fabric and advance the clock.

        ``compression`` (an optional kernel) makes the fabric price the
        kernel's transmitted payload for a logical vector of ``num_elements``
        instead of the dense size.
        """
        charge = self.fabric.allreduce(
            num_elements, self.num_workers, category, compression=compression
        )
        self.timeline.add_communication(charge.seconds)
        return charge

    def charge_broadcast(
        self, num_elements: int, category: str, compression=None
    ) -> CollectiveCharge:
        """Charge one root-to-all broadcast through the fabric."""
        charge = self.fabric.broadcast(
            num_elements, self.num_workers, category, compression=compression
        )
        self.timeline.add_communication(charge.seconds)
        return charge

    def charge_upload(
        self, num_elements: int, category: str, worker_id: int = 0, compression=None
    ) -> CollectiveCharge:
        """Charge one point-to-point worker → coordinator upload.

        Unlike the collectives this does not act as a cluster-wide barrier:
        the upload's seconds are folded into the sender's next completion by
        the caller (the event-driven coordinator); the fabric's ledger records
        them.
        """
        return self.fabric.upload(
            num_elements, self.num_workers, category, worker_id, compression=compression
        )

    # -- the cluster parameter plane -------------------------------------------

    @property
    def parameter_matrix(self) -> np.ndarray:
        """The live ``(K, d)`` parameter matrix; row ``k`` IS worker ``k``'s model.

        Zero-copy: mutating a row mutates the corresponding model.  Callers
        that need a snapshot must copy.
        """
        return self._param_matrix

    @property
    def buffer_matrix(self) -> np.ndarray:
        """The live ``(K, num_buffers)`` matrix of non-trainable buffers."""
        return self._buffer_matrix

    @property
    def shared_parameters(self) -> np.ndarray:
        """The model shared at the last broadcast or synchronization (``w_{t0}``).

        FDA's drift reference, the compressed exchange's reference and the
        server round's global model.  Its writers rebind it to a fresh array
        and never write into the old one, so whoever holds an earlier value
        (FDA's ``w_{t-1}``, an open FedProx round) keeps it.  A cluster that
        was never broadcast drifts from its members' current average.
        """
        if self._shared_parameters is None:
            return self.average_parameters()
        return self._shared_parameters

    def drift_matrix(self, reference: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """All worker drifts ``u_t^{(k)} = w_t^{(k)} − reference`` as a ``(K, d)`` matrix.

        One vectorized subtraction replaces the per-worker gather-and-subtract
        loop, split into row shards when the plane is wide enough
        (:func:`repro.backend.row_shards`).  Without ``out`` the matrix is
        freshly allocated; with a reusable ``out`` buffer the rows are only
        valid until the next call that writes into the same buffer (FDA's
        monitors copy what they keep into their state rows).
        """
        reference = np.asarray(reference, dtype=self.dtype)
        if reference.shape != (self.model_dimension,):
            raise ShapeError(
                f"reference must have shape ({self.model_dimension},), got {reference.shape}"
            )
        rows, width = self._param_matrix.shape
        shards = row_shards(rows, width)
        if shards == 1:
            return np.subtract(self._param_matrix, reference, out=out)
        if out is None:
            out = np.empty_like(self._param_matrix)
        bounds = shard_bounds(rows, shards)
        run_shards(np.subtract, [(self._param_matrix[a:b], reference, out[a:b]) for a, b in bounds])
        return out

    # -- slot state --------------------------------------------------------------
    #
    # One answer to "what is worker slot k's state": its row of the parameter,
    # buffer and error-feedback residual matrices plus what the Worker owns
    # (Worker.state_dict).  Checkpoints take all K slots at once, cohort
    # binding takes the bound ones; both write rows in place.

    def _rows_state(self, rows) -> dict:
        """Copies of ``rows`` (an index or a slice) of every per-slot matrix."""
        state = {
            "parameters": self._param_matrix[rows].copy(),
            "buffers": self._buffer_matrix[rows].copy(),
        }
        if self._compression is not None and self._compression.error_feedback:
            state["residual"] = self._compression.residual_matrix[rows].copy()
        return state

    def _load_rows(self, rows, state: dict) -> None:
        self._param_matrix[rows] = state["parameters"]
        self._buffer_matrix[rows] = state["buffers"]
        if self._compression is not None and self._compression.error_feedback:
            self._compression.residual_matrix[rows] = state["residual"]

    def capture_slot(self, slot: int) -> dict:
        """Snapshot of slot ``slot`` (copies; the slot lives on)."""
        return {**self._rows_state(slot), "worker": self.workers[slot].state_dict()}

    def restore_slot(self, slot: int, snapshot: dict) -> None:
        """Write a :meth:`capture_slot` snapshot back into ``slot``, in place."""
        self._load_rows(slot, snapshot)
        self.workers[slot].load_state_dict(snapshot["worker"])

    def reset_slot(self, slot: int, parameters: np.ndarray, buffers: np.ndarray, seed) -> None:
        """Make ``slot`` a freshly built worker holding ``parameters``/``buffers``.

        Zero optimizer state and residual, step count 0, the batch streams of
        ``seed`` and the model's initial layer streams, all in place.
        """
        self._load_rows(slot, {"parameters": parameters, "buffers": buffers, "residual": 0.0})
        self.workers[slot].reset_state(seed)

    def state_dict(self) -> dict:
        """Everything training mutates in the cluster: all K slots plus the
        cluster-level state, each part serialised by the object that owns it."""
        return {
            **self._rows_state(slice(None)),
            "workers": [worker.state_dict() for worker in self.workers],
            "synchronization_count": self.synchronization_count,
            "shared_parameters": (
                None if self._shared_parameters is None else self._shared_parameters.copy()
            ),
            "compression": (
                None if self._compression is None else self._compression.state_dict()
            ),
            "timeline": self.timeline.state_dict(),
            "fabric": self.fabric.state_dict(),
            "injector": None if self.faults is None else self.faults.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Resume a freshly built cluster of the same configuration, in place."""
        self._load_rows(slice(None), state)
        for worker, worker_state in zip(self.workers, state["workers"]):
            worker.load_state_dict(worker_state)
        self.synchronization_count = int(state["synchronization_count"])
        shared = state["shared_parameters"]
        self._shared_parameters = None if shared is None else np.array(shared, dtype=self.dtype)
        if self._compression is not None:
            self._compression.load_state_dict(state["compression"])
        self.timeline.load_state_dict(state["timeline"])
        self.fabric.load_state_dict(state["fabric"])
        if self.faults is not None:
            self.faults.load_state_dict(state["injector"])

    # -- collectives -----------------------------------------------------------

    def broadcast_parameters(self, flat: np.ndarray, count_cost: bool = False) -> None:
        """Set every worker's parameters to ``flat`` (optionally charging broadcast bytes).

        ``flat`` becomes the shared model (a copy): subsequent drifts —
        FDA's, and the compressed uploads' — are taken from it.
        """
        flat = np.asarray(flat, dtype=self.dtype)
        if flat.shape != (self.model_dimension,):
            raise ShapeError(
                f"expected a flat parameter vector of shape ({self.model_dimension},), "
                f"got {flat.shape}"
            )
        if count_cost:
            self.charge_broadcast(int(flat.size), CATEGORY_MODEL)
        # Only members receive: dead rows stay frozen (they pull the current
        # model when they rejoin), unbound rows keep their stale contents.
        members = self.members
        self._param_matrix[members.rows] = flat
        if count_cost:
            self._maybe_corrupt(members)
        self._shared_parameters = flat.copy()

    # -- participation -----------------------------------------------------------

    @property
    def members(self) -> Participation:
        """Who votes in and receives a collective: the bound cohort ∧ liveness.

        The cohort (mask and weights) is what the population plane last bound;
        liveness belongs to the fault injector and is folded in here, the one
        place that composes the two.  With no population and no crash plan
        this is ``Participation()`` — nothing allocated, every collective on
        the exact ``mean(axis=0)`` path.
        """
        if self.faults is None or not self.faults.churn_active:
            return self._cohort
        return self._cohort.restrict(self.faults.alive)

    def bind_members(self, cohort: Participation) -> None:
        """Seat a cohort: which slots are bound and how much each one weighs."""
        for vector in (cohort.mask, cohort.weights):
            if vector is not None and vector.shape != (self.num_workers,):
                raise ShapeError(
                    f"a cohort needs one entry per slot ({self.num_workers}), got {vector.shape}"
                )
        if cohort.mask is not None and not cohort.mask.any():
            raise ConfigurationError("a cohort must keep at least one slot bound")
        self._cohort = cohort

    def begin_round(self, active: Optional[np.ndarray] = None) -> Participation:
        """Open a round: advance churn once, then say who steps and reports.

        Crash draws, due rejoins and recoveries are processed first.  A
        crashed worker's ``(K, d)`` rows are frozen from here on; its
        un-synced local progress is lost, modelled by resetting its optimizer
        state on rejoin.  A rejoining worker pays a real point-to-point model
        download from the coordinator before it may step again.  The round's
        participants are the members restricted to ``active`` (the timeline's
        dropout draw, or ``None``); they are returned and kept on
        :attr:`participants` for the protocol layer to read after stepping.
        """
        if self.faults is not None:
            _, rejoined = self.faults.advance_round(self.timeline.now)
            for worker_id in rejoined:
                self._rejoin_worker(worker_id)
        self.participants = self.members.restrict(active)
        return self.participants

    # -- model synchronization ---------------------------------------------------

    def average_parameters(self) -> np.ndarray:
        """The global model ``w̄`` (average of worker parameters); free of charge.

        This is a *bookkeeping* average used for evaluation — it does not
        correspond to any network traffic in the simulated system.  Under
        worker churn the average renormalizes over the surviving workers:
        dead rows hold frozen, stale models and do not vote.  With a weighted
        cohort bound the average is the weighted mean.
        """
        return self.members.mean(self._param_matrix)

    def average_buffers(self) -> np.ndarray:
        """Average of the workers' non-trainable buffers (batch-norm statistics).

        Renormalized over survivors under churn, like :meth:`average_parameters`.
        """
        return self.members.mean(self._buffer_matrix)

    def synchronize(self, include_buffers: bool = True) -> np.ndarray:
        """Full model synchronization via AllReduce (Algorithm 1, line 9).

        Averages the worker parameters (and, by default, the batch-norm
        buffers) with one row-wise reduction over the parameter matrix,
        broadcasts the average back into every row, charges the corresponding
        AllReduce traffic, and returns the new global parameters — which
        become :attr:`shared_parameters`.

        With compression installed the exchange is lossy instead of exact:
        every worker uploads its compressed drift from the last shared model,
        the averaged reconstruction becomes the new global model, and the
        fabric is charged the compressed payload (see
        :class:`~repro.compression.state.ClusterCompression`).  Every
        strategy that synchronizes through the cluster — FDA's triggered
        syncs, BSP, Local-SGD — therefore compresses uniformly.
        """
        if self._compression is not None:
            average = self._compression.synchronize(self, include_buffers=include_buffers)
        else:
            members = self.members
            average = members.mean(self._param_matrix)
            self.charge_allreduce(int(average.size), CATEGORY_MODEL)
            self._param_matrix[members.rows] = average
            if include_buffers and self._buffer_matrix.shape[1]:
                buffer_average = members.mean(self._buffer_matrix)
                self.charge_allreduce(int(buffer_average.size), CATEGORY_MODEL)
                self._buffer_matrix[members.rows] = buffer_average
            self._maybe_corrupt(members)
            self.synchronization_count += 1
        self._shared_parameters = average
        return average

    def gather_models(self, category: str = CATEGORY_MODEL) -> np.ndarray:
        """One client→server model upload round, charged through the fabric.

        The server-based strategies (FedOpt, FedProx, SCAFFOLD) aggregate the
        clients' models once per round; this is the single place that prices
        that upload.  Without compression it charges one full-model AllReduce
        and returns the live ``(K, d)`` parameter matrix — exactly the
        pre-compression accounting and aggregation, byte-for-byte.  With
        compression it charges the compressed payload and returns the models
        *as the server reconstructs them*: :attr:`shared_parameters` (the
        global model) plus each worker's lossy drift.
        """
        if self._compression is None:
            self.charge_allreduce(self.model_dimension, category)
            return self._param_matrix
        return self._compression.gather_models(self, category=category)

    # -- the fault plane ---------------------------------------------------------

    def _rejoin_worker(self, worker_id: int) -> None:
        """Bring a recovered worker back: download the current model, cold-start.

        The worker pulls the survivors' average model over its actual
        coordinator path (charged as a point-to-point transfer on the fabric
        ledgers) and restarts with zeroed optimizer moments and step count —
        whatever momentum it had accumulated before the crash died with it
        (zeroed in place: the stacked optimizer's row bindings stay intact).
        """
        donors = self.members.mask.copy()
        donors[worker_id] = False
        if donors.any():
            survivors = Participation(mask=donors)
            self._param_matrix[worker_id] = survivors.mean(self._param_matrix)
            if self._buffer_matrix.shape[1]:
                self._buffer_matrix[worker_id] = survivors.mean(self._buffer_matrix)
        charge = self.charge_upload(self.model_dimension, CATEGORY_MODEL, worker_id)
        self.faults.log.note_recovery_cost(worker_id, charge.num_bytes, charge.seconds)
        self.workers[worker_id].optimizer.zero_state()

    def _maybe_spike(self, round_seconds: float) -> None:
        """Draw and apply this round's transient straggler spike (if enabled)."""
        if self.faults is None or not self.faults.straggler_active:
            return
        extra = self.faults.sample_straggler_spike(self.timeline.now, round_seconds)
        if extra > 0.0:
            self.timeline.stall(extra)

    def _maybe_corrupt(self, receivers: Participation) -> None:
        """Maybe corrupt the model payload the ``receivers`` got (in place)."""
        if self.faults is not None and self.faults.corruption_active:
            self.faults.corrupt_rows(self._param_matrix, receivers.indices(self.num_workers))

    # -- training helpers ----------------------------------------------------------

    def step_all(self, active: Optional[np.ndarray] = None) -> float:
        """Run one local mini-batch step on every (participating) worker.

        The step is delegated to the engine (one vectorized pass).
        ``active`` is an optional boolean mask for partial participation
        (timeline dropout); absent, every worker steps.  Inactive workers
        neither compute nor consume RNG draws, and their rows of the
        ``(K, d)`` matrices stay bit-untouched.  The timeline advances by the slowest
        participating worker's step duration.  Returns the mean loss over the
        workers that stepped.

        :meth:`begin_round` opens the round (churn first: crashes freeze rows,
        due rejoins pay their model download), so the mask the engine and the
        timeline get is ``cohort ∧ alive ∧ active``; a round in which nobody
        participates performs no compute and returns a loss of ``0.0``.
        """
        mask = self.begin_round(active).mask
        if mask is not None and not mask.any():
            return 0.0
        mean_loss = self._engine.step_all(active=mask)
        elapsed = self.timeline.advance_round(1, active=mask)
        self._maybe_spike(elapsed)
        return mean_loss

    def epoch_all(self, gradient_transform=None) -> float:
        """Run one local epoch on every participating worker; returns the mean loss.

        Epochs stay per-worker: shards may differ in size, so
        the per-round batch sequences are ragged across workers and cannot be
        stacked into one ``(K, B, ...)`` tensor without changing what each
        worker trains on.  ``gradient_transform(rows, params, grads)`` — the
        server strategies' seam (FedProx's proximal term, SCAFFOLD's control
        variates) — is applied by the engine to every stepping row block's
        gradients, in place, just before the optimizer update.
        """
        rows = self.begin_round().indices(self.num_workers)
        if not rows.size:
            return 0.0
        mean_loss = float(
            np.mean([self._engine.epoch_worker(int(row), gradient_transform) for row in rows])
        )
        elapsed = self.timeline.advance_round(
            max(self.workers[row].batches_per_epoch for row in rows)
        )
        self._maybe_spike(elapsed)
        return mean_loss

    # -- evaluation -------------------------------------------------------------------

    def evaluate_global(self, dataset: Dataset, batch_size: int = 256) -> Tuple[float, float]:
        """Evaluate the *global* (average) model on ``dataset``.

        The evaluation model receives the average parameters and the average
        batch-norm buffers; worker state is untouched and no communication is
        charged (evaluation is an observer operation of the simulation).
        """
        self._evaluation_model.set_parameters(self.average_parameters())
        if self._evaluation_model.num_buffers:
            self._evaluation_model.set_buffers(self.average_buffers())
        return self._evaluation_model.evaluate(
            dataset.x, dataset.y, loss=self.loss, batch_size=batch_size
        )

    def __repr__(self) -> str:
        return (
            f"SimulatedCluster(K={self.num_workers}, d={self.model_dimension}, "
            f"topology={self.fabric.topology.name!r}, "
            f"compression={self.compression_label!r}, "
            f"syncs={self.synchronization_count}, "
            f"bytes={self.total_bytes}, t={self.virtual_time:.1f})"
        )
