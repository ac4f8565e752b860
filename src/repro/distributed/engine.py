"""The engine: how a cluster physically advances its workers.

A :class:`~repro.distributed.cluster.SimulatedCluster` separates the training
*protocol* (when to communicate, owned by the trainers/strategies) from the
*mechanics* of a local step.  The engine owns the mechanics: Algorithm 1's
``K`` workers each run ``Optimize(w, B)`` in lockstep, and
:class:`BatchedEngine` runs exactly that as **one vectorized pass**: a
:class:`~repro.data.loaders.StackedSampler` draws the participating workers'
mini-batches (from the workers' own RNG streams) as one ``(A, B, ...)`` array,
a :class:`~repro.nn.batched.BatchedModel` runs one stacked forward/backward
writing every covered worker's gradients into a shared gradient matrix, and a
single :class:`~repro.optim.base.StackedOptimizer` update — the cluster's one
optimizer over ``K`` rows of state — applies all covered workers' optimizer
steps at once.

The engine sits below ``cluster.step_all`` / ``cluster.epoch_all``, so every
protocol — FDA, the Synchronous/BSP baseline, Local-SGD/FedAvg, the server
rounds (FedOpt, FedProx, SCAFFOLD), compression, the event-driven served
trainer — and every model runs on it:

* **Partial participation** (timeline dropout): ``step_all(active=mask)``
  executes only the active rows.  The engine gathers those workers'
  parameter/buffer rows into an ``(A, d)`` scratch block, runs one stacked
  pass over it, applies a masked ``(A, d)`` optimizer update (per-row
  optimizer state and step counts, so Adam moments stay per-worker), and
  scatters the rows back — inactive rows are left bit-untouched and inactive
  workers' RNG streams consume nothing.
* **RNG-stateful layers** (``Dropout``): the batched kernels replay each
  worker's private mask stream (see :class:`~repro.nn.batched.BatchedDropout`).
* **One configuration**: every worker runs the one ``Optimize(w, B)`` — the
  same architecture (dropout rate included), optimizer, batch size and loss
  (softmax cross-entropy).  The optimizer is one object, the cluster's, so
  it cannot differ; the other stacked objects refuse the rows they cannot
  stack, at construction: the engine the architecture, the
  :class:`~repro.data.loaders.StackedSampler` a differing batch size or
  sample shape.
* **Per-worker driving**: :meth:`BatchedEngine.step_worker` and
  :meth:`BatchedEngine.epoch_worker` run single-row slices of the same
  batched kernels (the server strategies' local epochs); served events are
  not such slices but masked rows of ``step_all``, many arrivals to a pass.
  Every worker's optimizer state *is* a row of the stacked optimizer, so
  drive modes compose freely.
* **Gradient transforms** (FedProx's proximal term, SCAFFOLD's variates):
  ``epoch_worker(k, transform)`` applies ``transform(rows, params, grads)``
  to the stepping rows' ``(A, d)`` gradient block just before the optimizer
  update, so a drift-control epoch is an engine epoch.
* **Every layer**: composites compute through their children's kernels (see
  :mod:`repro.nn.batched`); only a ``Layer`` subclass from outside
  :mod:`repro.nn.layers` has none and is refused by name at construction.
* **Every core**: a wide pass runs as row shards, one per core (see
  :mod:`repro.backend`) — ``train_batch`` and ``step_rows`` here,
  ``drift_matrix``, the monitor's row pass and the sketch above.  A step
  keeps two phases: every shard trains, the losses of all rows are checked,
  then every shard steps — so a divergence in any shard still fails the
  step atomically.  The sampler stays serial.

Per-worker arithmetic is element-for-element the arithmetic of ``K``
independent per-worker steps (the optimizer step is literally the same rule;
the stacked GEMMs may re-associate), and the test suite holds the engine to
exactly that: a per-worker loop kept as its oracle agrees bit for bit on SGD
and to tight tolerance otherwise, with identical ledgers.  Communication
accounting and payload compression (:mod:`repro.compression`) live above the
engine, at the cluster's collective layer.

Divergence (a non-finite loss) raises one ``TrainingError`` naming *every*
diverged worker, and fails atomically: parameters, optimizer moments, and
batch-norm buffers are rolled back or never touched.  ``TrainingError`` still
signals a run to be aborted or restarted, not resumed (every participating
worker's sampler stream has advanced).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.data.loaders import StackedSampler
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.batched import BatchedModel, BatchedPlane, unsupported_layers
from repro.optim.base import StackedOptimizer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster builds engines)
    from repro.distributed.cluster import SimulatedCluster


def _divergence_error(worker_ids, loss_values) -> TrainingError:
    """One ``TrainingError`` naming every diverged worker.

    Keeps the per-worker ``"worker N: loss became non-finite (...)"`` wording
    so callers (and tests) matching on a worker id keep working regardless of
    how many workers diverged in the same round.
    """
    parts = [
        f"worker {int(worker_id)}: loss became non-finite ({value})"
        for worker_id, value in zip(worker_ids, loss_values)
    ]
    return TrainingError(
        "; ".join(parts) + "; reduce the learning rate or variance threshold"
    )


class BatchedEngine:
    """One einsum-driven forward/backward/update for the whole cluster.

    Construction stacks the cluster's state for vectorized compute:

    * every worker model's *gradient* storage is rebound onto the rows of a
      freshly allocated ``(K, d)`` matrix (parameters and buffers are already
      stacked by the cluster), so the batched backward pass and the per-worker
      layer views observe the same memory;
    * a :class:`BatchedPlane` carves per-layer ``(K, *shape)`` views out of
      the three matrices and a :class:`BatchedModel` chains the batched layer
      kernels over them;
    * the cluster's optimizer is stacked over the ``K`` workers as one
      :class:`~repro.optim.base.StackedOptimizer`: one set of scalar
      hyper-parameters, moment/velocity state in ``(K, d)`` matrices of which
      row ``k`` is worker ``k``'s, and a step count per row — so masked
      updates and per-worker driving run one rule on the same state.

    Partial participation runs through a masked scratch path: the active
    workers' parameter/buffer rows are gathered into ``(A, d)`` scratch
    blocks, a per-``A`` cached :class:`BatchedModel` (carving views of the
    scratch) runs the stacked pass, the masked optimizer update applies, and
    the rows are scattered back.  Inactive rows are never read or written.
    """

    def __init__(self, cluster: "SimulatedCluster") -> None:
        # Weak: the cluster owns its engine, so a strong back-reference would
        # make every cluster a cycle that only the cyclic collector frees, and
        # a sweep would hold a varying number of dead (K, d) planes at its peak.
        self.cluster = weakref.proxy(cluster)
        workers = cluster.workers
        reference = workers[0]
        missing = unsupported_layers(reference.model)
        if missing:
            raise ConfigurationError(
                "the engine has no kernel for these layers: "
                f"{', '.join(missing)}; register one in repro.nn.batched.KERNELS"
            )
        signature = self._model_signature(reference.model.layers)
        for worker in workers[1:]:
            if self._model_signature(worker.model.layers) != signature:
                raise ConfigurationError(
                    f"the engine needs one architecture; worker {worker.worker_id}: "
                    "model architecture differs (layer types/geometry/config)"
                )

        # Stack all workers' gradients next to the cluster's parameter matrix.
        self._grad_matrix = np.empty_like(cluster.parameter_matrix)
        for row, worker in zip(self._grad_matrix, workers):
            worker.model.rebind_gradient_storage(row)
        self._worker_models = [worker.model for worker in workers]
        self._plane = BatchedPlane(
            reference.model,
            cluster.parameter_matrix,
            self._grad_matrix,
            cluster.buffer_matrix,
        )
        self._model = BatchedModel(
            reference.model, self._plane, worker_models=self._worker_models
        )
        # Refuses workers whose batch sizes or sample shapes differ.
        self._sampler = StackedSampler([worker._sampler for worker in workers])
        # Refuses an optimizer type that defines no rule.
        self.stacked_optimizer = StackedOptimizer(
            cluster.optimizer, len(workers), cluster.model_dimension, dtype=cluster.dtype
        )
        # Masked-path scratch (lazy: full-participation runs never pay for it).
        self._param_scratch: Optional[np.ndarray] = None
        self._grad_scratch: Optional[np.ndarray] = None
        self._buffer_scratch: Optional[np.ndarray] = None
        self._masked_models: Dict[int, BatchedModel] = {}
        # Full-path divergence rollback: the stacked forward mutates the live
        # buffer matrix (batch-norm running stats) before losses exist, so a
        # pre-step snapshot is needed to keep failure atomic (lazy, and only
        # ever allocated for models that have buffers at all).
        self._buffer_rollback: Optional[np.ndarray] = None

    @staticmethod
    def _model_signature(layers) -> List[tuple]:
        """A structural fingerprint of a layer stack: per-layer type, geometry, config.

        The batched kernels are built from worker 0's layers and applied to
        every row of the stacked matrices, so all workers' models must be the
        *same architecture*, not merely the same parameter count.  The
        signature captures everything a kernel reads from its layer (a
        ``Dropout`` layer's rate included), and a composite's configuration
        through its ``sublayers()``; only a ``Dropout`` layer's RNG is each
        worker's own, drawn by its kernel from each worker's layer.
        """
        signature = []
        config_attrs = ("units", "filters", "kernel_size", "pool_size", "rate")
        for layer in layers:
            entry = [type(layer).__name__, tuple(layer.output_shape)]
            for attr in config_attrs:
                if hasattr(layer, attr):
                    entry.append((attr, getattr(layer, attr)))
            activation = getattr(layer, "activation", None)
            if activation is not None:
                entry.append(("activation", activation.name))
            entry.extend(BatchedEngine._model_signature(layer.sublayers()))
            signature.append(tuple(entry))
        return signature

    # -- the masked scratch path -------------------------------------------------

    def _masked_model(self, count: int) -> BatchedModel:
        """The cached ``(count, d)`` scratch-backed model for masked passes."""
        model = self._masked_models.get(count)
        if model is None:
            if self._param_scratch is None:
                cluster = self.cluster
                self._param_scratch = np.empty_like(cluster.parameter_matrix)
                self._grad_scratch = np.empty_like(self._grad_matrix)
                self._buffer_scratch = np.empty_like(cluster.buffer_matrix)
            reference = self.cluster.workers[0].model
            plane = BatchedPlane(
                reference,
                self._param_scratch[:count],
                self._grad_scratch[:count],
                self._buffer_scratch[:count],
            )
            model = BatchedModel(reference, plane, worker_models=self._worker_models)
            self._masked_models[count] = model
        return model

    def _train_rows(
        self, rows: np.ndarray, x: np.ndarray, y: np.ndarray, transform=None
    ) -> np.ndarray:
        """One stacked step on the workers in ``rows``; returns their losses.

        Gathers the active parameter/buffer rows into the scratch block, runs
        the stacked forward/backward, the strategy's gradient ``transform``
        (if any) and the masked optimizer update there, and scatters
        parameters, gradients, and buffers back.  Nothing is written back if
        a loss diverges (atomic failure).
        """
        count = int(rows.size)
        model = self._masked_model(count)
        cluster = self.cluster
        # mode="clip" skips numpy's slow bounds-checking take path; the rows
        # come from a K-length mask, so they are always in range.
        np.take(
            cluster.parameter_matrix, rows, axis=0,
            out=self._param_scratch[:count], mode="clip",
        )
        has_buffers = bool(cluster.buffer_matrix.shape[1])
        if has_buffers:
            np.take(
                cluster.buffer_matrix, rows, axis=0,
                out=self._buffer_scratch[:count], mode="clip",
            )
        losses = model.train_batch(x, y, rows=rows)
        bad = np.flatnonzero(~np.isfinite(losses))
        if bad.size:
            # The stacked pass only touched the scratch block: live
            # parameters, buffers, and optimizer moments are untouched.
            raise _divergence_error(rows[bad], losses[bad])
        if transform is not None:
            transform(rows, self._param_scratch[:count], self._grad_scratch[:count])
        self.stacked_optimizer.step_rows(
            self._param_scratch[:count], self._grad_scratch[:count], rows
        )
        cluster.parameter_matrix[rows] = self._param_scratch[:count]
        self._grad_matrix[rows] = self._grad_scratch[:count]
        if has_buffers:
            cluster.buffer_matrix[rows] = self._buffer_scratch[:count]
        for k in rows:
            cluster.workers[int(k)].steps_performed += 1
        return losses

    # -- drive modes --------------------------------------------------------------

    def step_all(self, active: Optional[np.ndarray] = None) -> float:
        """One local mini-batch step on every (participating) worker.

        Returns the mean loss over the workers that stepped.  ``active`` is
        the timeline's optional participation mask.
        """
        if active is not None and not bool(np.all(active)):
            rows = np.flatnonzero(np.asarray(active))
            if rows.size == 0:
                return 0.0
            x, y = self._sampler.sample(rows)
            losses = self._train_rows(rows, x, y)
            for k, value in zip(rows, losses):
                self.cluster.workers[int(k)].last_loss = float(value)
            return float(losses.mean())
        x, y = self._sampler.sample()
        buffer_matrix = self.cluster.buffer_matrix
        has_buffers = bool(buffer_matrix.shape[1])
        if has_buffers:
            # The stacked forward writes batch-norm running stats into the
            # live buffer matrix before losses exist; snapshot them so a
            # divergence can be rolled back (atomic failure, as on the
            # masked scratch path).
            if self._buffer_rollback is None:
                self._buffer_rollback = np.empty_like(buffer_matrix)
            self._buffer_rollback[...] = buffer_matrix
        losses = self._model.train_batch(x, y)
        bad = np.flatnonzero(~np.isfinite(losses))
        if bad.size:
            if has_buffers:
                buffer_matrix[...] = self._buffer_rollback
            raise _divergence_error(bad, losses[bad])
        self.stacked_optimizer.step_rows(self.cluster.parameter_matrix, self._grad_matrix)
        for worker, value in zip(self.cluster.workers, losses):
            worker.steps_performed += 1
            worker.last_loss = float(value)
        return float(losses.mean())

    def step_worker(self, worker_id: int) -> float:
        # A single-row slice of the batched kernels, sharing optimizer state
        # and RNG streams with every other drive mode.
        rows = np.array([worker_id])
        x, y = self._sampler.sample(rows)
        losses = self._train_rows(rows, x, y)
        worker = self.cluster.workers[worker_id]
        worker.last_loss = float(losses[0])
        return worker.last_loss

    def epoch_worker(self, worker_id: int, transform=None) -> float:
        """One full local epoch on a single worker; returns its mean batch loss.

        ``transform`` edits each batch's gradients in place before the
        optimizer step (see ``SimulatedCluster.epoch_all``).
        """
        # Ragged shards force per-worker epochs (see cluster.epoch_all); each
        # batch of the worker's own shuffled epoch stream runs as a
        # single-row slice of the batched kernels.
        worker = self.cluster.workers[worker_id]
        rows = np.array([worker_id])
        losses: List[float] = []
        for batch_x, batch_y in worker._epoch_iterator.epoch():
            batch_losses = self._train_rows(rows, batch_x[None], batch_y[None], transform)
            losses.append(float(batch_losses[0]))
        if losses:
            worker.last_loss = float(np.mean(losses))
        return worker.last_loss if worker.last_loss is not None else 0.0


    def __repr__(self) -> str:
        return f"{type(self).__name__}(K={self.cluster.num_workers})"
