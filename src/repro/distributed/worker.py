"""A simulated federated worker.

Each worker owns a local model replica, a local optimizer, and a shard of the
training data.  ``local_step`` performs exactly one ``Optimize(w, B)`` update
from the paper's Algorithm 1; ``local_epoch`` performs the full local pass
used by the FedAvg/FedOpt baselines.  Either way the update is the optimizer
stepping its row (see :mod:`repro.optim.base`) on the model's parameter-plane
view — there is no other update path.

A worker is also the owner of everything it carries from one step to the next
besides its rows of the cluster's matrices: :meth:`Worker.state_dict` composes
the optimizer's state, the model's layer streams, the two batch streams, the
last loss and the step count; :meth:`Worker.load_state_dict` resumes from it
and :meth:`Worker.reset_state` returns to what a freshly built worker holds.
Checkpoints, cohort binding and crash rejoin all go through these.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.datasets import Dataset
from repro.data.loaders import BatchSampler, EpochIterator
from repro.exceptions import ConfigurationError, TrainingError
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.optim.base import Optimizer
from repro.utils.rng import as_rng


class Worker:
    """One simulated worker-node: local model + local data + local optimizer."""

    def __init__(
        self,
        worker_id: int,
        model: Sequential,
        dataset: Dataset,
        optimizer: Optimizer,
        batch_size: int = 32,
        loss: Optional[Loss] = None,
        seed=None,
    ) -> None:
        if worker_id < 0:
            raise ConfigurationError(f"worker_id must be non-negative, got {worker_id}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        self.worker_id = int(worker_id)
        self.model = model
        self.dataset = dataset
        self.optimizer = optimizer
        self.batch_size = int(batch_size)
        self.loss = loss or SoftmaxCrossEntropy()
        self._sampler = BatchSampler(dataset, batch_size, seed=seed)
        self._epoch_iterator = EpochIterator(dataset, batch_size, seed=seed)
        self.steps_performed = 0
        self.last_loss: Optional[float] = None
        # What reset_state rewinds the model's layer streams to.
        self._initial_model_rngs = model.rng_states()

    # -- resumable state --------------------------------------------------------

    def set_dataset(self, dataset: Dataset) -> None:
        """Point the worker and both of its batch streams at another shard."""
        self.dataset = dataset
        self._sampler.dataset = dataset
        self._epoch_iterator.dataset = dataset

    def state_dict(self) -> dict:
        """Everything the worker carries between steps, outside the cluster's rows."""
        return {
            "steps_performed": self.steps_performed,
            "last_loss": self.last_loss,
            "optimizer": self.optimizer.state_dict(),
            "sampler_rng": self._sampler.rng_state,
            "epoch_rng": self._epoch_iterator.rng_state,
            "model_rngs": self.model.rng_states(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Resume from :meth:`state_dict`; optimizer arrays are written in place."""
        self.steps_performed = int(state["steps_performed"])
        last_loss = state["last_loss"]
        self.last_loss = None if last_loss is None else float(last_loss)
        self.optimizer.load_state_dict(state["optimizer"])
        self._sampler.rng_state = state["sampler_rng"]
        self._epoch_iterator.rng_state = state["epoch_rng"]
        self.model.load_rng_states(state["model_rngs"])

    def reset_state(self, seed) -> None:
        """Return, in place, to what a worker freshly built with ``seed`` holds."""
        self.steps_performed = 0
        self.last_loss = None
        self.optimizer.zero_state()
        fresh = as_rng(seed).bit_generator.state
        self._sampler.rng_state = fresh
        self._epoch_iterator.rng_state = fresh
        self.model.load_rng_states(self._initial_model_rngs)

    # -- parameter access -----------------------------------------------------

    def parameters_view(self) -> np.ndarray:
        """Zero-copy view of the local model parameters (``w_t^{(k)}``)."""
        return self.model.parameters_view()

    def get_parameters(self) -> np.ndarray:
        """Flat copy of the local model parameters (``w_t^{(k)}``)."""
        return self.model.get_parameters()

    def set_parameters(self, flat: np.ndarray) -> None:
        """Overwrite the local model parameters (synchronization)."""
        self.model.set_parameters(flat)

    def get_buffers(self) -> np.ndarray:
        """Flat copy of the local model's non-trainable buffers."""
        return self.model.get_buffers()

    def set_buffers(self, flat: np.ndarray) -> None:
        """Overwrite the local model's non-trainable buffers."""
        self.model.set_buffers(flat)

    def drift_from(self, reference: np.ndarray) -> np.ndarray:
        """The local model drift ``u_t^{(k)} = w_t^{(k)} − reference``.

        Hot-path contract: ``reference`` must already be a plane-dtype ndarray of
        shape ``(d,)`` — every trainer holds its reference that way (it comes
        from ``get_parameters``/``synchronize``) — so the subtraction runs
        straight off the parameter-plane view with no per-call ``asarray``
        conversion.  Callers with convertible inputs convert once at the call
        site, not here.
        """
        return self.model.parameters_view() - reference

    @property
    def num_parameters(self) -> int:
        """Model dimension ``d``."""
        return self.model.num_parameters

    # -- training -------------------------------------------------------------

    def local_step(self) -> float:
        """One mini-batch optimization step; returns the batch loss."""
        self.last_loss = self._train(*self._sampler.sample())
        return self.last_loss

    def local_epoch(self) -> float:
        """One full pass over the local shard; returns the mean batch loss."""
        return self._run_epoch(None)

    def _run_epoch(self, transform) -> float:
        """:meth:`local_epoch` under the engine's row transform (see ``epoch_all``)."""
        losses = [self._train(x, y, transform) for x, y in self._epoch_iterator.epoch()]
        self.last_loss = float(np.mean(losses)) if losses else self.last_loss
        return self.last_loss if self.last_loss is not None else 0.0

    def _train(self, batch_x, batch_y, transform=None) -> float:
        """Forward, backward and one optimizer update on a mini-batch."""
        loss_value = self.model.train_batch(batch_x, batch_y, self.loss)
        if not np.isfinite(loss_value):
            raise TrainingError(
                f"worker {self.worker_id}: loss became non-finite ({loss_value}); "
                "reduce the learning rate or variance threshold"
            )
        self._apply_update(transform)
        self.steps_performed += 1
        return float(loss_value)

    def _apply_update(self, transform) -> None:
        """One optimizer update on the freshly back-propagated gradients.

        ``transform(rows, params, grads)`` — the drift-control strategies'
        seam — first edits the gradients in place, as a one-row block.
        """
        params = self.model.parameters_view()
        grads = self.model.gradients_view()
        if transform is not None:
            transform(np.array([self.worker_id]), params[None], grads[None])
        self.optimizer.step_inplace(params, grads)

    @property
    def batches_per_epoch(self) -> int:
        """Number of mini-batches in one local epoch."""
        return self._epoch_iterator.batches_per_epoch

    def __repr__(self) -> str:
        return (
            f"Worker(id={self.worker_id}, samples={len(self.dataset)}, "
            f"steps={self.steps_performed})"
        )
