"""A simulated federated worker.

Each worker owns a local model replica, a local optimizer, and a shard of the
training data.  The cluster's engine runs the paper's ``Optimize(w, B)`` for
every worker at once (see :mod:`repro.distributed.engine`): the workers'
models are views of its ``(K, d)`` rows and their optimizers are rows of its
stack (see :mod:`repro.optim.base`).

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
from repro.exceptions import ConfigurationError
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

    @property
    def batches_per_epoch(self) -> int:
        """Number of mini-batches in one local epoch."""
        return self._epoch_iterator.batches_per_epoch

    def __repr__(self) -> str:
        return (
            f"Worker(id={self.worker_id}, samples={len(self.dataset)}, "
            f"steps={self.steps_performed})"
        )
