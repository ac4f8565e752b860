"""A simulated federated worker.

Each worker owns a local model replica and a shard of the training data.  The
cluster's engine runs the paper's ``Optimize(w, B)`` for every worker at once
(see :mod:`repro.distributed.engine`): the workers' models are views of its
``(K, d)`` rows, and a worker's optimizer state is its row of the one stacked
optimizer the cluster owns (see :mod:`repro.optim.base`), so a worker holds no
optimizer.

A worker is also the owner of everything it carries from one step to the next
besides its rows of the cluster's matrices: :meth:`Worker.state_dict` composes
the model's layer streams, the two batch streams, the last loss and the step
count; :meth:`Worker.load_state_dict` resumes from it and
:meth:`Worker.reset_state` returns to what a freshly built worker holds.
Checkpoints and cohort binding go through these.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.data.datasets import Dataset, DatasetView
from repro.data.loaders import BatchSampler, EpochIterator
from repro.exceptions import ConfigurationError
from repro.nn.model import Sequential
from repro.utils.rng import as_rng


class Worker:
    """One simulated worker-node: local model + local data."""

    def __init__(
        self,
        worker_id: int,
        model: Sequential,
        dataset: Union[Dataset, DatasetView],
        batch_size: int = 32,
        seed=None,
    ) -> None:
        if worker_id < 0:
            raise ConfigurationError(f"worker_id must be non-negative, got {worker_id}")
        if batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        self.worker_id = int(worker_id)
        self.model = model
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self._sampler = BatchSampler(dataset, batch_size, seed=seed)
        self._epoch_iterator = EpochIterator(dataset, batch_size, seed=seed)
        self.steps_performed = 0
        self.last_loss: Optional[float] = None
        # What reset_state rewinds the model's layer streams to.
        self._initial_model_rngs = model.rng_states()

    # -- resumable state --------------------------------------------------------

    def set_dataset(self, dataset: Union[Dataset, DatasetView]) -> None:
        """Point the worker and both of its batch streams at another shard."""
        self.dataset = dataset
        self._sampler.dataset = dataset
        self._epoch_iterator.dataset = dataset

    def state_dict(self) -> dict:
        """Everything the worker carries between steps, outside the cluster's rows."""
        return {
            "steps_performed": self.steps_performed,
            "last_loss": self.last_loss,
            "sampler_rng": self._sampler.rng_state,
            "epoch_rng": self._epoch_iterator.rng_state,
            "model_rngs": self.model.rng_states(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Resume from :meth:`state_dict`."""
        self.steps_performed = int(state["steps_performed"])
        last_loss = state["last_loss"]
        self.last_loss = None if last_loss is None else float(last_loss)
        self._sampler.rng_state = state["sampler_rng"]
        self._epoch_iterator.rng_state = state["epoch_rng"]
        self.model.load_rng_states(state["model_rngs"])

    def reset_state(self, seed) -> None:
        """Return, in place, to what a worker freshly built with ``seed`` holds."""
        self.steps_performed = 0
        self.last_loss = None
        fresh = as_rng(seed).bit_generator.state
        self._sampler.rng_state = fresh
        self._epoch_iterator.rng_state = fresh
        self.model.load_rng_states(self._initial_model_rngs)

    # -- parameter access -----------------------------------------------------

    def get_parameters(self) -> np.ndarray:
        """Flat copy of the local model parameters (``w_t^{(k)}``)."""
        return self.model.get_parameters()

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
