"""Stochastic gradient descent with optional (Nesterov) momentum.

The paper states no SGD recipe; the DenseNet workloads run Nesterov momentum
0.9 at learning rate 0.05 with no weight decay (``make_optimizer("sgd-nm")``),
in the Sutskever formulation Keras uses.  The arithmetic is written once, as
the ``(A, d)`` row rule :meth:`SGD._update_rows` (see :mod:`repro.optim.base`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optim.base import Optimizer, check_beta


class SGD(Optimizer):
    """SGD, optionally with classical or Nesterov momentum and L2 weight decay."""

    name = "sgd"
    _scalars = ("momentum", "weight_decay")

    def __init__(
        self,
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(learning_rate)
        self.momentum = check_beta(momentum, "momentum") if momentum else 0.0
        self.nesterov = bool(nesterov)
        if self.nesterov and self.momentum == 0.0:
            raise ConfigurationError("nesterov=True requires a non-zero momentum")
        if weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {weight_decay}")
        self.weight_decay = float(weight_decay)
        self._state_names = ("velocity",) if self.momentum else ()

    def _update_rows(self, workspace, params, grads, state, scalars, timesteps):
        del timesteps
        learning_rate = scalars["learning_rate"]
        momentum = scalars["momentum"]
        weight_decay = scalars["weight_decay"]
        scaled = workspace.scratch("sgd-scaled", params.shape[0])
        if weight_decay:
            np.multiply(params, weight_decay, out=scaled)
            scaled += grads
            scaled *= learning_rate
        else:
            np.multiply(grads, learning_rate, out=scaled)
        velocity = state.get("velocity")
        if velocity is None:
            params -= scaled
            return
        velocity *= momentum
        velocity -= scaled
        if self.nesterov:
            params += momentum * velocity
            params -= scaled
        else:
            params += velocity
