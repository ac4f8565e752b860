"""Stochastic gradient descent with optional (Nesterov) momentum.

The paper trains the DenseNet models with SGD + Nesterov momentum (momentum
0.9, learning rate 0.1) and weight decay 1e-4; this implementation follows the
standard Sutskever formulation of Nesterov momentum used by Keras.  The
arithmetic is written once, as the ``(A, d)`` row rule
:meth:`SGD._update_rows` (see :mod:`repro.optim.base`).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optim.base import Optimizer, check_beta


class SGD(Optimizer):
    """SGD, optionally with classical or Nesterov momentum and L2 weight decay."""

    _columns = ("momentum", "weight_decay")

    def __init__(
        self,
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(learning_rate, name)
        self.momentum = check_beta(momentum, "momentum") if momentum else 0.0
        self.nesterov = bool(nesterov)
        if self.nesterov and self.momentum == 0.0:
            raise ConfigurationError("nesterov=True requires a non-zero momentum")
        if weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {weight_decay}")
        self.weight_decay = float(weight_decay)
        # Momentum-free rows ride along in the velocity path bit-exactly
        # (their velocity row is exactly ``-scaled`` and momentum 0 wipes it
        # again each step), so one matrix serves mixed-momentum stacks; a
        # fully momentum-free stack needs no state at all.
        self._state_names = ("velocity",) if self.momentum else ()

    def _stacked_validate(self, optimizers):
        if len({o.nesterov for o in optimizers}) > 1:
            return [
                "nesterov and classical momentum change the shape of the update "
                "rule and cannot be mixed across workers"
            ]
        return []

    def _update_rows(self, workspace, params, grads, state, columns, timesteps):
        # The (A, 1) hyper-parameter columns broadcast as per-row scalars, so
        # every element sees the same operations in the same order whichever
        # rows share the call.
        del timesteps
        learning_rate = columns["learning_rate"]
        momentum = columns["momentum"]
        weight_decay = columns["weight_decay"]
        scaled = workspace.scratch("sgd-scaled", params.shape[0])
        if weight_decay.any():
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

    def _state(self) -> Dict[str, object]:
        return {
            "momentum": self.momentum,
            "nesterov": self.nesterov,
            "weight_decay": self.weight_decay,
        }
