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

#: Cache-block length (elements; 1 MiB at float64, 512 KiB at float32) for the momentum-free
#: update.  Large (A, d) blocks are updated chunk by chunk so the scratch
#: chunk stays cache-resident instead of streaming one extra full-size pass
#: through DRAM; the arithmetic per element is unchanged, so results are
#: bit-identical to the unchunked form.
_CHUNK_ELEMENTS = 131_072


def _uniform(column: np.ndarray) -> bool:
    """Whether every row of an ``(A, 1)`` column holds the same value."""
    return column.shape[0] == 1 or column.min() == column.max()


def _plain_update_chunked(
    params: np.ndarray,
    grads: np.ndarray,
    learning_rate: float,
    weight_decay: float,
    scratch: np.ndarray,
) -> None:
    """Momentum-free update of uniform rows, cache-blocked over ``_CHUNK_ELEMENTS``.

    Computes ``params -= lr * (grads [+ wd * params])`` with exactly the
    same per-element operations as the scratch-matrix form, but one chunk
    at a time: the scratch chunk is written and immediately re-read while
    still cache-hot, which removes a full extra array pass through DRAM.
    That is what keeps the batched engine's single ``(K, d)`` update (a
    25 MB matrix at the paper's larger models) off the bandwidth ceiling.
    ``params``/``grads`` are C-contiguous; ``scratch`` is one flat chunk.
    """
    if params.size == 0:  # degenerate d=0 model: a no-op, like the scratch path
        return
    chunk = scratch.size
    flat_params = params.reshape(-1)
    flat_grads = grads.reshape(-1)
    for start in range(0, flat_params.size, chunk):
        chunk_params = flat_params[start : start + chunk]
        chunk_grads = flat_grads[start : start + chunk]
        scaled = scratch[: chunk_params.size]
        if weight_decay:
            np.multiply(chunk_params, weight_decay, out=scaled)
            scaled += chunk_grads
            scaled *= learning_rate
        else:
            np.multiply(chunk_grads, learning_rate, out=scaled)
        chunk_params -= scaled


class SGD(Optimizer):
    """SGD, optionally with classical or Nesterov momentum and L2 weight decay."""

    _columns = ("momentum", "weight_decay")

    def __init__(
        self,
        learning_rate=0.01,
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

    def _update_rows(
        self, workspace, params, grads, state, columns, learning_rate, timesteps
    ):
        # The (A, 1) hyper-parameter columns broadcast as per-row scalars, so
        # every element sees the same operations in the same order whichever
        # rows share the call (chunking in the plain path does not change
        # per-element arithmetic).
        del timesteps
        momentum = columns["momentum"]
        weight_decay = columns["weight_decay"]
        if (
            "velocity" not in state
            and params.flags.c_contiguous
            and grads.flags.c_contiguous
            and _uniform(learning_rate)
            and _uniform(weight_decay)
        ):
            # Uniform momentum-free rows: one cache-blocked pass over the
            # whole (A, d) block (identical per-element arithmetic, one less
            # full-size scratch pass), with the covered rows' own scalars.
            _plain_update_chunked(
                params,
                grads,
                float(learning_rate.flat[0]),
                float(weight_decay.flat[0]),
                workspace.flat("sgd-chunk", min(params.size, _CHUNK_ELEMENTS)),
            )
            return
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
