"""Stochastic gradient descent with optional (Nesterov) momentum.

The paper trains the DenseNet models with SGD + Nesterov momentum (momentum
0.9, learning rate 0.1) and weight decay 1e-4; this implementation follows the
standard Sutskever formulation of Nesterov momentum used by Keras.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optim.base import Optimizer, check_beta

#: Cache-block length (elements; 1 MiB at float64, 512 KiB at float32) for the momentum-free
#: in-place update.  Large flat vectors / stacked (K, d) matrices are updated
#: chunk by chunk so the scratch chunk stays cache-resident instead of
#: streaming one extra full-size pass through DRAM; the arithmetic per
#: element is unchanged, so results are bit-identical to the unchunked form.
_CHUNK_ELEMENTS = 131_072


class SGD(Optimizer):
    """SGD, optionally with classical or Nesterov momentum and L2 weight decay.

    All arithmetic is elementwise, so the same instance updates either one
    flat ``(d,)`` vector or a stacked ``(K, d)`` worker matrix (the batched
    engine's layout); velocity/scratch buffers adopt whichever shape is used.
    """

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
        self._velocity: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None

    def _update(self, params: np.ndarray, grads: np.ndarray, learning_rate: float) -> np.ndarray:
        if self.weight_decay:
            grads = grads + self.weight_decay * params
        if self.momentum == 0.0:
            return params - learning_rate * grads
        if (
            self._velocity is None
            or self._velocity.shape != params.shape
            or self._velocity.dtype != params.dtype
        ):
            self._velocity = np.zeros_like(params)
        self._velocity = self.momentum * self._velocity - learning_rate * grads
        if self.nesterov:
            return params + self.momentum * self._velocity - learning_rate * grads
        return params + self._velocity

    def _update_inplace(self, params: np.ndarray, grads: np.ndarray, learning_rate: float) -> None:
        # Bit-identical to _update: every expression below mirrors the copy
        # path's evaluation order up to scalar-multiply/add commutativity,
        # only the destination arrays differ (the persistent scratch buffer
        # replaces the fresh temporaries per step).
        if self.momentum == 0.0 and params.flags.c_contiguous and grads.flags.c_contiguous:
            self._plain_update_chunked(params, grads, learning_rate)
            return
        if (
            self._scratch is None
            or self._scratch.shape != params.shape
            or self._scratch.dtype != params.dtype
        ):
            self._scratch = np.empty_like(params)
        if self.weight_decay:
            # lr * (grads + wd * params), accumulated in the scratch buffer.
            scaled = np.multiply(params, self.weight_decay, out=self._scratch)
            scaled += grads
            scaled *= learning_rate
        else:
            scaled = np.multiply(grads, learning_rate, out=self._scratch)
        if self.momentum == 0.0:
            params -= scaled
            return
        if (
            self._velocity is None
            or self._velocity.shape != params.shape
            or self._velocity.dtype != params.dtype
        ):
            self._velocity = np.zeros_like(params)
        velocity = self._velocity
        velocity *= self.momentum
        velocity -= scaled
        if self.nesterov:
            params += self.momentum * velocity
            params -= scaled
        else:
            params += velocity

    def _plain_update_chunked(
        self, params: np.ndarray, grads: np.ndarray, learning_rate: float
    ) -> None:
        """Momentum-free update, cache-blocked over ``_CHUNK_ELEMENTS``.

        Computes ``params -= lr * (grads [+ wd * params])`` with exactly the
        same per-element operations as the scratch-buffer form, but one chunk
        at a time: the scratch chunk is written and immediately re-read while
        still cache-hot, which removes a full extra array pass through DRAM.
        That is what keeps the batched engine's single ``(K, d)`` update (a
        25 MB matrix at the paper's larger models) off the bandwidth ceiling.
        """
        if params.size == 0:  # degenerate d=0 model: a no-op, like the scratch path
            return
        chunk = min(params.size, _CHUNK_ELEMENTS)
        if (
            self._scratch is None
            or self._scratch.shape != (chunk,)
            or self._scratch.dtype != params.dtype
        ):
            self._scratch = np.empty(chunk, dtype=params.dtype)
        flat_params = params.reshape(-1)
        flat_grads = grads.reshape(-1)
        for start in range(0, flat_params.size, chunk):
            chunk_params = flat_params[start : start + chunk]
            chunk_grads = flat_grads[start : start + chunk]
            scratch = self._scratch[: chunk_params.size]
            if self.weight_decay:
                np.multiply(chunk_params, self.weight_decay, out=scratch)
                scratch += chunk_grads
                scratch *= learning_rate
            else:
                np.multiply(chunk_grads, learning_rate, out=scratch)
            chunk_params -= scratch

    # -- stacked-execution hooks (see optim.base.StackedOptimizer) -------------

    def _stacked_column_names(self):
        return ("momentum", "weight_decay")

    def _stacked_state_names(self, optimizers):
        # Momentum-free rows ride along in the velocity path bit-exactly
        # (their velocity row is exactly ``-scaled`` and momentum 0 wipes it
        # again each step), so one matrix serves mixed-momentum clusters; a
        # fully momentum-free cluster needs no state at all.
        return ("velocity",) if any(o.momentum for o in optimizers) else ()

    def state_arrays(self):
        return {} if self._velocity is None else {"velocity": self._velocity}

    def _bind_state(self, name, array):
        if name == "velocity":
            self._velocity = array

    def _stacked_validate(self, optimizers):
        if len({o.nesterov for o in optimizers}) > 1:
            return [
                "nesterov and classical momentum change the shape of the update "
                "rule and cannot be mixed across workers"
            ]
        return []

    def _stacked_update(
        self, stacked, params, grads, state, columns, learning_rate, timesteps
    ):
        # Per-row arithmetic mirrors _update_inplace exactly: the (A, 1)
        # hyper-parameter columns broadcast as per-row scalars, so every
        # element sees the same operations in the same order as its worker's
        # own sequential update (chunking in the plain path does not change
        # per-element arithmetic).
        del timesteps
        momentum = columns["momentum"]
        weight_decay = columns["weight_decay"]
        if (
            "velocity" not in state
            and params.flags.c_contiguous
            and grads.flags.c_contiguous
            and np.ptp(learning_rate) == 0.0
            and np.ptp(weight_decay) == 0.0
            and float(weight_decay.flat[0]) == self.weight_decay
        ):
            # Homogeneous momentum-free rows: the sequential cache-blocked
            # update applies verbatim to the whole (A, d) block (identical
            # per-element arithmetic, one less full-size scratch pass).  The
            # chunked path reads ``self.weight_decay`` (``self`` is worker
            # 0's optimizer), so it is only taken when the covered rows'
            # uniform decay actually equals it — a masked subset can be
            # internally uniform yet differ from worker 0.
            self._plain_update_chunked(params, grads, float(learning_rate.flat[0]))
            return
        scaled = stacked.scratch("sgd-scaled", params.shape[0])
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

    def _reset_state(self) -> None:
        self._velocity = None
        self._scratch = None

    def _state(self) -> Dict[str, object]:
        return {
            "momentum": self.momentum,
            "nesterov": self.nesterov,
            "weight_decay": self.weight_decay,
        }
