"""Adam and AdamW local optimizers.

Adam is used for the LeNet-5 / VGG16* experiments and AdamW (decoupled weight
decay, Loshchilov & Hutter) for the ConvNeXt fine-tuning experiments, matching
the paper's hyper-parameter choices.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optim.base import Optimizer, check_beta


class Adam(Optimizer):
    """Adam with bias-corrected first/second moments (Kingma & Ba defaults).

    Elementwise throughout: accepts a flat ``(d,)`` vector or a stacked
    ``(K, d)`` worker matrix (batched engine), with moment buffers taking the
    matching shape — ``K`` per-worker Adam updates in one call.
    """

    def __init__(
        self,
        learning_rate=0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-7,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(learning_rate, name)
        self.beta1 = check_beta(beta1, "beta1")
        self.beta2 = check_beta(beta2, "beta2")
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._scratch_a: Optional[np.ndarray] = None
        self._scratch_b: Optional[np.ndarray] = None

    def _moments(self, params: np.ndarray) -> None:
        # Moments and scratch are allocated independently: stacked execution
        # (optim.base.StackedOptimizer) binds _m/_v to rows of shared (K, d)
        # matrices, and the scratch buffers must still materialize lazily on
        # the first direct per-worker step.
        if (
            self._m is None
            or self._m.shape != params.shape
            or self._m.dtype != params.dtype
        ):
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        if (
            self._scratch_a is None
            or self._scratch_a.shape != params.shape
            or self._scratch_a.dtype != params.dtype
        ):
            self._scratch_a = np.empty_like(params)
            self._scratch_b = np.empty_like(params)

    def _update(self, params: np.ndarray, grads: np.ndarray, learning_rate: float) -> np.ndarray:
        self._moments(params)
        timestep = self.step_count + 1
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grads
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grads * grads
        m_hat = self._m / (1.0 - self.beta1**timestep)
        v_hat = self._v / (1.0 - self.beta2**timestep)
        return params - learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def _update_inplace(self, params: np.ndarray, grads: np.ndarray, learning_rate: float) -> None:
        # Bit-identical to _update: the moment updates land in the persistent
        # buffers and every temporary lands in one of two persistent scratch
        # vectors (zero steady-state allocations), with every expression
        # mirroring the copy path's evaluation order.
        self._moments(params)
        timestep = self.step_count + 1
        first, second, scratch_a, scratch_b = self._m, self._v, self._scratch_a, self._scratch_b
        first *= self.beta1
        first += np.multiply(grads, 1.0 - self.beta1, out=scratch_a)
        second *= self.beta2
        # (1 - beta2) * grads * grads evaluates left-to-right in the copy path.
        np.multiply(grads, 1.0 - self.beta2, out=scratch_a)
        second += np.multiply(scratch_a, grads, out=scratch_a)
        m_hat = np.divide(first, 1.0 - self.beta1**timestep, out=scratch_a)
        v_hat = np.divide(second, 1.0 - self.beta2**timestep, out=scratch_b)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.epsilon
        m_hat *= learning_rate
        m_hat /= v_hat
        params -= m_hat

    # -- stacked-execution hooks (see optim.base.StackedOptimizer) -------------

    def _stacked_column_names(self):
        return ("beta1", "beta2", "epsilon")

    def _stacked_state_names(self, optimizers):
        del optimizers
        return ("m", "v")

    def state_arrays(self):
        return {} if self._m is None else {"m": self._m, "v": self._v}

    def _bind_state(self, name, array):
        if name == "m":
            self._m = array
        elif name == "v":
            self._v = array

    def _stacked_update(
        self, stacked, params, grads, state, columns, learning_rate, timesteps
    ):
        # Mirrors _update_inplace with per-row (A, 1) columns; the bias
        # corrections use each row's own timestep, which is what keeps Adam
        # correct when rows have stepped different numbers of times (partial
        # participation).
        beta1 = columns["beta1"]
        beta2 = columns["beta2"]
        epsilon = columns["epsilon"]
        count = params.shape[0]
        first, second = state["m"], state["v"]
        scratch_a = stacked.scratch("adam-a", count)
        scratch_b = stacked.scratch("adam-b", count)
        first *= beta1
        first += np.multiply(grads, 1.0 - beta1, out=scratch_a)
        second *= beta2
        np.multiply(grads, 1.0 - beta2, out=scratch_a)
        second += np.multiply(scratch_a, grads, out=scratch_a)
        # The bias corrections are scalar pows per row, computed with Python
        # floats: numpy's vectorized float64 pow takes a different (SIMD) code
        # path than libm's and can differ in the last ulp, which would break
        # bit-parity with the per-worker sequential update.  The resulting
        # columns adopt the plane dtype so they never promote float32 rows.
        bias1 = np.array(
            [[1.0 - float(b) ** int(t)] for b, t in zip(beta1[:, 0], timesteps[:, 0])],
            dtype=params.dtype,
        )
        bias2 = np.array(
            [[1.0 - float(b) ** int(t)] for b, t in zip(beta2[:, 0], timesteps[:, 0])],
            dtype=params.dtype,
        )
        m_hat = np.divide(first, bias1, out=scratch_a)
        v_hat = np.divide(second, bias2, out=scratch_b)
        np.sqrt(v_hat, out=v_hat)
        v_hat += epsilon
        m_hat *= learning_rate
        m_hat /= v_hat
        params -= m_hat

    def _reset_state(self) -> None:
        self._m = None
        self._v = None
        self._scratch_a = None
        self._scratch_b = None

    def _state(self) -> Dict[str, object]:
        return {"beta1": self.beta1, "beta2": self.beta2, "epsilon": self.epsilon}


class AdamW(Adam):
    """Adam with decoupled weight decay (the ConvNeXt fine-tuning optimizer)."""

    def __init__(
        self,
        learning_rate=0.001,
        weight_decay: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-7,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(learning_rate, beta1, beta2, epsilon, name)
        if weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {weight_decay}")
        self.weight_decay = float(weight_decay)

    def _update(self, params: np.ndarray, grads: np.ndarray, learning_rate: float) -> np.ndarray:
        updated = super()._update(params, grads, learning_rate)
        if self.weight_decay:
            updated = updated - learning_rate * self.weight_decay * params
        return updated

    def _update_inplace(self, params: np.ndarray, grads: np.ndarray, learning_rate: float) -> None:
        if not self.weight_decay:
            super()._update_inplace(params, grads, learning_rate)
            return
        # Decoupled decay uses the *pre-update* parameters, so materialize the
        # decay term before the Adam step mutates them.
        decay = learning_rate * self.weight_decay * params
        super()._update_inplace(params, grads, learning_rate)
        params -= decay

    def _stacked_column_names(self):
        return super()._stacked_column_names() + ("weight_decay",)

    def _stacked_update(
        self, stacked, params, grads, state, columns, learning_rate, timesteps
    ):
        weight_decay = columns["weight_decay"]
        if not weight_decay.any():
            super()._stacked_update(
                stacked, params, grads, state, columns, learning_rate, timesteps
            )
            return
        # Decoupled decay uses the *pre-update* parameters (same as the
        # sequential path); rows with zero decay subtract an exact zero.
        decay = (learning_rate * weight_decay) * params
        super()._stacked_update(
            stacked, params, grads, state, columns, learning_rate, timesteps
        )
        params -= decay

    def _state(self) -> Dict[str, object]:
        state = super()._state()
        state["weight_decay"] = self.weight_decay
        return state
