"""Adam and AdamW local optimizers.

Adam is used for the LeNet-5 / VGG16* experiments and AdamW (decoupled weight
decay, Loshchilov & Hutter) for the ConvNeXt fine-tuning experiments, matching
the paper's hyper-parameter choices.  The arithmetic is written once, as the
``(A, d)`` row rule :meth:`Adam._update_rows` (see :mod:`repro.optim.base`);
AdamW extends it with the decay term.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.optim.base import Optimizer


class Adam(Optimizer):
    """Adam with bias-corrected first/second moments (Kingma & Ba defaults)."""

    name = "adam"
    #: The moment decays and the denominator's floor, the same for every run.
    beta1 = 0.9
    beta2 = 0.999
    epsilon = 1e-7
    _scalars = ("beta1", "beta2", "epsilon")
    _state_names = ("m", "v")

    def __init__(self, learning_rate: float = 0.001) -> None:
        super().__init__(learning_rate)

    def _update_rows(self, workspace, params, grads, state, scalars, timesteps):
        # The moment updates land in the rows' own state blocks and every
        # temporary in one of two workspace blocks (zero steady-state
        # allocations); the bias corrections use each row's own timestep,
        # which is what keeps Adam correct when rows have stepped different
        # numbers of times (partial participation).
        learning_rate = scalars["learning_rate"]
        beta1 = scalars["beta1"]
        beta2 = scalars["beta2"]
        epsilon = scalars["epsilon"]
        count = params.shape[0]
        first, second = state["m"], state["v"]
        scratch_a = workspace.scratch("adam-a", count)
        scratch_b = workspace.scratch("adam-b", count)
        first *= beta1
        first += np.multiply(grads, 1.0 - beta1, out=scratch_a)
        second *= beta2
        # (1 - beta2) * grads * grads, evaluated left to right.
        np.multiply(grads, 1.0 - beta2, out=scratch_a)
        second += np.multiply(scratch_a, grads, out=scratch_a)
        # The bias corrections are scalar pows per row, computed with Python
        # floats of the plane-dtype betas: numpy's vectorized float64 pow
        # takes a different (SIMD) code path than libm's and can differ in the
        # last ulp, which would make a row's result depend on how many rows
        # share the call.  The resulting columns adopt the plane dtype so they
        # never promote float32 rows.
        bias1, bias2 = (
            np.array([[1.0 - b**t] for t in timesteps], dtype=params.dtype)
            for b in (float(beta1), float(beta2))
        )
        m_hat = np.divide(first, bias1, out=scratch_a)
        v_hat = np.divide(second, bias2, out=scratch_b)
        np.sqrt(v_hat, out=v_hat)
        v_hat += epsilon
        m_hat *= learning_rate
        m_hat /= v_hat
        params -= m_hat


class AdamW(Adam):
    """Adam with decoupled weight decay (the ConvNeXt fine-tuning optimizer)."""

    name = "adamw"
    _scalars = Adam._scalars + ("weight_decay",)

    def __init__(self, learning_rate: float = 0.001, weight_decay: float = 0.01) -> None:
        super().__init__(learning_rate)
        if weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be non-negative, got {weight_decay}")
        self.weight_decay = float(weight_decay)

    def _update_rows(self, workspace, params, grads, state, scalars, timesteps):
        weight_decay = scalars["weight_decay"]
        if not weight_decay:
            super()._update_rows(workspace, params, grads, state, scalars, timesteps)
            return
        # Decoupled decay uses the *pre-update* parameters, so materialize the
        # decay term before the Adam step mutates them.
        decay = workspace.scratch("adamw-decay", params.shape[0])
        np.multiply(scalars["learning_rate"] * weight_decay, params, out=decay)
        super()._update_rows(workspace, params, grads, state, scalars, timesteps)
        params -= decay
