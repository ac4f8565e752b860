"""Textbook reference optimizers: the independent oracle for the row rules.

Production code spells each optimizer's arithmetic once, as an in-place
``(A, d)`` row rule (``repro.optim``).  These are the three textbook
expressions the library started from — the bodies of the retired copy path's
``SGD._update`` / ``Adam._update`` / ``AdamW._update``, moved here verbatim —
kept so the rules are compared against something that is not themselves.
They allocate a fresh array per expression and take their scalars as Python
floats, so they are the float64 reference only.
"""

from __future__ import annotations

import numpy as np

from repro.optim.adam import Adam, AdamW
from repro.optim.sgd import SGD


class _Reference:
    """Step counting around a copy-returning ``_update``."""

    def __init__(self, optimizer) -> None:
        self.learning_rate = optimizer.learning_rate
        self.step_count = 0
        # The hyper-parameters, under the names the expressions read.
        vars(self).update(optimizer._state())

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        updated = self._update(params, grads, self.learning_rate)
        self.step_count += 1
        return updated


class ReferenceSGD(_Reference):
    _velocity = None

    def _update(self, params, grads, learning_rate):
        if self.weight_decay:
            grads = grads + self.weight_decay * params
        if self.momentum == 0.0:
            return params - learning_rate * grads
        if self._velocity is None:
            self._velocity = np.zeros_like(params)
        self._velocity = self.momentum * self._velocity - learning_rate * grads
        if self.nesterov:
            return params + self.momentum * self._velocity - learning_rate * grads
        return params + self._velocity


class ReferenceAdam(_Reference):
    _m = _v = None

    def _update(self, params, grads, learning_rate):
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
        timestep = self.step_count + 1
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grads
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grads * grads
        m_hat = self._m / (1.0 - self.beta1**timestep)
        v_hat = self._v / (1.0 - self.beta2**timestep)
        return params - learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


class ReferenceAdamW(ReferenceAdam):
    def _update(self, params, grads, learning_rate):
        updated = super()._update(params, grads, learning_rate)
        if self.weight_decay:
            updated = updated - learning_rate * self.weight_decay * params
        return updated


def reference_for(optimizer) -> _Reference:
    """The textbook twin of a fresh ``repro.optim`` optimizer."""
    twins = {SGD: ReferenceSGD, Adam: ReferenceAdam, AdamW: ReferenceAdamW}
    return twins[type(optimizer)](optimizer)
