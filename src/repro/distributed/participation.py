"""Which rows count, and how much: the one participation value.

Every FDA decision is an average over "the workers" (Algorithm 1: local
states are AllReduced, ``H(S̄)`` is compared with Θ, models are averaged).
Dropout, churn, partial cohorts and data-size weighting each change who those
workers are; a :class:`Participation` is the single answer a round hands to
the code that averages — an optional boolean row ``mask`` and optional
per-row ``weights`` — and :meth:`Participation.mean` is the one row average
the collectives, the server strategies and the compression plane share.

``Participation()`` (no mask, no weights) is the paper's lockstep protocol:
its ``mean`` is plain ``matrix.mean(axis=0)`` and its ``rows`` is the full
slice, so the fault-free, population-free path allocates no mask and stays
bit-identical to code that never heard of participation.

Weights are O(K) *accounting* vectors — client sample counts, staleness
discounts — not streamed ``(K, d)`` tensors, so like the fabric's byte
counters and the timeline's virtual seconds they stay float64 regardless of
the plane dtype: normalization happens in double precision and only the
normalized vector is cast to the plane dtype at the weighted-mean matmul.

>>> import numpy as np
>>> matrix = np.array([[1.0, 1.0], [3.0, 5.0], [100.0, 100.0]])
>>> Participation(mask=[True, True, False]).mean(matrix)
array([2., 3.])
>>> Participation(weights=[1.0, 3.0, 0.0]).mean(matrix)
array([2.5, 4. ])
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError


@dataclass(frozen=True, eq=False)
class Participation:
    """An optional row mask plus optional row weights (both read-only copies).

    ``mask`` — boolean, one entry per row; ``None`` means every row.
    ``weights`` — finite, non-negative, not all zero; ``None`` means uniform.
    """

    mask: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        mask, weights = self.mask, self.weights
        if mask is not None:
            mask = np.array(mask, dtype=bool)
            if mask.ndim != 1:
                raise ShapeError(f"participation mask must be a vector, got {mask.shape}")
            mask.setflags(write=False)
            object.__setattr__(self, "mask", mask)
        if weights is not None:
            weights = np.array(weights, dtype=np.float64)
            if weights.ndim != 1 or (mask is not None and weights.shape != mask.shape):
                raise ShapeError(
                    "participation weights must be a vector as long as the mask, "
                    f"got {weights.shape}"
                )
            if np.any(weights < 0.0) or not np.isfinite(weights).all():
                raise ConfigurationError("participation weights must be finite and >= 0")
            if weights.sum() <= 0.0:
                raise ConfigurationError("participation weights must not sum to zero")
            weights.setflags(write=False)
            object.__setattr__(self, "weights", weights)

    @property
    def lockstep(self) -> bool:
        """Every row counts, equally: the exact path with nothing to apply."""
        return self.mask is None and self.weights is None

    @property
    def rows(self) -> Union[slice, np.ndarray]:
        """The index for ``matrix[rows] = value``: the mask, or the full slice."""
        if self.mask is None or self.mask.all():
            return slice(None)
        return self.mask

    def indices(self, num_rows: int) -> np.ndarray:
        """The participating row numbers out of ``num_rows``, ascending."""
        return np.arange(num_rows, dtype=np.intp)[self.rows]

    def restrict(self, mask: Optional[np.ndarray]) -> "Participation":
        """This participation AND ``mask`` (``None`` restricts nothing); never wider."""
        if mask is None:
            return self
        return replace(self, mask=mask if self.mask is None else self.mask & mask)

    def normalized(self) -> Optional[np.ndarray]:
        """The weights, zeroed outside the mask and summing to one.

        ``None`` without weights — and when the mask zeroes every weight, so
        the caller falls back to the uniform mean over the mask instead of
        dividing by zero.
        """
        weights = self.weights
        if weights is None:
            return None
        if self.mask is not None:
            weights = np.where(self.mask, weights, 0.0)
        total = weights.sum()
        if total <= 0.0:
            return None
        return weights / total

    def mean(self, matrix: np.ndarray) -> np.ndarray:
        """The average row of ``matrix`` over the rows that count.

        Three kernels, chosen by what is set: the normalized weights as one
        ``(K,) @ (K, d)`` product in the matrix dtype; the plain
        ``mean(axis=0)`` when every row counts; the subset mean over the
        masked-in rows otherwise.  A mask that selects no row has nobody to
        renormalize over and takes the plain mean, so a collective whose
        members are all down still returns a finite model (and, written back
        through :attr:`rows`, changes nothing).
        """
        normalized = self.normalized()
        if normalized is not None:
            return normalized.astype(matrix.dtype) @ matrix
        if self.mask is None or self.mask.all() or not self.mask.any():
            return matrix.mean(axis=0)
        return matrix[self.mask].mean(axis=0)
