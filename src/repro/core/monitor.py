"""Variance monitors: the two FDA variants' estimation machinery.

A monitor turns a worker's drift vector into the local state it transmits and
turns the AllReduce-averaged state back into the variance over-estimate
``H(S̄_t)`` from Theorems 3.1 and 3.2.  A local state is one float64 row
``[‖u‖² | payload]`` of :meth:`VarianceMonitor.state_num_elements` elements;
rows average element-wise (:meth:`VarianceMonitor.average`), which is what the
AllReduce of local states computes.  The payload is the variant:

* :class:`SketchMonitor` — SketchFDA.  The payload is the AMS sketch of ``u``,
  flattened.  Averaged sketches equal the sketch of the average drift
  (linearity), and the M2 estimator recovers ‖ū_t‖² within (1 ± ε); dividing
  by (1 + ε) makes ``H ≥ Var`` hold with probability ≥ 1 − δ.
* :class:`LinearMonitor` — LinearFDA.  The payload is the projection ⟨ξ, u⟩.
  By Cauchy–Schwarz, |⟨ξ, ū⟩|² ≤ ‖ū‖², so subtracting the squared averaged
  projection always over-estimates the variance.  The heuristic ξ is the
  normalized global drift direction at the previous synchronization, which all
  workers can compute locally.
* :class:`ExactMonitor` — ablation baseline whose payload is the full drift;
  it therefore computes the exact variance (and costs as much as a sync).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.backend import map_row_blocks
from repro.exceptions import CommunicationError, ConfigurationError
from repro.sketch.ams import AmsSketch
from repro.utils.rng import as_rng


class VarianceMonitor:
    """Base class: local-state rows plus the H estimation function."""

    #: Human-readable variant name used in experiment reports.
    name = "monitor"

    def local_state(self, drift: np.ndarray) -> np.ndarray:
        """The row a worker transmits for its current drift ``u_t^{(k)}``."""
        return self.local_states(np.asarray(drift)[None])[0]

    def local_states(
        self, drifts: np.ndarray, norms: Optional[np.ndarray] = None, reference=None, rows=None
    ) -> np.ndarray:
        """The rows of ``drifts[rows] − reference`` (default: all, minus 0), an ``(A, s)`` table.

        The one place a monitor builds states; :meth:`local_state` is its
        one-row case.  Each drift is formed a row (the sketch: a block) at a
        time in its row shard's scratch (:func:`repro.backend.map_row_blocks`),
        so the FDA step, handing in the parameter plane and ``w_t0``, holds no
        drift plane; drifts handed in whole (the served settle's) are read as
        one view per shard.  A row must not depend on which other rows share the
        call: the FDA sync decision is a threshold comparison on these values,
        and a masked step, a served update and a full one must decide alike
        (the ledgers follow the decisions), so only order-identical work is
        batched (e.g. one sparse product sketching a block of rows) and each
        reduction stays per row (a per-row ``np.dot``, whose BLAS reduction
        order differs bitwise from an ``einsum`` over the matrix).  ``norms``,
        if the caller holds them already, is :meth:`squared_norms` of the same
        rows, so column 0 is reduced once.
        """
        drifts = np.asarray(drifts)
        count = len(drifts) if rows is None else len(rows)
        states = np.empty((count, self.state_num_elements(drifts.shape[1])))
        if norms is not None:
            states[:, 0] = norms
        self._fill(states, norms is None, drifts, reference, rows)
        return states

    def _fill(self, states, with_norms, drifts, reference, rows) -> None:
        rows_into = functools.partial(self._rows_into, states, with_norms)
        map_row_blocks(rows_into, drifts, reference, rows)

    norm_dtype = None  # the dtype a row's ‖u‖² is reduced in (None: the drift's own)

    def squared_norms(self, drifts: np.ndarray, reference=None, rows=None) -> np.ndarray:
        """Column 0 of :meth:`local_states` alone: each row's ‖u‖², one dot per row."""
        drifts = np.asarray(drifts)
        norms = np.empty(len(drifts) if rows is None else len(rows))
        map_row_blocks(functools.partial(self._norms_into, norms), drifts, reference, rows)
        return norms

    def _norms_into(self, norms: np.ndarray, blocks) -> None:
        for block in blocks:
            self._norm_rows(norms, *block)

    def _norm_rows(self, norms: np.ndarray, low: int, block: np.ndarray) -> None:
        for k, drift in enumerate(np.asarray(block, dtype=self.norm_dtype), low):
            norms[k] = np.dot(drift, drift)

    def quiet_bound(self, squared_norms: np.ndarray, threshold: float) -> Optional[float]:
        """The mean ‖u‖² of a step that cannot sync, or ``None`` if it might.

        Quiet means every one of the ``A`` rows has ‖u‖² ≤ Θ(1 − 4Au), u = 2⁻⁵³
        (the guard is exact, its product rounds once).  So the largest norm
        M ≤ Θ(1 − 4Au)(1 + u); a sum of A non-negative terms in any order and
        its division round each term at most A times, so the column-0 mean
        m ≤ M(1 + u)^A ≤ Θ(1 − 4Au)(1 + 2(A + 1)u) ≤ Θ.  Every monitor's H is
        fl(m − p) with p ≥ 0, and rounding is monotone: H ≤ m ≤ Θ.  NaN and ∞
        are never quiet.  The mean returned is :meth:`average`'s column 0.
        """
        guard = 1.0 - 4 * len(squared_norms) * (np.finfo(np.float64).eps / 2)
        if not len(squared_norms) or not np.max(squared_norms) <= threshold * guard:
            return None
        return float(np.mean(squared_norms))

    def average(self, states: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """The AllReduce of local states: the mean row of an ``(A, s)`` table.

        ``weights`` (optional, already normalized by the caller — see
        :meth:`Participation.normalized
        <repro.distributed.participation.Participation.normalized>`) makes it a
        weighted mean.  The ‖u‖² column is reduced apart from the payload: a
        one-column reduction is numpy's pairwise sum — the mean of ``A``
        separate norms — while the payload block sums row by row.  One
        ``mean(axis=0)`` over the whole table would sum the norms row by row
        too and change their last bits from eight rows up.
        """
        states = np.asarray(states)
        if states.ndim != 2 or not len(states):
            raise CommunicationError(
                f"averaging needs a non-empty (A, s) table of states, got shape {states.shape}"
            )
        if weights is not None and np.shape(weights) != (len(states),):
            raise CommunicationError(
                f"weights shape {np.shape(weights)} does not match {len(states)} states"
            )
        average = np.empty(states.shape[1])
        average[:1] = np.average(states[:, :1], axis=0, weights=weights)
        average[1:] = np.average(states[:, 1:], axis=0, weights=weights)
        return average

    def estimate(self, average_state: np.ndarray) -> float:
        """The variance over-estimate ``H(S̄_t)`` from the averaged row."""
        raise NotImplementedError

    def _read(self, average_state: np.ndarray, width: Optional[int] = None) -> np.ndarray:
        """``average_state`` as a row, refused by name if it is not this monitor's width."""
        row = np.asarray(average_state)
        if row.ndim != 1 or row.size < 2 or (width is not None and row.size != width):
            raise CommunicationError(
                f"{self!r} reads a state row of {width or 'd + 1'} elements, "
                f"got shape {row.shape}"
            )
        return row

    def state_num_elements(self, model_dimension: int) -> int:
        """Number of elements per transmitted state (the row width; cost accounting)."""
        raise NotImplementedError

    def on_synchronization(self, new_global: np.ndarray, previous_global: np.ndarray) -> None:
        """Hook called by the trainer right after a synchronization.

        ``new_global`` is the model all workers now share, ``previous_global``
        the shared model after the previous synchronization.  The default is a
        no-op; LinearFDA uses it to refresh its heuristic direction ξ.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SketchMonitor(VarianceMonitor):
    """SketchFDA: AMS-sketch-based variance estimation (Theorem 3.1)."""

    name = "sketch"

    def __init__(self, depth: int = 5, width: int = 250, seed: int = 0, dimension=None) -> None:
        self.sketch_operator = AmsSketch(depth, width, seed, dimension=dimension)

    @property
    def epsilon(self) -> float:
        """The ε used in the 1/(1+ε) correction of the H function."""
        return self.sketch_operator.epsilon

    def _fill(self, states, with_norms, drifts, reference, rows) -> None:
        """Rows ``[‖u‖² | sketch of u]``: ``sketch_rows`` forms and sketches a block of
        drifts per sparse product, bit-identical to per-row sketching (see
        :mod:`repro.sketch.ams`), and the norms are reduced from the same blocks."""
        visit = functools.partial(self._norm_rows, states[:, 0]) if with_norms else None
        sketches = self.sketch_operator.sketch_rows(drifts, reference, rows, visit)
        states[:, 1:] = sketches.reshape(states[:, 1:].shape)

    def estimate(self, average_state: np.ndarray) -> float:
        row = self._read(average_state, self.state_num_elements(0))
        sketch = row[1:].reshape(self.sketch_operator.shape)
        norm_estimate = self.sketch_operator.estimate_l2_squared(sketch)
        return float(row[0]) - norm_estimate / (1.0 + self.epsilon)

    def state_num_elements(self, model_dimension: int) -> int:
        del model_dimension
        return 1 + self.sketch_operator.depth * self.sketch_operator.width

    def __repr__(self) -> str:
        return (
            f"SketchMonitor(depth={self.sketch_operator.depth}, "
            f"width={self.sketch_operator.width})"
        )


class LinearMonitor(VarianceMonitor):
    """LinearFDA: scalar-projection variance estimation (Theorem 3.2)."""

    name = "linear"

    def __init__(self, dimension: int, seed: int = 0) -> None:
        if dimension <= 0:
            raise ConfigurationError(f"dimension must be positive, got {dimension}")
        self.dimension = int(dimension)
        self.direction = _first_direction(self.dimension, int(seed))

    def _normalize(self, vector: np.ndarray) -> np.ndarray:
        if vector.shape != (self.dimension,):
            raise ConfigurationError(
                f"direction must have shape ({self.dimension},), got {vector.shape}"
            )
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            # A zero ξ is still valid (the projection term vanishes and H reduces
            # to the mean squared drift, a looser but correct over-estimate).
            return np.zeros(self.dimension)
        return vector / norm

    def _rows_into(self, states: np.ndarray, with_norms: bool, blocks) -> None:
        """Rows ``[‖u‖² | ⟨ξ, u⟩]``: two BLAS dot products per row.  ξ stays float64
        (reference-path analysis vector): a float32 drift is widened into one
        reused float64 row for the projection."""
        wide = np.empty(self.dimension)
        for low, block in blocks:
            for k, drift in enumerate(block, low):
                if with_norms:
                    states[k, 0] = np.dot(drift, drift)
                if drift.dtype != wide.dtype:
                    wide[...] = drift
                    drift = wide
                states[k, 1] = np.dot(self.direction, drift)

    def estimate(self, average_state: np.ndarray) -> float:
        drift_sq_norm, projection = self._read(average_state, 2)
        return float(drift_sq_norm) - float(projection) ** 2

    def state_num_elements(self, model_dimension: int) -> int:
        del model_dimension
        return 2

    def on_synchronization(self, new_global: np.ndarray, previous_global: np.ndarray) -> None:
        """Refresh ξ to the normalized global drift of the last round (Section 3.2)."""
        self.direction = self._normalize(
            np.asarray(new_global, dtype=np.float64) - np.asarray(previous_global, dtype=np.float64)
        )

    def __repr__(self) -> str:
        return f"LinearMonitor(dimension={self.dimension})"


@functools.lru_cache(maxsize=4)
def _first_direction(dimension: int, seed: int) -> np.ndarray:
    """ξ₀, drawn once per ``(dimension, seed)`` and shared read-only: a sweep's cells share it."""
    direction = as_rng(seed).normal(size=dimension)
    direction /= float(np.linalg.norm(direction))
    direction.flags.writeable = False
    return direction


class ExactMonitor(VarianceMonitor):
    """Ablation monitor: transmits the full drift and computes the exact variance."""

    name = "exact"
    norm_dtype = np.float64

    def _rows_into(self, states: np.ndarray, with_norms: bool, blocks) -> None:
        """Rows ``[‖u‖² | u]``, both parts in float64 whatever the plane's dtype.

        The norm is reduced over the same widened drift the payload carries,
        so a lone worker's estimate is exactly 0.
        """
        for low, block in blocks:
            for k, drift in enumerate(block, low):
                states[k, 1:] = drift
                if with_norms:
                    states[k, 0] = np.dot(states[k, 1:], states[k, 1:])

    def estimate(self, average_state: np.ndarray) -> float:
        row = self._read(average_state)
        average_drift = row[1:]
        return float(row[0]) - float(np.dot(average_drift, average_drift))

    def state_num_elements(self, model_dimension: int) -> int:
        return 1 + int(model_dimension)


#: The FDA variants by name: ``(strategy name, monitor factory)``, the factory
#: taking ``(model_dimension, sketch_depth, sketch_width, seed)``.
#: :func:`make_monitor`, ``FDAStrategy`` and ``cli serve --variant`` read this
#: one table.
VARIANTS = {
    "sketch": ("SketchFDA", lambda d, depth, width, seed: SketchMonitor(depth, width, seed, d)),
    "linear": ("LinearFDA", lambda dimension, depth, width, seed: LinearMonitor(dimension, seed)),
    "exact": ("ExactFDA", lambda dimension, depth, width, seed: ExactMonitor()),
}


def check_variant(variant: str) -> str:
    """``variant`` if :data:`VARIANTS` names it; a ``ConfigurationError`` otherwise."""
    if variant not in VARIANTS:
        raise ConfigurationError(
            f"unknown FDA variant {variant!r}; expected one of {sorted(VARIANTS)}"
        )
    return variant


def make_monitor(
    variant: str,
    model_dimension: int,
    sketch_depth: int = 5,
    sketch_width: int = 250,
    seed: int = 0,
) -> VarianceMonitor:
    """Factory: build the monitor for an FDA variant name (a :data:`VARIANTS` key)."""
    _, build = VARIANTS[check_variant(variant)]
    return build(model_dimension, sketch_depth, sketch_width, seed)
