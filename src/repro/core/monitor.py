"""Variance monitors: the two FDA variants' estimation machinery.

A monitor turns a worker's drift vector into the local state it transmits and
turns the AllReduce-averaged state back into the variance over-estimate
``H(S̄_t)`` from Theorems 3.1 and 3.2:

* :class:`SketchMonitor` — SketchFDA.  The averaged AMS sketches equal the
  sketch of the average drift (linearity), and the M2 estimator recovers
  ‖ū_t‖² within (1 ± ε); dividing by (1 + ε) makes ``H ≥ Var`` hold with
  probability ≥ 1 − δ.
* :class:`LinearMonitor` — LinearFDA.  By Cauchy–Schwarz, |⟨ξ, ū⟩|² ≤ ‖ū‖², so
  subtracting the squared averaged projection always over-estimates the
  variance.  The heuristic ξ is the normalized global drift direction at the
  previous synchronization, which all workers can compute locally.
* :class:`ExactMonitor` — ablation baseline that transmits the full drift and
  therefore computes the exact variance.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.state import ExactState, LinearState, LocalState, SketchState
from repro.exceptions import CommunicationError, ConfigurationError
from repro.sketch.ams import AmsSketch
from repro.utils.rng import as_rng


class VarianceMonitor:
    """Base class: local-state construction plus the H estimation function."""

    #: Human-readable variant name used in experiment reports.
    name = "monitor"

    def local_state(self, drift: np.ndarray) -> LocalState:
        """Build the state a worker transmits for its current drift ``u_t^{(k)}``."""
        raise NotImplementedError

    def local_states(self, drifts: np.ndarray) -> List[LocalState]:
        """All workers' states from the stacked ``(K, d)`` drift matrix.

        The batched execution engine's entry point: subclasses override to
        batch the expensive part (one sparse-operator product sketching all
        rows for SketchFDA) instead of ``K`` independent evaluations.  The default
        falls back to :meth:`local_state` per row, so custom monitors keep
        working unvectorized.

        Contract: row ``k`` of the result must be **bit-identical** to
        ``local_state(drifts[k])``.  The FDA sync decision is a threshold
        comparison on these values, and the engines promise exactly equal
        communication ledgers — so overrides must reduce each row with the
        same operations the scalar path uses (e.g. per-row ``np.dot``, whose
        BLAS reduction order differs bitwise from an ``einsum`` over the
        matrix), batching only computations that are order-identical.
        """
        return [self.local_state(drift) for drift in drifts]

    def estimate(self, average_state: LocalState) -> float:
        """The variance over-estimate ``H(S̄_t)`` from the averaged state."""
        raise NotImplementedError

    def state_num_elements(self, model_dimension: int) -> int:
        """Number of float32 elements per transmitted state (cost accounting)."""
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

    def __init__(
        self,
        depth: int = 5,
        width: int = 250,
        seed: int = 0,
        sketch: Optional[AmsSketch] = None,
    ) -> None:
        self.sketch_operator = sketch if sketch is not None else AmsSketch(depth, width, seed)

    @property
    def epsilon(self) -> float:
        """The ε used in the 1/(1+ε) correction of the H function."""
        return self.sketch_operator.epsilon

    def local_state(self, drift: np.ndarray) -> SketchState:
        # Dtype-preserving: a float32 plane's drift is reduced in float32 (the
        # scalar results are Python floats either way); the sketch counters
        # themselves always accumulate in float64 (see repro.sketch.ams).
        drift = np.asarray(drift)
        return SketchState(
            float(np.dot(drift, drift)),
            self.sketch_operator.sketch(drift),
        )

    def local_states(self, drifts: np.ndarray) -> List[SketchState]:
        """All workers' sketch states with one batched sketch of the matrix.

        The sketch — the expensive part — is built for all rows at once
        (``sketch_rows``: one product of the sparse sketch operator with the
        transposed matrix, bit-identical to per-row sketching because each
        bucket accumulates its coordinates in ascending order whatever the
        number of columns); the squared norms stay per-row ``np.dot`` so each
        state is bit-identical to :meth:`local_state` (see the base-class
        contract).
        """
        drifts = np.asarray(drifts)
        sketches = self.sketch_operator.sketch_rows(drifts)
        return [
            SketchState(float(np.dot(drift, drift)), sketch)
            for drift, sketch in zip(drifts, sketches)
        ]

    def estimate(self, average_state: LocalState) -> float:
        if not isinstance(average_state, SketchState):
            raise CommunicationError(
                f"SketchMonitor received a {type(average_state).__name__}; expected SketchState"
            )
        norm_estimate = self.sketch_operator.estimate_l2_squared(average_state.sketch)
        return average_state.drift_sq_norm - norm_estimate / (1.0 + self.epsilon)

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

    def __init__(self, dimension: int, seed: int = 0, initial_direction: Optional[np.ndarray] = None) -> None:
        if dimension <= 0:
            raise ConfigurationError(f"dimension must be positive, got {dimension}")
        self.dimension = int(dimension)
        if initial_direction is not None:
            self.direction = self._normalize(np.asarray(initial_direction, dtype=np.float64))
        else:
            rng = as_rng(seed)
            self.direction = self._normalize(rng.normal(size=self.dimension))

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

    def local_state(self, drift: np.ndarray) -> LinearState:
        # ξ stays float64 (reference-path analysis vector); the projection of
        # a float32 drift promotes to float64 inside the dot reduction.
        drift = np.asarray(drift)
        return LinearState(
            float(np.dot(drift, drift)),
            float(np.dot(self.direction, drift)),
        )

    # LinearFDA's per-row state is two BLAS dot products; a matrix einsum /
    # matrix-vector product would be marginally tidier but reduces in a
    # different order bitwise, which would break the engines' exact-ledger
    # contract (see VarianceMonitor.local_states) — so the base class's
    # per-row fallback, which reuses local_state verbatim, is already the
    # correct batched implementation and no override is defined here.

    def estimate(self, average_state: LocalState) -> float:
        if not isinstance(average_state, LinearState):
            raise CommunicationError(
                f"LinearMonitor received a {type(average_state).__name__}; expected LinearState"
            )
        return average_state.drift_sq_norm - average_state.projection**2

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


class ExactMonitor(VarianceMonitor):
    """Ablation monitor: transmits the full drift and computes the exact variance."""

    name = "exact"

    def local_state(self, drift: np.ndarray) -> ExactState:
        # No defensive copy: every caller hands over a freshly computed drift
        # (a row of the trainer's per-step drift matrix or a standalone
        # subtraction), so copying here would double the allocation of the
        # largest state variant for nothing — and dtype-preserving asarray
        # keeps a float32 plane's drift rows zero-copy too.
        drift = np.asarray(drift)
        return ExactState(float(np.dot(drift, drift)), drift)

    # The base-class per-row local_states fallback is already right here:
    # local_state keeps each drift row as a zero-copy view, and the squared
    # norm must be the same per-row np.dot either way (exact-ledger
    # contract, see VarianceMonitor.local_states) — no override needed.

    def estimate(self, average_state: LocalState) -> float:
        if not isinstance(average_state, ExactState):
            raise CommunicationError(
                f"ExactMonitor received a {type(average_state).__name__}; expected ExactState"
            )
        average_drift = average_state.drift
        return average_state.drift_sq_norm - float(np.dot(average_drift, average_drift))

    def state_num_elements(self, model_dimension: int) -> int:
        return 1 + int(model_dimension)


def make_monitor(
    variant: str,
    model_dimension: int,
    sketch_depth: int = 5,
    sketch_width: int = 250,
    seed: int = 0,
) -> VarianceMonitor:
    """Factory: build the monitor for an FDA variant name.

    ``variant`` is ``"sketch"`` (SketchFDA), ``"linear"`` (LinearFDA) or
    ``"exact"`` (the ablation baseline).
    """
    if variant == "sketch":
        return SketchMonitor(depth=sketch_depth, width=sketch_width, seed=seed)
    if variant == "linear":
        return LinearMonitor(dimension=model_dimension, seed=seed)
    if variant == "exact":
        return ExactMonitor()
    raise ConfigurationError(
        f"unknown FDA variant {variant!r}; expected 'sketch', 'linear' or 'exact'"
    )
