"""Local states transmitted by FDA workers (Figure 2 of the paper).

Both FDA variants transmit the squared norm of the local drift plus a
low-dimensional summary of the drift itself:

* :class:`SketchState` — an AMS sketch of the drift (SketchFDA, Section 3.1);
* :class:`LinearState` — the scalar projection ⟨ξ, u⟩ onto a shared unit
  vector ξ (LinearFDA, Section 3.2);
* :class:`ExactState` — the full drift vector; never used by FDA itself (it
  would cost as much as synchronizing) but provided for ablation benchmarks
  that measure how loose the two practical estimators are.

States form a vector space: they can be averaged element-wise, which is what
the AllReduce of local states computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import CommunicationError, ShapeError


@dataclass(frozen=True)
class LocalState:
    """Base class: any FDA local state carries the squared drift norm."""

    drift_sq_norm: float

    @property
    def num_elements(self) -> int:
        """Number of float32 elements transmitted for this state (for cost accounting)."""
        return 1

    def _combine(
        self, states: Sequence["LocalState"], weights: Optional[np.ndarray] = None
    ) -> "LocalState":
        raise NotImplementedError


@dataclass(frozen=True)
class LinearState(LocalState):
    """LinearFDA state: (‖u‖², ⟨ξ, u⟩)."""

    projection: float = 0.0

    @property
    def num_elements(self) -> int:
        return 2

    def _combine(
        self, states: Sequence["LocalState"], weights: Optional[np.ndarray] = None
    ) -> "LinearState":
        projections = []
        norms = []
        for state in states:
            if not isinstance(state, LinearState):
                raise CommunicationError("cannot average LinearState with other state types")
            projections.append(state.projection)
            norms.append(state.drift_sq_norm)
        if weights is None:
            return LinearState(float(np.mean(norms)), float(np.mean(projections)))
        return LinearState(
            float(np.average(norms, weights=weights)),
            float(np.average(projections, weights=weights)),
        )


@dataclass(frozen=True)
class SketchState(LocalState):
    """SketchFDA state: (‖u‖², AMS sketch of u)."""

    sketch: np.ndarray = None

    def __post_init__(self) -> None:
        if self.sketch is None:
            raise ShapeError("SketchState requires a sketch matrix")
        object.__setattr__(self, "sketch", np.asarray(self.sketch, dtype=np.float64))
        if self.sketch.ndim != 2:
            raise ShapeError(f"sketch must be a 2-D matrix, got shape {self.sketch.shape}")

    @property
    def num_elements(self) -> int:
        return 1 + int(self.sketch.size)

    def _combine(
        self, states: Sequence["LocalState"], weights: Optional[np.ndarray] = None
    ) -> "SketchState":
        norms = []
        sketches = []
        for state in states:
            if not isinstance(state, SketchState):
                raise CommunicationError("cannot average SketchState with other state types")
            if state.sketch.shape != self.sketch.shape:
                raise CommunicationError(
                    f"sketch shapes differ: {state.sketch.shape} vs {self.sketch.shape}"
                )
            norms.append(state.drift_sq_norm)
            sketches.append(state.sketch)
        stacked = np.stack(sketches, axis=0)
        if weights is None:
            return SketchState(float(np.mean(norms)), np.mean(stacked, axis=0))
        return SketchState(
            float(np.average(norms, weights=weights)),
            np.average(stacked, axis=0, weights=weights),
        )


@dataclass(frozen=True)
class ExactState(LocalState):
    """Ablation-only state carrying the full drift vector."""

    drift: np.ndarray = None

    def __post_init__(self) -> None:
        if self.drift is None:
            raise ShapeError("ExactState requires the drift vector")
        # Dtype-preserving: a float32 plane's drift row is kept as a
        # zero-copy view; non-float inputs normalize to the float64 reference.
        drift = np.asarray(self.drift)
        if drift.dtype not in (np.float32, np.float64):
            drift = np.asarray(drift, dtype=np.float64)
        object.__setattr__(self, "drift", drift)
        if self.drift.ndim != 1:
            raise ShapeError(f"drift must be a 1-D vector, got shape {self.drift.shape}")

    @property
    def num_elements(self) -> int:
        return 1 + int(self.drift.size)

    def _combine(
        self, states: Sequence["LocalState"], weights: Optional[np.ndarray] = None
    ) -> "ExactState":
        norms = []
        drifts = []
        for state in states:
            if not isinstance(state, ExactState):
                raise CommunicationError("cannot average ExactState with other state types")
            if state.drift.shape != self.drift.shape:
                raise CommunicationError(
                    f"drift shapes differ: {state.drift.shape} vs {self.drift.shape}"
                )
            norms.append(state.drift_sq_norm)
            drifts.append(state.drift)
        stacked = np.stack(drifts, axis=0)
        if weights is None:
            return ExactState(float(np.mean(norms)), np.mean(stacked, axis=0))
        return ExactState(
            float(np.average(norms, weights=weights)),
            np.average(stacked, axis=0, weights=weights),
        )


def average_states(
    states: Sequence[LocalState], weights: Optional[np.ndarray] = None
) -> LocalState:
    """Element-wise average of per-worker states (the AllReduce of local states).

    ``weights`` (optional, already validated/normalized by the caller — see
    :meth:`Participation.normalized
    <repro.distributed.participation.Participation.normalized>`) turns the
    mean into a weighted average; ``None`` keeps the exact legacy ``np.mean`` path
    bit-for-bit, which the serving plane's degenerate-mode parity relies on.
    """
    if not states:
        raise CommunicationError("average_states requires at least one state")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(states),):
            raise CommunicationError(
                f"weights shape {weights.shape} does not match {len(states)} states"
            )
    return states[0]._combine(states, weights)


def state_to_dict(state: LocalState) -> dict:
    """Serialize a local state for checkpointing (arrays stay numpy).

    The faults-plane :class:`~repro.faults.checkpoint.ClusterCheckpoint`
    encodes the contained arrays to base64; this only flattens the state into
    a tagged plain structure.
    """
    if isinstance(state, LinearState):
        return {
            "type": "linear",
            "drift_sq_norm": float(state.drift_sq_norm),
            "projection": float(state.projection),
        }
    if isinstance(state, SketchState):
        return {
            "type": "sketch",
            "drift_sq_norm": float(state.drift_sq_norm),
            "sketch": np.array(state.sketch),
        }
    if isinstance(state, ExactState):
        return {
            "type": "exact",
            "drift_sq_norm": float(state.drift_sq_norm),
            "drift": np.array(state.drift),
        }
    raise CommunicationError(f"cannot serialize state of type {type(state).__name__}")


def state_from_dict(payload: dict) -> LocalState:
    """Rebuild a local state serialized by :func:`state_to_dict`."""
    kind = payload.get("type")
    if kind == "linear":
        return LinearState(float(payload["drift_sq_norm"]), float(payload["projection"]))
    if kind == "sketch":
        return SketchState(float(payload["drift_sq_norm"]), np.asarray(payload["sketch"]))
    if kind == "exact":
        return ExactState(float(payload["drift_sq_norm"]), np.asarray(payload["drift"]))
    raise CommunicationError(f"unknown serialized state type {kind!r}")
