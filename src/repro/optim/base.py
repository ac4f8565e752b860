"""Optimizer base class operating on flat parameter vectors.

All optimizers in this library are stateless with respect to the model object:
they consume the current flat parameter vector and the matching flat gradient
vector.  This mirrors the paper's ``Optimize(w, B)`` abstraction and lets the
same optimizer drive any model.

Two entry points exist:

* :meth:`Optimizer.step` — the historical copy-returning API: validates its
  inputs on every call and returns a *new* parameter vector.
* :meth:`Optimizer.step_inplace` — the hot path used by the workers: updates
  ``params`` (a view into the model's contiguous parameter plane) in place.
  Input validation is hoisted behind a one-time check so that schedule lookup
  and the arithmetic of :meth:`_update_inplace` dominate the per-call cost.
  The gradient vector is treated as read-only by every built-in optimizer.

Both entry points also accept a stacked ``(K, d)`` parameter matrix with a
matching gradient matrix — the batched execution engine's layout, where row
``k`` is worker ``k``'s flat vector.  Every built-in update rule is purely
elementwise over (params, grads, state), so one call on the matrix performs
``K`` independent per-worker updates with arithmetic identical to ``K``
separate flat-vector calls; moment/scratch buffers simply take the matrix
shape.

:class:`StackedOptimizer` builds on that to drive ``K`` *per-worker*
optimizer instances as one stacked update: scalar hyper-parameters become
per-row ``(K, 1)`` broadcast columns (heterogeneously configured workers
share one vectorized step), state matrices' rows are bound back into the
wrapped optimizers (direct per-worker stepping and stacked stepping share
storage), step counts stay per-worker, and :meth:`StackedOptimizer.step_rows`
updates an arbitrary subset of rows — the partial-participation path of the
batched engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import resolve_dtype
from repro.exceptions import ConfigurationError, ShapeError
from repro.optim.schedules import LearningRateSchedule, resolve_schedule


class Optimizer:
    """Base class for local optimizers.

    Subclasses implement :meth:`_update` which maps ``(params, grads, lr)`` to
    the new parameter vector and, for the zero-copy fast path,
    :meth:`_update_inplace` which applies the identical update directly to
    ``params``; this base class handles learning-rate schedules, step
    counting, and input validation.
    """

    def __init__(self, learning_rate=0.01, name: Optional[str] = None) -> None:
        self.schedule: LearningRateSchedule = resolve_schedule(learning_rate)
        self.name = name or type(self).__name__.lower()
        self.step_count = 0
        self._validated_key: Optional[Tuple] = None
        self._bound_shape: Optional[Tuple[int, ...]] = None

    # -- public API ----------------------------------------------------------

    @staticmethod
    def _validate(params: np.ndarray, grads: np.ndarray) -> None:
        if params.shape != grads.shape:
            raise ShapeError(
                f"params and grads must have the same shape, got {params.shape} and {grads.shape}"
            )
        if params.ndim not in (1, 2):
            raise ShapeError(
                "optimizers operate on flat vectors (d,) or stacked worker "
                f"matrices (K, d), got shape {params.shape}"
            )

    def _require_bound_shape(self, shape: Tuple[int, ...]) -> None:
        """Reject a parameter-layout change on an optimizer that has stepped.

        Moment/velocity buffers silently re-zero on a shape change while
        ``step_count`` (bias correction, schedules) keeps counting — a
        quietly wrong trajectory.  Reusing a stepped optimizer with a
        different model or a ``(K, d)`` stacking layout requires an explicit
        :meth:`reset`.  Enforced by both stepping entry points.
        """
        if (
            self.step_count > 0
            and self._bound_shape is not None
            and shape != self._bound_shape
        ):
            raise ShapeError(
                f"optimizer state is bound to parameter shape {self._bound_shape}, "
                f"got {shape}; call reset() before reusing this optimizer with a "
                "different layout"
            )

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Return the updated parameter vector for one optimization step.

        Inputs are converted to ndarrays; float32 arrays step in float32
        (the plane's dtype is authoritative), everything else is promoted
        to the float64 reference dtype.
        """
        params = np.asarray(params)
        grads = np.asarray(grads)
        if params.dtype not in (np.float32, np.float64) or grads.dtype != params.dtype:
            params = np.asarray(params, dtype=np.float64)
            grads = np.asarray(grads, dtype=np.float64)
        self._validate(params, grads)
        self._require_bound_shape(params.shape)
        self._bound_shape = params.shape
        learning_rate = self.schedule(self.step_count)
        updated = self._update(params, grads, learning_rate)
        self.step_count += 1
        return updated

    def step_inplace(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Apply one optimization step directly to ``params`` and return it.

        ``params`` must be a float32 or float64 ndarray — either a flat
        ``(d,)`` vector (typically the model's parameter-plane view) or a
        stacked ``(K, d)`` worker matrix (the batched engine's layout,
        updated as ``K`` independent per-worker steps); it is mutated.
        ``grads`` must be an ndarray of the same shape and dtype (the
        plane's dtype — mixed-dtype stepping would silently change
        arithmetic precision) and is never modified.  Validation
        is memoized on the shape/dtype of both inputs so that repeated calls
        pay only for the schedule lookup and the update itself; any change in
        layout re-validates.  Other input types are rejected outright — an
        ``asarray`` copy of ``params`` would silently swallow the in-place
        update, and a converted ``grads`` would change arithmetic precision
        (use :meth:`step` for convertible inputs).
        """
        key = (
            getattr(params, "shape", None),
            getattr(params, "dtype", None),
            getattr(grads, "shape", None),
            getattr(grads, "dtype", None),
        )
        if key != self._validated_key:
            for name, array in (("params", params), ("grads", grads)):
                if not isinstance(array, np.ndarray) or array.dtype not in (
                    np.float32,
                    np.float64,
                ):
                    raise ShapeError(
                        f"step_inplace requires a float32/float64 ndarray for {name}; "
                        "use step() for other inputs"
                    )
            if params.dtype != grads.dtype:
                raise ShapeError(
                    "step_inplace requires params and grads of the same dtype, "
                    f"got {params.dtype} and {grads.dtype}"
                )
            self._validate(params, grads)
            self._require_bound_shape(params.shape)
            self._validated_key = key
            self._bound_shape = params.shape
        learning_rate = self.schedule(self.step_count)
        self._update_inplace(params, grads, learning_rate)
        self.step_count += 1
        return params

    def reset(self) -> None:
        """Clear all internal state (momentum buffers, step count)."""
        self.step_count = 0
        self._validated_key = None
        self._bound_shape = None
        self._reset_state()

    @property
    def learning_rate(self) -> float:
        """The learning rate that will be used for the next step."""
        return self.schedule(self.step_count)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The live state arrays (velocity, moments) by name; empty until allocated.

        The one enumeration of what an optimizer carries between steps.  On
        the batched engine the arrays are rows of the stacked optimizer's
        ``(K, d)`` matrices, so writers must mutate them in place.
        """
        return {}

    def state_dict(self) -> Dict[str, object]:
        """Resumable snapshot: step count, hyper-parameters, state-array copies."""
        arrays = {name: array.copy() for name, array in self.state_arrays().items()}
        return {"step_count": self.step_count, **self._state(), "arrays": arrays}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Resume from :meth:`state_dict`, writing live arrays in place.

        Row bindings of the stacked optimizer survive.  A live array the
        snapshot lacks was captured before its first step and is zeroed; a
        saved array this optimizer has not allocated yet is adopted.
        """
        self.step_count = int(state["step_count"])
        saved = state["arrays"]
        live = self.state_arrays()
        for name, array in live.items():
            array[...] = saved.get(name, 0.0)
        for name in saved.keys() - live.keys():
            self._bind_state(name, np.array(saved[name]))

    def zero_state(self) -> None:
        """Cold start in place: zero moments and step count, keep row bindings.

        :meth:`reset` drops the arrays instead, which would detach a worker
        from the stacked optimizer's matrices.
        """
        self.step_count = 0
        for array in self.state_arrays().values():
            array[...] = 0.0

    # -- subclass hooks ------------------------------------------------------

    def _update(self, params: np.ndarray, grads: np.ndarray, learning_rate: float) -> np.ndarray:
        raise NotImplementedError

    def _update_inplace(self, params: np.ndarray, grads: np.ndarray, learning_rate: float) -> None:
        """In-place variant of :meth:`_update`; must produce identical values.

        The default funnels through :meth:`_update` so that third-party
        subclasses implementing only the copy path keep working; the built-in
        optimizers override it with in-place arithmetic over persistent
        scratch buffers (the weight-decay variants still materialize one
        temporary for the decay term).
        """
        params[...] = self._update(params, grads, learning_rate)

    def _reset_state(self) -> None:
        """Subclasses clear momentum/variance buffers here."""

    def _state(self) -> Dict[str, object]:
        return {}

    # -- stacked-execution hooks (see :class:`StackedOptimizer`) --------------

    def _stacked_column_names(self) -> Tuple[str, ...]:
        """Scalar hyper-parameters that become per-row ``(K, 1)`` columns."""
        return ()

    def _stacked_state_names(self, optimizers: Sequence["Optimizer"]) -> Tuple[str, ...]:
        """Names of the per-row ``(K, d)`` state matrices the update rule needs."""
        del optimizers
        return ()

    def _bind_state(self, name: str, array: np.ndarray) -> None:
        """Adopt ``array`` as the state array ``name`` (a stacked-matrix row, or
        a saved array on resume)."""

    def _stacked_validate(self, optimizers: Sequence["Optimizer"]) -> List[str]:
        """Problems that make these optimizers impossible to stack (empty = OK).

        Per-row *columns* absorb scalar hyper-parameter differences; this hook
        reports *structural* differences that change the shape of the update
        rule itself (e.g. Nesterov vs classical momentum).
        """
        del optimizers
        return []

    def _stacked_update(
        self,
        stacked: "StackedOptimizer",
        params: np.ndarray,
        grads: np.ndarray,
        state: Dict[str, np.ndarray],
        columns: Dict[str, np.ndarray],
        learning_rate: np.ndarray,
        timesteps: np.ndarray,
    ) -> None:
        """Vectorized update of ``(A, d)`` parameter rows; per-row arithmetic
        must equal :meth:`_update_inplace` on each row separately.

        The base class has no stacked rule; :class:`StackedOptimizer` rejects
        optimizer types that do not override this.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lr={self.schedule!r}, steps={self.step_count})"


class StackedOptimizer:
    """``K`` per-worker optimizers driven as one stacked ``(K, d)`` update.

    The batched execution engine stores all workers' parameters as rows of one
    ``(K, d)`` matrix; this wrapper makes the workers' *optimizers* match that
    layout without changing what any single worker computes:

    * **state is per-row.**  Momentum/velocity/moment buffers are ``(K, d)``
      matrices whose row ``k`` is *bound into* worker ``k``'s own optimizer,
      so stepping a worker directly (``worker.local_step``, drift-control
      local epochs) and stepping it through the stacked update read and write
      the same memory — the two drive modes compose instead of excluding each
      other.
    * **hyper-parameters are per-row columns.**  Learning rate, momentum,
      weight decay, and the Adam betas become ``(K, 1)`` broadcast columns, so
      heterogeneously configured workers share one vectorized step whose
      per-row arithmetic equals each worker's own sequential update
      (broadcasting a column is elementwise multiplication by that row's
      scalar — bit-identical).
    * **step counts stay per-worker.**  Each wrapped optimizer's
      ``step_count`` remains the single source of truth: schedules and Adam
      bias correction follow each worker's own count, which is what keeps
      partial participation — rows having stepped different numbers of times
      — exactly as correct as the sequential engine's per-worker optimizers.

    :meth:`step_rows` applies one update to a subset of rows.  With
    ``rows=None`` (full participation) it operates directly on the live
    matrices; otherwise the caller passes gathered ``(A, d)`` blocks aligned
    with ``rows`` and the state rows are gathered/scattered around the update.
    """

    def __init__(
        self,
        optimizers: Sequence[Optimizer],
        dimension: int,
        dtype=None,
    ) -> None:
        if not optimizers:
            raise ConfigurationError("StackedOptimizer needs at least one optimizer")
        if dimension < 0:
            raise ConfigurationError(f"dimension must be non-negative, got {dimension}")
        reference = optimizers[0]
        mixed = sorted(
            {type(o).__name__ for o in optimizers if type(o) is not type(reference)}
        )
        if mixed:
            raise ConfigurationError(
                "stacked execution needs one optimizer type across all workers; "
                f"got {type(reference).__name__} and {', '.join(mixed)}"
            )
        if type(reference)._stacked_update is Optimizer._stacked_update:
            raise ConfigurationError(
                f"{type(reference).__name__} has no stacked (K, d) update rule; "
                "use execution='sequential' with this optimizer"
            )
        stepped = [i for i, optimizer in enumerate(optimizers) if optimizer.step_count]
        if stepped:
            raise ConfigurationError(
                "stacked execution requires fresh optimizers (their state becomes "
                f"rows of shared (K, d) matrices); optimizers {stepped} have "
                "already stepped — call reset() or construct new optimizers"
            )
        problems = reference._stacked_validate(optimizers)
        if problems:
            raise ConfigurationError(
                "cannot stack these optimizers: " + "; ".join(problems)
            )
        self.optimizers: List[Optimizer] = list(optimizers)
        self.num_workers = len(self.optimizers)
        self.dimension = int(dimension)
        # State, hyper-parameter columns, and scratch all live in the plane's
        # dtype so the stacked update never promotes a float32 (K, d) matrix.
        self.dtype = resolve_dtype(dtype)
        self._columns: Dict[str, np.ndarray] = {
            name: np.array(
                [[float(getattr(optimizer, name))] for optimizer in self.optimizers],
                dtype=self.dtype,
            )
            for name in reference._stacked_column_names()
        }
        # Per-row state matrices; each row is handed back to its worker's
        # optimizer so the per-worker and stacked paths share storage.
        self._state: Dict[str, np.ndarray] = {}
        for name in reference._stacked_state_names(self.optimizers):
            matrix = np.zeros((self.num_workers, self.dimension), dtype=self.dtype)
            self._state[name] = matrix
            for row, optimizer in zip(matrix, self.optimizers):
                optimizer._bind_state(name, row)
        # Masked-path gather buffers, allocated on the first masked step so
        # full-participation runs never pay for them.
        self._state_scratch: Optional[Dict[str, np.ndarray]] = None
        self._workspace: Dict[str, np.ndarray] = {}

    @property
    def step_counts(self) -> np.ndarray:
        """Per-worker step counts (reads the wrapped optimizers)."""
        return np.array([optimizer.step_count for optimizer in self.optimizers])

    def scratch(self, name: str, count: int) -> np.ndarray:
        """A reusable ``(count, d)`` workspace block for the update kernels."""
        buffer = self._workspace.get(name)
        if buffer is None:
            buffer = np.empty((self.num_workers, self.dimension), dtype=self.dtype)
            self._workspace[name] = buffer
        return buffer[:count]

    def step_rows(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One optimization step on the selected worker rows, in place.

        ``rows=None`` steps every worker: ``params``/``grads`` must be the
        full ``(K, d)`` matrices.  Otherwise ``rows`` is an integer index
        array and ``params``/``grads`` are ``(len(rows), d)`` blocks holding
        those workers' rows (typically the engine's gather scratch); state
        rows are gathered before and scattered back after the update.
        """
        active = (
            self.optimizers
            if rows is None
            else [self.optimizers[int(k)] for k in rows]
        )
        count = len(active)
        expected = (count, self.dimension)
        if params.shape != expected or grads.shape != expected:
            raise ShapeError(
                f"step_rows expects params/grads of shape {expected}, got "
                f"{params.shape} and {grads.shape}"
            )
        learning_rate = np.array(
            [[optimizer.schedule(optimizer.step_count)] for optimizer in active],
            dtype=self.dtype,
        )
        # Timesteps stay float64: the update rules only ever read them back
        # as Python scalars (Adam's per-row bias-correction loop).
        timesteps = np.array(
            [[float(optimizer.step_count + 1)] for optimizer in active]
        )
        if rows is None:
            state = self._state
            columns = self._columns
        else:
            if self._state_scratch is None:
                self._state_scratch = {
                    name: np.empty_like(matrix)
                    for name, matrix in self._state.items()
                }
            state = {}
            for name, matrix in self._state.items():
                block = self._state_scratch[name][:count]
                # mode="clip": the rows index live workers by construction,
                # and numpy's bounds-checking take path is several times
                # slower on wide matrices.
                np.take(matrix, rows, axis=0, out=block, mode="clip")
                state[name] = block
            columns = {name: column[rows] for name, column in self._columns.items()}
        self.optimizers[0]._stacked_update(
            self, params, grads, state, columns, learning_rate, timesteps
        )
        if rows is not None:
            for name, matrix in self._state.items():
                matrix[rows] = state[name]
        for optimizer in active:
            optimizer.step_count += 1
        return params

    def __repr__(self) -> str:
        return (
            f"StackedOptimizer({type(self.optimizers[0]).__name__}, "
            f"K={self.num_workers}, d={self.dimension})"
        )


def check_beta(value: float, name: str) -> float:
    """Validate an exponential-decay coefficient in [0, 1)."""
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1), got {value}")
    return value
