"""Optimizer base class: an optimizer is one row of a stack, with one rule.

All optimizers in this library are stateless with respect to the model object:
they consume a flat parameter vector and the matching flat gradient vector.
This mirrors the paper's ``Optimize(w, B)`` abstraction and lets the same
optimizer drive any model.

Each optimizer's arithmetic is written once, as a rule over ``(A, d)`` rows
(:meth:`Optimizer._update_rows`): parameters, gradients and state are row
blocks, scalar hyper-parameters are ``(A, 1)`` broadcast columns, and every
row keeps its own timestep.  A :class:`StackedOptimizer` owns the state
matrices and the columns of ``K`` optimizers, and every optimizer is a row of
exactly one stack — its own private one-row stack (built on its first step)
until an execution engine stacks it with its peers.  So there is one path to
the rule, whoever drives:

* :meth:`StackedOptimizer.step_rows` — all ``K`` rows, or a masked subset
  (the batched engine's lockstep and partial-participation paths), one
  cache-sized block of whole rows at a time within each row shard;
* :meth:`Optimizer.step_inplace` — "step my row": the same rule on
  ``params[None]`` with this row's state block, ``(1, 1)`` columns and
  timestep (``worker.local_step``, the sequential engine's steps and
  epochs).  It updates ``params`` — a view into the model's contiguous
  parameter plane — in place; input validation is hoisted behind a one-time
  check, and the gradient vector is read-only to every built-in rule;
* :meth:`Optimizer.step` — the public convenience for convertible inputs:
  convert, copy, ``step_inplace``, return the copy.

Because a row's state lives in its stack, stepping a worker directly and
stepping it through the stacked update read and write the same memory, and
"which engine" never changes optimizer arithmetic.
"""

from __future__ import annotations

from numbers import Real
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import resolve_dtype, row_shards, run_shards, shard_bounds
from repro.exceptions import ConfigurationError, ShapeError


#: Elements per row block of a stacked update (1 MiB at float64, 512 KiB at
#: float32): the rule's scratch stays cache-resident across blocks, so only
#: parameters, gradients and state stream through DRAM.
ROW_BLOCK_ELEMENTS = 131_072


class Workspace:
    """The reusable scratch blocks a stack lends to its rule.

    Shared by a :class:`StackedOptimizer` and its rows' optimizers (a stack
    keeps one more per extra row shard, so no two threads share one); knows
    the stack's row layout (``dimension`` in ``dtype``) and nothing else.
    """

    def __init__(self, dimension: int, dtype: np.dtype) -> None:
        self.dimension, self.dtype = dimension, dtype
        self._buffers: Dict[str, np.ndarray] = {}

    def scratch(self, name: str, count: int) -> np.ndarray:
        """A reusable ``(count, d)`` block, as tall as the tallest one asked for."""
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape[0] < count:
            buffer = np.empty((count, self.dimension), dtype=self.dtype)
            self._buffers[name] = buffer
        return buffer[:count]


class Optimizer:
    """Base class for local optimizers.

    A subclass declares its scalar hyper-parameter attributes
    (:attr:`_columns`), its state matrices (:attr:`_state_names`) and one
    rule (:meth:`_update_rows`); this base class handles the learning rate,
    step counting, input validation and the state's lifecycle.
    """

    #: Scalar hyper-parameter attributes beyond ``learning_rate`` that become
    #: per-row ``(K, 1)`` columns, read once, when the row is bound (a stack
    #: adds the ``learning_rate`` column to every optimizer's).
    _columns: Tuple[str, ...] = ()
    #: Per-row ``(K, d)`` state matrices the rule reads and writes.  May be
    #: narrowed per instance (momentum-free SGD carries none); a stack
    #: allocates the union over its rows.
    _state_names: Tuple[str, ...] = ()

    def __init__(self, learning_rate: float = 0.01, name: Optional[str] = None) -> None:
        if not isinstance(learning_rate, Real) or isinstance(learning_rate, bool):
            raise ConfigurationError(f"learning_rate must be a number, got {learning_rate!r}")
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self.name = name or type(self).__name__.lower()
        self.step_count = 0
        self._validated_key: Optional[Tuple] = None
        # What an optimizer holds of its stack: the workspace (None until the
        # first step or an engine binds it) and its row's blocks — never the
        # stack itself, so no reference cycle hands the (K, d) matrices to the
        # cyclic collector.  ``_solo``: the stack is its private one.
        self._workspace: Optional[Workspace] = None
        self._solo = False
        self._row_state: Dict[str, np.ndarray] = {}

    # -- row binding ---------------------------------------------------------

    def _bind_row(self, stack: "StackedOptimizer", row: int) -> None:
        """Become row ``row`` of ``stack``.

        The ``(1, ·)`` blocks :meth:`step_inplace` hands to the rule are cut
        here, once: views of the stack's state matrices and columns.
        """
        rows = slice(row, row + 1)
        self._workspace = stack.workspace
        self._solo = False
        self._row_state = {name: matrix[rows] for name, matrix in stack._state.items()}
        self._row_columns = {name: column[rows] for name, column in stack._columns.items()}
        self._validated_key = None

    def _bind_solo(self, dimension: int, dtype) -> None:
        """Become the one row of a private stack (no engine has stacked us).

        Only what the stack allocated is kept — the row's blocks and the
        workspace; nobody else steps a private stack, so the object goes.
        """
        StackedOptimizer([self], dimension, dtype)
        self._solo = True

    def _require_layout(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Validate one ``step_inplace`` layout and bind this row to it.

        A row's state and step count (bias correction) belong to
        one parameter layout; stepping another would pair them with foreign
        parameters — a quietly wrong trajectory — so it is refused until an
        explicit :meth:`reset` (which frees a solo optimizer for reuse).
        """
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
        if params.shape != grads.shape:
            raise ShapeError(
                f"params and grads must have the same shape, got {params.shape} and {grads.shape}"
            )
        if params.ndim != 1:
            raise ShapeError(
                "an optimizer steps one flat (d,) vector — its row; stacked "
                "(K, d) matrices go through StackedOptimizer.step_rows — got "
                f"shape {params.shape}"
            )
        bound = self._workspace
        if bound is None:
            self._bind_solo(params.size, params.dtype)
        elif (bound.dimension, bound.dtype) != (params.size, params.dtype):
            raise ShapeError(
                f"optimizer state is bound to parameter shape ({bound.dimension},) "
                f"{bound.dtype}, got {params.shape} {params.dtype}; call reset() "
                "before reusing a solo optimizer with a different layout"
            )

    # -- public API ----------------------------------------------------------

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Return the updated parameter vector for one optimization step.

        The convenience wrapper over :meth:`step_inplace`: inputs are
        converted to ndarrays — float32 arrays step in float32 (the plane's
        dtype is authoritative), everything else is promoted to the float64
        reference dtype — and the update lands in a copy, which is returned.
        """
        params = np.asarray(params)
        grads = np.asarray(grads)
        if params.dtype not in (np.float32, np.float64) or grads.dtype != params.dtype:
            params = np.asarray(params, dtype=np.float64)
            grads = np.asarray(grads, dtype=np.float64)
        return self.step_inplace(np.array(params), grads)

    def step_inplace(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Step this optimizer's row: update ``params`` in place and return it.

        ``params`` must be a flat float32 or float64 ``(d,)`` ndarray
        (typically the model's parameter-plane view); it is mutated.
        ``grads`` must be an ndarray of the same shape and dtype (the
        plane's dtype — mixed-dtype stepping would silently change
        arithmetic precision) and is never modified.  Validation
        is memoized on the shape/dtype of both inputs so that repeated calls
        pay only for the rule itself; any change in
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
            self._require_layout(params, grads)
            self._validated_key = key
        self._update_rows(
            self._workspace,
            params[None],
            grads[None],
            self._row_state,
            self._row_columns,
            (self.step_count + 1,),
        )
        self.step_count += 1
        return params

    def reset(self) -> None:
        """Clear all internal state (momentum buffers, step count).

        The row is zeroed in place and stays bound to its stack, exactly
        like :meth:`zero_state`; a solo optimizer additionally forgets its
        layout, so it can be reused with a different model.
        """
        self.zero_state()
        if self._solo:
            self._workspace = None
            self._row_state = {}
            self._validated_key = None

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The live state arrays (velocity, moments) by name; empty until bound.

        The one enumeration of what an optimizer carries between steps.  The
        arrays are this optimizer's rows of its stack's ``(K, d)`` matrices,
        so writers must mutate them in place.
        """
        return {name: block[0] for name, block in self._row_state.items()}

    def state_dict(self) -> Dict[str, object]:
        """Resumable snapshot: step count, hyper-parameters, state-array copies."""
        arrays = {name: array.copy() for name, array in self.state_arrays().items()}
        return {"step_count": self.step_count, **self._state(), "arrays": arrays}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Resume from :meth:`state_dict`, writing the row in place.

        A live array the snapshot lacks was captured before its first step
        and is zeroed; an optimizer no stack has bound yet takes its layout
        from the saved arrays.
        """
        saved = state["arrays"]
        if saved and self._workspace is None:
            layout = np.asarray(next(iter(saved.values())))
            self._bind_solo(layout.size, layout.dtype)
        self.step_count = int(state["step_count"])
        for name, array in self.state_arrays().items():
            array[...] = saved.get(name, 0.0)

    def zero_state(self) -> None:
        """Cold start in place: zero the row's state and the step count."""
        self.step_count = 0
        for array in self.state_arrays().values():
            array[...] = 0.0

    # -- subclass hooks ------------------------------------------------------

    def _state(self) -> Dict[str, object]:
        """The hyper-parameters :meth:`state_dict` reports."""
        return {name: getattr(self, name) for name in self._columns}

    def _stacked_validate(self, optimizers: Sequence["Optimizer"]) -> List[str]:
        """Problems that make these optimizers impossible to stack (empty = OK).

        Per-row *columns* absorb scalar hyper-parameter differences; this hook
        reports *structural* differences that change the shape of the update
        rule itself (e.g. Nesterov vs classical momentum).
        """
        del optimizers
        return []

    def _update_rows(
        self,
        workspace: "Workspace",
        params: np.ndarray,
        grads: np.ndarray,
        state: Dict[str, np.ndarray],
        columns: Dict[str, np.ndarray],
        timesteps: Sequence[int],
    ) -> None:
        """The rule: one in-place update of ``(A, d)`` parameter rows.

        ``state`` holds the rows' ``(A, d)`` blocks of :attr:`_state_names`,
        ``columns`` their ``(A, 1)`` ``learning_rate`` and :attr:`_columns`,
        and ``timesteps`` the rows' 1-based step numbers;
        ``workspace`` lends scratch blocks.  Rows are independent: row ``k``
        must come out the same whichever other rows share the call, and only
        structural attributes (uniform across a stack) may be read from
        ``self``.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lr={self.learning_rate}, steps={self.step_count})"


class StackedOptimizer:
    """``K`` optimizers as the rows of one ``(K, d)`` update; owner of their state.

    The batched execution engine stores all workers' parameters as rows of one
    ``(K, d)`` matrix; a stack makes the workers' *optimizers* match that
    layout without changing what any single worker computes (a lone optimizer
    is the ``K = 1`` case, stacked privately on its first step):

    * **state is per-row.**  Momentum/velocity/moment buffers are ``(K, d)``
      matrices owned here; optimizer ``k`` *is* row ``k``, so stepping a
      worker directly (``worker.local_step``) and
      stepping it through :meth:`step_rows` run the same rule on the same
      memory — the two drive modes compose instead of excluding each other.
    * **hyper-parameters are per-row columns.**  Learning rate, momentum,
      weight decay, and the Adam betas are ``(K, 1)`` broadcast columns in
      the plane dtype — the one place the rule reads them from — so
      heterogeneously configured workers share one vectorized step
      (broadcasting a column is elementwise multiplication by that row's
      scalar).
    * **step counts stay per-worker.**  Each optimizer's ``step_count``
      remains the single source of truth: Adam bias correction follows each
      row's own count, which is what keeps partial participation — rows
      having stepped different numbers of times — correct.

    :meth:`step_rows` applies one update to a subset of rows.  With
    ``rows=None`` (full participation) it operates directly on the live
    matrices; otherwise the caller passes gathered ``(A, d)`` blocks aligned
    with ``rows`` and the state rows are gathered/scattered around the update.
    Either way the rule runs one block of whole rows at a time
    (:data:`ROW_BLOCK_ELEMENTS`) — the one place an update is cache-blocked —
    within each row shard (:func:`repro.backend.row_shards`).
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
        if type(reference)._update_rows is Optimizer._update_rows:
            raise ConfigurationError(
                f"{type(reference).__name__} defines no update rule; an optimizer "
                "declares _columns, _state_names and one _update_rows"
            )
        # A stepped row of another stack holds state the rebinding would drop
        # while its step count kept counting; stepped but unbound (resumed
        # from a snapshot that carried no arrays) there is nothing to lose.
        stepped = [
            i
            for i, optimizer in enumerate(optimizers)
            if optimizer.step_count and optimizer._workspace is not None
        ]
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
        # dtype so the update never promotes a float32 (K, d) matrix.
        self.dtype = resolve_dtype(dtype)
        self.workspace = Workspace(self.dimension, self.dtype)
        #: One workspace per row shard; the first is :attr:`workspace`.
        self._workspaces: List[Workspace] = [self.workspace]
        self._columns: Dict[str, np.ndarray] = {
            name: np.array(
                [[float(getattr(optimizer, name))] for optimizer in self.optimizers],
                dtype=self.dtype,
            )
            for name in ("learning_rate",) + reference._columns
        }
        self._state: Dict[str, np.ndarray] = {
            name: np.zeros((self.num_workers, self.dimension), dtype=self.dtype)
            for name in dict.fromkeys(
                name for optimizer in self.optimizers for name in optimizer._state_names
            )
        }
        for row, optimizer in enumerate(self.optimizers):
            optimizer._bind_row(self, row)

    def _select(self, rows) -> Tuple[np.ndarray, List[Optimizer]]:
        """``rows`` as an index array of distinct workers in ``[0, K)``, and their optimizers.

        A repeated id would step a row's state once and its count twice (and,
        straddling two blocks, make the result depend on the block size); a
        negative one pairs worker ``K + id``'s step count with another row's
        state.  Both are refused, like an id past the end.
        """
        ids = np.asarray(rows)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ShapeError(
                f"step_rows expects rows as a 1-D integer index array, got {rows!r}"
            )
        listed = ids.tolist()
        workers = range(self.num_workers)
        if len(set(listed)) != len(listed) or any(k not in workers for k in listed):
            offending = sorted(
                {k for k in listed if k not in workers or listed.count(k) > 1}
            )
            raise ShapeError(
                f"step_rows expects rows as unique worker ids in [0, {self.num_workers}); "
                f"out of range or repeated: {offending}"
            )
        return ids, [self.optimizers[k] for k in listed]

    def step_rows(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One optimization step on the selected worker rows, in place.

        ``rows=None`` steps every worker: ``params``/``grads`` must be the
        full ``(K, d)`` matrices.  Otherwise ``rows`` indexes distinct
        workers and ``params``/``grads`` are ``(len(rows), d)`` blocks holding
        those workers' rows (typically the engine's gather scratch).

        The rows split into contiguous shards (:func:`repro.backend.row_shards`)
        that step concurrently, and within a shard the rule is applied to
        ``ROW_BLOCK_ELEMENTS // d`` consecutive rows at a time (at least one;
        a row is never split, a block never crosses a shard): rows are
        independent under the rule's contract, so neither the shard count nor
        the block size shows in a result, and every temporary is block-sized.
        On the masked path each block's state rows are gathered before and
        scattered back after its update.
        """
        if rows is None:
            active = self.optimizers
        else:
            rows, active = self._select(rows)
        count = len(active)
        expected = (count, self.dimension)
        if params.shape != expected or grads.shape != expected:
            raise ShapeError(
                f"step_rows expects params/grads of shape {expected}, got "
                f"{params.shape} and {grads.shape}"
            )
        timesteps = [optimizer.step_count + 1 for optimizer in active]
        step = (params, grads, rows, timesteps)
        block = max(1, ROW_BLOCK_ELEMENTS // max(1, self.dimension))
        shards = row_shards(count, self.dimension)
        if shards == 1:
            self._step_range(self.workspace, 0, count, block, *step)
        else:
            while len(self._workspaces) < shards:
                self._workspaces.append(Workspace(self.dimension, self.dtype))
            shard_args = [
                (workspace, start, stop, block, *step)
                for workspace, (start, stop) in zip(self._workspaces, shard_bounds(count, shards))
            ]
            run_shards(self._step_range, shard_args)
        for optimizer in active:
            optimizer.step_count += 1
        return params

    def _step_range(
        self, workspace, start, stop, block, params, grads, rows, timesteps
    ) -> None:
        """The rule over rows ``[start, stop)`` of one step, ``block`` rows at a time."""
        rule = self.optimizers[0]._update_rows
        for low in range(start, stop, block):
            cut = slice(low, min(low + block, stop))
            if rows is None:
                state = {name: matrix[cut] for name, matrix in self._state.items()}
                columns = {name: column[cut] for name, column in self._columns.items()}
            else:
                ids = rows[cut]
                # mode="clip": step_rows checked the ids, and numpy's
                # bounds-checking take path is several times slower on wide
                # matrices.
                state = {
                    name: np.take(
                        matrix,
                        ids,
                        axis=0,
                        out=workspace.scratch("state-" + name, ids.size),
                        mode="clip",
                    )
                    for name, matrix in self._state.items()
                }
                columns = {name: column[ids] for name, column in self._columns.items()}
            rule(
                workspace,
                params[cut],
                grads[cut],
                state,
                columns,
                timesteps[cut],
            )
            if rows is not None:
                for name, matrix in self._state.items():
                    matrix[ids] = state[name]

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
