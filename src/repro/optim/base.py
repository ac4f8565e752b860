"""Optimizer base class: an optimizer is one row of a stack, with one rule.

All optimizers in this library are stateless with respect to the model object:
they consume flat parameter rows and the matching flat gradient rows.  This
mirrors the paper's ``Optimize(w, B)`` abstraction and lets the same
optimizer drive any model.

Each optimizer's arithmetic is written once, as a rule over ``(A, d)`` rows
(:meth:`Optimizer._update_rows`): parameters, gradients and state are row
blocks, scalar hyper-parameters are ``(A, 1)`` broadcast columns, and every
row keeps its own timestep.  A :class:`StackedOptimizer` owns the state
matrices and the columns of ``K`` optimizers, and an optimizer is stepped
only as a row of exactly one stack — the one the cluster's engine builds
over its workers' optimizers.  So there is one path to the rule,
:meth:`StackedOptimizer.step_rows`: all ``K`` rows, or a masked subset (the
engine's lockstep, partial-participation and per-worker paths), one
cache-sized block of whole rows at a time within each row shard.
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

    Owned by a :class:`StackedOptimizer` (one more per extra row shard, so no
    two threads share one); knows the stack's row layout (``dimension`` in
    ``dtype``) and nothing else.
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
    step counting and the state's lifecycle.
    """

    #: Scalar hyper-parameter attributes beyond ``learning_rate`` that become
    #: per-row ``(K, 1)`` columns, read once, when a stack is built (it
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
        # What an optimizer holds of its stack: its row's blocks of the state
        # matrices (None until a stack binds it) — never the stack itself, so
        # no reference cycle hands the (K, d) matrices to the cyclic collector.
        self._row_state: Optional[Dict[str, np.ndarray]] = None

    def _bind_row(self, stack: "StackedOptimizer", row: int) -> None:
        """Become row ``row`` of ``stack``: keep views of its state rows."""
        rows = slice(row, row + 1)
        self._row_state = {name: matrix[rows] for name, matrix in stack._state.items()}

    # -- resumable state -----------------------------------------------------

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The live state arrays (velocity, moments) by name; empty until stacked.

        The one enumeration of what an optimizer carries between steps.  The
        arrays are this optimizer's rows of its stack's ``(K, d)`` matrices,
        so writers must mutate them in place.
        """
        return {name: block[0] for name, block in (self._row_state or {}).items()}

    def state_dict(self) -> Dict[str, object]:
        """Resumable snapshot: step count, hyper-parameters, state-array copies."""
        arrays = {name: array.copy() for name, array in self.state_arrays().items()}
        return {"step_count": self.step_count, **self._state(), "arrays": arrays}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Resume from :meth:`state_dict`, writing the row in place.

        A live array the snapshot lacks was captured before its first step
        and is zeroed.  The row must exist: an optimizer no stack has bound
        has nowhere to put the saved arrays, so it is refused.
        """
        if self._row_state is None:
            raise ConfigurationError(
                f"{type(self).__name__} is not a row of any stack, so its saved "
                "state has nowhere to go; load it through the cluster that "
                "stacked the optimizer (Worker / SimulatedCluster.load_state_dict)"
            )
        saved = state["arrays"]
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

    The engine stores all workers' parameters as rows of one ``(K, d)``
    matrix; a stack makes the workers' *optimizers* match that layout without
    changing what any single worker computes (a lone optimizer is the
    ``K = 1`` case):

    * **state is per-row.**  Momentum/velocity/moment buffers are ``(K, d)``
      matrices owned here; optimizer ``k`` *is* row ``k``, so stepping all
      rows, a masked subset or one worker runs the same rule on the same
      memory — the drive modes compose instead of excluding each other.
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
                "a stack needs one optimizer type across all workers; "
                f"got {type(reference).__name__} and {', '.join(mixed)}"
            )
        if type(reference)._update_rows is Optimizer._update_rows:
            raise ConfigurationError(
                f"{type(reference).__name__} defines no update rule; an optimizer "
                "declares _columns, _state_names and one _update_rows"
            )
        # A stepped optimizer's state would be dropped by the rebinding while
        # its step count (Adam's bias correction) kept counting — a quietly
        # wrong trajectory.  Only fresh optimizers become rows.
        stepped = [i for i, optimizer in enumerate(optimizers) if optimizer.step_count]
        if stepped:
            raise ConfigurationError(
                "a stack needs fresh optimizers (their state becomes rows of "
                f"shared (K, d) matrices); optimizers {stepped} have already "
                "stepped — construct new optimizers"
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
