"""Optimizer base class: an optimizer is a configuration with one rule.

All optimizers in this library are stateless with respect to the model object:
they consume flat parameter rows and the matching flat gradient rows.  This
mirrors the paper's ``Optimize(w, B)`` abstraction and lets the same
optimizer drive any model.

Each optimizer's arithmetic is written once, as a rule over ``(A, d)`` rows
(:meth:`Optimizer._update_rows`): parameters, gradients and state are row
blocks, the hyper-parameters are one set of plane-dtype scalars, and every
row keeps its own timestep.  An :class:`Optimizer` holds only its
configuration; a :class:`StackedOptimizer` over it owns the state — one
``(K, d)`` matrix per state name and a ``(K,)`` step-count vector, row ``k``
being worker ``k``'s — because Algorithm 1's workers all run the one
``Optimize(w, B)``.  The cluster's engine builds the one stack over the one
optimizer the cluster was given.  So there is one path to the rule,
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
    """Base class for local optimizers: a configuration and one rule.

    A subclass declares its scalar hyper-parameter attributes
    (:attr:`_scalars`), its state matrices (:attr:`_state_names`) and one
    rule (:meth:`_update_rows`); this base class validates the learning rate.
    An optimizer holds no state: the :class:`StackedOptimizer` that steps it
    owns every row's state and step count.
    """

    #: Scalar hyper-parameter attributes beyond ``learning_rate``; a stack
    #: reads them (and ``learning_rate``) once.
    _scalars: Tuple[str, ...] = ()
    #: Per-row ``(K, d)`` state matrices the rule reads and writes.  May be
    #: narrowed per instance (momentum-free SGD carries none).
    _state_names: Tuple[str, ...] = ()

    def __init__(self, learning_rate: float = 0.01) -> None:
        if not isinstance(learning_rate, Real) or isinstance(learning_rate, bool):
            raise ConfigurationError(f"learning_rate must be a number, got {learning_rate!r}")
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def _update_rows(
        self,
        workspace: "Workspace",
        params: np.ndarray,
        grads: np.ndarray,
        state: Dict[str, np.ndarray],
        scalars: Dict[str, np.generic],
        timesteps: Sequence[int],
    ) -> None:
        """The rule: one in-place update of ``(A, d)`` parameter rows.

        ``state`` holds the rows' ``(A, d)`` blocks of :attr:`_state_names`,
        ``scalars`` the stack's ``learning_rate`` and :attr:`_scalars` as
        plane-dtype numpy scalars, and ``timesteps`` the rows' 1-based step
        numbers; ``workspace`` lends scratch blocks.  Rows are independent:
        row ``k`` must come out the same whichever other rows share the call.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(lr={self.learning_rate})"


class StackedOptimizer:
    """One optimizer over ``K`` rows: owner of every row's state and step count.

    The engine stores all workers' parameters as rows of one ``(K, d)``
    matrix; a stack gives the one optimizer Algorithm 1's workers all run
    that layout without changing what any single worker computes (a lone
    optimizer is the ``K = 1`` case):

    * **state is per-row.**  Momentum/velocity/moment buffers are the
      ``(K, d)`` matrices of :attr:`state`, and worker ``k``'s optimizer
      state *is* their row ``k``, so stepping all rows, a masked subset or
      one worker runs the same rule on the same memory — the drive modes
      compose instead of excluding each other.
    * **one configuration.**  The stack reads the optimizer's learning rate
      and hyper-parameters once, as plane-dtype numpy scalars — the one place
      the rule reads them from, and a dtype that never promotes a float32 row
      (``1.0 - beta1`` rounds in the plane dtype).
    * **step counts are per-row.**  :attr:`step_counts` holds each row's
      count: Adam bias correction follows each row's own count, which is what
      keeps partial participation — rows having stepped different numbers of
      times — correct.

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
        optimizer: Optimizer,
        num_rows: int,
        dimension: int,
        dtype=None,
    ) -> None:
        if num_rows < 1:
            raise ConfigurationError(f"a stack needs at least one row, got {num_rows}")
        if dimension < 0:
            raise ConfigurationError(f"dimension must be non-negative, got {dimension}")
        if type(optimizer)._update_rows is Optimizer._update_rows:
            raise ConfigurationError(
                f"{type(optimizer).__name__} defines no update rule; an optimizer "
                "declares _scalars, _state_names and one _update_rows"
            )
        self.optimizer = optimizer
        self.num_rows = int(num_rows)
        self.dimension = int(dimension)
        # State, hyper-parameters, and scratch all live in the plane's dtype
        # so the update never promotes a float32 (K, d) matrix.
        self.dtype = resolve_dtype(dtype)
        self.workspace = Workspace(self.dimension, self.dtype)
        #: One workspace per row shard; the first is :attr:`workspace`.
        self._workspaces: List[Workspace] = [self.workspace]
        self._scalars: Dict[str, np.generic] = {
            name: self.dtype.type(getattr(optimizer, name))
            for name in ("learning_rate",) + optimizer._scalars
        }
        #: The ``(K, d)`` state matrices by name; row ``k`` is worker ``k``'s.
        self.state: Dict[str, np.ndarray] = {
            name: np.zeros((self.num_rows, self.dimension), dtype=self.dtype)
            for name in optimizer._state_names
        }
        #: How many times each row has stepped.
        self.step_counts = np.zeros(self.num_rows, dtype=np.int64)

    def _select(self, rows) -> np.ndarray:
        """``rows`` as an index array of distinct rows in ``[0, K)``.

        A repeated id would step a row's state once and its count twice (and,
        straddling two blocks, make the result depend on the block size); a
        negative one pairs row ``K + id``'s step count with another row's
        state.  Both are refused, like an id past the end.
        """
        ids = np.asarray(rows)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ShapeError(
                f"step_rows expects rows as a 1-D integer index array, got {rows!r}"
            )
        listed = ids.tolist()
        workers = range(self.num_rows)
        if len(set(listed)) != len(listed) or any(k not in workers for k in listed):
            offending = sorted(
                {k for k in listed if k not in workers or listed.count(k) > 1}
            )
            raise ShapeError(
                f"step_rows expects rows as unique worker ids in [0, {self.num_rows}); "
                f"out of range or repeated: {offending}"
            )
        return ids

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
        stepping = slice(None) if rows is None else self._select(rows)
        counts = self.step_counts[stepping]
        expected = (counts.size, self.dimension)
        if params.shape != expected or grads.shape != expected:
            raise ShapeError(
                f"step_rows expects params/grads of shape {expected}, got "
                f"{params.shape} and {grads.shape}"
            )
        timesteps = (counts + 1).tolist()
        step = (params, grads, None if rows is None else stepping, timesteps)
        block = max(1, ROW_BLOCK_ELEMENTS // max(1, self.dimension))
        shards = row_shards(counts.size, self.dimension)
        if shards == 1:
            self._step_range(self.workspace, 0, counts.size, block, *step)
        else:
            while len(self._workspaces) < shards:
                self._workspaces.append(Workspace(self.dimension, self.dtype))
            shard_args = [
                (workspace, start, stop, block, *step)
                for workspace, (start, stop) in zip(
                    self._workspaces, shard_bounds(counts.size, shards)
                )
            ]
            run_shards(self._step_range, shard_args)
        self.step_counts[stepping] += 1
        return params

    def _step_range(
        self, workspace, start, stop, block, params, grads, rows, timesteps
    ) -> None:
        """The rule over rows ``[start, stop)`` of one step, ``block`` rows at a time."""
        rule = self.optimizer._update_rows
        for low in range(start, stop, block):
            cut = slice(low, min(low + block, stop))
            if rows is None:
                state = {name: matrix[cut] for name, matrix in self.state.items()}
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
                    for name, matrix in self.state.items()
                }
            rule(workspace, params[cut], grads[cut], state, self._scalars, timesteps[cut])
            if rows is not None:
                for name, matrix in self.state.items():
                    matrix[ids] = state[name]

    def __repr__(self) -> str:
        return (
            f"StackedOptimizer({type(self.optimizer).__name__}, "
            f"K={self.num_rows}, d={self.dimension})"
        )


def check_beta(value: float, name: str) -> float:
    """Validate an exponential-decay coefficient in [0, 1)."""
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1), got {value}")
    return value
