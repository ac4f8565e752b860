"""Batched K-worker compute kernels: one forward/backward for the whole cluster.

The simulator stores all ``K`` worker models as rows of one contiguous
``(K, d)`` parameter matrix (see :mod:`repro.nn.plane` and
:class:`~repro.distributed.cluster.SimulatedCluster`).  Computing per worker
would mean ``K`` Python-level forward and backward passes over small
matrices, which is exactly where the paper's large ``K`` sweeps spend their
time.  This module exploits the storage layout on the compute side:

* :class:`BatchedPlane` carves each layer array's ``K`` per-worker tensors
  out of the cluster matrices as **strided views** — for a ``Dense`` kernel
  the column block ``matrix[:, o:o+in*out]`` reshaped to ``(K, in, out)``.
  No parameter is copied; mutating a view mutates the worker models.
* Per-layer **kernels** (:class:`BatchedDense`, :class:`BatchedConv2D`, …)
  advance all workers at once: ``Dense`` is a single stacked-GEMM
  (``(K, B, in) @ (K, in, out)``, the einsum ``kbi,kio->kbo``), ``Conv2D``
  folds the worker axis into the im2col batch, and every parameter-free
  layer (pooling, ``Flatten``, ``Activation``) is one :class:`FoldedKernel`:
  the single-worker layer itself, applied to the folded ``(K·B, ...)`` tensor.
  ``DenseBlock`` / ``TransitionDown`` are one :class:`CompositeKernel`: the
  layer's own arithmetic over the kernels of its ``sublayers()``.
* :class:`BatchedModel` chains the kernels into ``train_batch`` over stacked
  ``(K, B, ...)`` mini-batches, writing every worker's gradients into the
  ``(K, d)`` gradient matrix in one backward pass.

Per-worker arithmetic is element-for-element the same as the single-worker
layers (same GEMM shapes per worker slice, same reduction extents), so the
stacked pass agrees to tight floating-point tolerance with ``K`` per-worker
passes; the parity suite (``tests/helpers/parity.py``) pins this down per
strategy against a per-worker loop.

RNG-stateful layers are supported through *worker binding*: ``Dropout`` keeps
one private mask stream per worker, so :class:`BatchedDropout` holds every
worker's own layer object and draws each active row's mask from that worker's
stream (via :meth:`~repro.nn.layers.Dropout.sample_mask`, the same helper a
single worker's layer consumes) before one vectorized multiply — the streams replay
exactly.  A :class:`BatchedModel` that contains such layers must therefore be
constructed with ``worker_models``.  Every layer of :mod:`repro.nn.layers` has
a kernel; a ``Layer`` subclass from outside has none (lookup is by exact
type) and :func:`unsupported_layers` lets the engine name it up front.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.backend import row_shards, run_shards, shard_bounds
from repro.exceptions import ShapeError
from repro.nn.functional import im2col, col2im
from repro.nn.layers import (
    Activation,
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    DenseBlock,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    TransitionDown,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.plane import SlotLayout


def _carve(matrix: np.ndarray, entry: SlotLayout) -> np.ndarray:
    """A zero-copy ``(K, *shape)`` view of one layer array across all workers."""
    block = matrix[:, entry.offset : entry.offset + entry.size]
    view = block.reshape((matrix.shape[0],) + tuple(entry.shape))
    # The bounds-overlap check suffices to detect a reshape that copied (a
    # fresh buffer cannot overlap the matrix); np.shares_memory's exact
    # solver can take milliseconds *per slot* on strided scratch views, which
    # made deep models' plane construction seconds-slow.
    if not np.may_share_memory(view, matrix):
        raise ShapeError(
            f"carving slot {entry} produced a copy instead of a view; "
            "the backing matrix must be C-contiguous"
        )
    return view


class BatchedPlane:
    """Strided per-layer views over a cluster's stacked state matrices.

    ``param_matrix``/``grad_matrix`` are ``(K, d)`` and ``buffer_matrix`` is
    ``(K, num_buffers)``; rows are the workers.  For every layer of the
    ``reference`` model (the structural template shared by all workers) the
    plane exposes the layer's parameter, gradient, and buffer arrays as
    ``(K, *shape)`` views, aligned with the layer's ``*_refs()`` order.
    """

    def __init__(
        self,
        reference: Sequential,
        param_matrix: np.ndarray,
        grad_matrix: np.ndarray,
        buffer_matrix: np.ndarray,
    ) -> None:
        plane = reference.plane
        expected = {
            "parameter": (param_matrix, plane.num_parameters),
            "gradient": (grad_matrix, plane.num_parameters),
            "buffer": (buffer_matrix, plane.num_buffers),
        }
        rows = {matrix.shape[0] for matrix, _ in expected.values()}
        if len(rows) != 1:
            raise ShapeError(f"state matrices disagree on the worker count: {sorted(rows)}")
        for kind, (matrix, width) in expected.items():
            if matrix.ndim != 2 or matrix.shape[1] != width:
                raise ShapeError(
                    f"{kind} matrix must have shape (K, {width}), got {matrix.shape}"
                )
        self.num_workers = int(param_matrix.shape[0])
        self.param_matrix = param_matrix
        self.grad_matrix = grad_matrix
        self.buffer_matrix = buffer_matrix

        param_entries = iter(plane.parameter_layout())
        grad_entries = iter(plane.gradient_layout())
        buffer_entries = iter(plane.buffer_layout())
        #: Per layer (in model order): (param views, grad views, buffer views).
        self.layer_views: List[
            Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]
        ] = []
        for layer in reference.layers:
            params = [_carve(param_matrix, next(param_entries)) for _ in layer.parameter_refs()]
            grads = [_carve(grad_matrix, next(grad_entries)) for _ in layer.gradient_refs()]
            buffers = [_carve(buffer_matrix, next(buffer_entries)) for _ in layer.buffer_refs()]
            self.layer_views.append((params, grads, buffers))

    def __repr__(self) -> str:
        return (
            f"BatchedPlane(K={self.num_workers}, d={self.param_matrix.shape[1]}, "
            f"layers={len(self.layer_views)})"
        )


# -- kernels -------------------------------------------------------------------


class BatchedKernel:
    """Batched counterpart of one layer: forward/backward over ``(K, B, ...)``.

    ``params``/``grads``/``buffers`` are the :class:`BatchedPlane` views for
    the layer, in the layer's ``*_refs()`` order.  Kernels cache activations
    exactly like their single-worker counterparts; the per-worker slice of
    every computation matches the layer's own arithmetic.
    """

    #: Whether the kernel needs every worker's own layer object (RNG-stateful
    #: layers); :class:`BatchedModel` then calls :meth:`bind_worker_layers`.
    needs_worker_layers = False

    def __init__(
        self,
        layer: Layer,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        buffers: Sequence[np.ndarray],
    ) -> None:
        self.layer = layer
        #: Index array of the worker rows the current pass covers (``None`` =
        #: all workers); set by :meth:`BatchedModel.forward` on kernels that
        #: declared ``needs_worker_layers``.
        self.active_rows: Optional[np.ndarray] = None

    def bind_worker_layers(self, layers: Sequence[Layer]) -> None:
        """Receive the per-worker layer objects (RNG-stateful kernels only)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class BatchedDense(BatchedKernel):
    """All workers' ``Dense`` layers as one stacked GEMM (``kbi,kio->kbo``)."""

    def __init__(self, layer: Dense, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.activation = layer.activation
        self.weight, self.bias = params
        self.grad_weight, self.grad_bias = grads
        # Hot-path view caches: the plane's storage never moves after engine
        # construction, so the transposed-weight and broadcast-bias views can
        # be built once instead of per step.
        self._weight_T = self.weight.transpose(0, 2, 1)
        self._bias_row = self.bias[:, None, :]
        self._cache_x: Optional[np.ndarray] = None
        self._cache_act: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        pre = np.matmul(x, self.weight)
        pre += self._bias_row  # fresh matmul output: in-place add is safe
        out = self.activation.forward(pre)
        if training:
            self._cache_x = x
            self._cache_act = pre if self.activation.cache_input else out
        return out

    def backward(self, grad_output: np.ndarray, input_gradient: bool = True):
        grad_pre = self.activation.gradient(grad_output, self._cache_act)
        np.matmul(self._cache_x.transpose(0, 2, 1), grad_pre, out=self.grad_weight)
        grad_pre.sum(axis=1, out=self.grad_bias)
        return np.matmul(grad_pre, self._weight_T) if input_gradient else None


class BatchedConv2D(BatchedKernel):
    """All workers' ``Conv2D`` layers via one K-folded im2col + stacked GEMM.

    The worker axis is folded into the im2col batch (patches are per-sample,
    so folding is exact), then the patch matrix is regrouped per worker and
    multiplied against the stacked ``(K, fan_in, filters)`` kernels.
    """

    def __init__(self, layer: Conv2D, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.activation = layer.activation
        self.kernel_size = layer.kernel_size
        self.padding = layer.padding
        self.filters = layer.filters
        self.weight, self.bias = params
        self.grad_weight, self.grad_bias = grads
        self._weight_T = self.weight.transpose(0, 2, 1)
        self._bias_row = self.bias[:, None, :]
        self._cache_columns: Optional[np.ndarray] = None
        self._cache_folded_shape: Optional[Tuple[int, int, int, int]] = None
        self._cache_out_hw: Optional[Tuple[int, int]] = None
        self._cache_act: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        num_workers, batch = x.shape[0], x.shape[1]
        folded = x.reshape((num_workers * batch,) + x.shape[2:])
        columns, (out_h, out_w) = im2col(
            folded, self.kernel_size, self.kernel_size, 1, self.padding
        )
        fan_in = columns.shape[1]
        stacked = columns.reshape(num_workers, batch * out_h * out_w, fan_in)
        pre = np.matmul(stacked, self.weight)
        pre += self._bias_row  # fresh matmul output: in-place add is safe
        pre = pre.reshape(num_workers, batch, out_h, out_w, self.filters)
        out = self.activation.forward(pre)
        if training:
            self._cache_columns = stacked
            self._cache_folded_shape = folded.shape
            self._cache_out_hw = (out_h, out_w)
            self._cache_act = pre if self.activation.cache_input else out
        return out

    def backward(self, grad_output: np.ndarray, input_gradient: bool = True):
        grad_pre = self.activation.gradient(grad_output, self._cache_act)
        num_workers, batch = grad_pre.shape[0], grad_pre.shape[1]
        out_h, out_w = self._cache_out_hw
        grad_matrix = grad_pre.reshape(num_workers, batch * out_h * out_w, self.filters)
        np.matmul(
            self._cache_columns.transpose(0, 2, 1), grad_matrix, out=self.grad_weight
        )
        grad_matrix.sum(axis=1, out=self.grad_bias)
        if not input_gradient:
            return None
        grad_columns = np.matmul(grad_matrix, self._weight_T)
        folded = col2im(
            grad_columns.reshape(num_workers * batch * out_h * out_w, -1),
            self._cache_folded_shape,
            self.kernel_size,
            self.kernel_size,
            1,
            self.padding,
        )
        return folded.reshape((num_workers, batch) + self._cache_folded_shape[1:])


class FoldedKernel(BatchedKernel):
    """A parameter-free layer applied to the ``(K·B, ...)`` fold of the stack.

    Pooling, ``Flatten`` and ``Activation`` treat every sample on its own, so
    folding the worker axis into the sample batch is exact and the layer
    *is* the kernel: a private ``layer.fresh()`` (its own caches, never
    a worker's) runs on the reshaped tensor.
    """

    def __init__(self, layer: Layer, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self._folded = layer.fresh()
        self._folded.build(layer.input_shape, None)

    def _apply(self, method, x: np.ndarray, *args) -> np.ndarray:
        out = method(x.reshape((-1,) + x.shape[2:]), *args)
        return out.reshape(x.shape[:2] + out.shape[1:])

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self._apply(self._folded.forward, x, training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._apply(self._folded.backward, grad_output)


class BatchedDropout(BatchedKernel):
    """Per-worker inverted dropout replaying each worker's private RNG stream.

    Dropout is RNG-stateful per worker, so the kernel holds every worker's
    own ``Dropout`` layer.  Each training forward draws one ``(B, ...)`` mask
    per *active* row from that worker's stream — the same
    :meth:`~repro.nn.layers.Dropout.sample_mask` call, on the same shape, in
    the same worker order as a loop over the workers, so inactive workers
    consume nothing and every stream replays exactly — then applies the
    stacked masks in one vectorized multiply.  The rate is the one every
    worker shares (the engine refuses workers whose rates differ), read from
    :attr:`layer`; rate zero draws nothing, like the layer's own fast path.
    """

    needs_worker_layers = True

    def __init__(self, layer: Dropout, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.worker_layers: Optional[List[Dropout]] = None
        self._cache_mask: Optional[np.ndarray] = None

    def bind_worker_layers(self, layers: Sequence[Layer]) -> None:
        self.worker_layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.layer.rate == 0.0:
            self._cache_mask = None
            return x
        rows = self.active_rows
        layers = (
            self.worker_layers
            if rows is None
            else [self.worker_layers[int(k)] for k in rows]
        )
        sample_shape = x.shape[1:]
        mask = np.empty_like(x)
        for row, layer in enumerate(layers):
            # Same dtype as the layer's own mask, so a row performs the
            # identical float multiply.
            mask[row] = layer.sample_mask(sample_shape, dtype=x.dtype)
        self._cache_mask = mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_mask is None:
            return grad_output
        return grad_output * self._cache_mask


class BatchedBatchNorm(BatchedKernel):
    """Per-worker batch normalization over the stacked tensor.

    Statistics reduce over every axis except the leading worker axis and the
    trailing channel axis, so each worker normalizes over exactly the same
    extent as its own layer; running statistics update in place on the
    ``(K, C)`` views into the cluster's buffer matrix.
    """

    def __init__(self, layer: BatchNorm, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        self.momentum = layer.momentum
        self.epsilon = layer.epsilon
        self.gamma, self.beta = params
        self.grad_gamma, self.grad_beta = grads
        self.running_mean, self.running_var = buffers
        self._cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @staticmethod
    def _expand(stat: np.ndarray, ndim: int) -> np.ndarray:
        """Reshape a ``(K, C)`` statistic for broadcasting against ``ndim`` axes."""
        return stat.reshape((stat.shape[0],) + (1,) * (ndim - 2) + (stat.shape[1],))

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        axes = tuple(range(1, x.ndim - 1))
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean[...] = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var[...] = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        normalized = (x - self._expand(mean, x.ndim)) * self._expand(inv_std, x.ndim)
        out = self._expand(self.gamma, x.ndim) * normalized + self._expand(
            self.beta, x.ndim
        )
        if training:
            self._cache = (normalized, inv_std)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalized, inv_std = self._cache
        ndim = grad_output.ndim
        axes = tuple(range(1, ndim - 1))
        self.grad_gamma[...] = (grad_output * normalized).sum(axis=axes)
        self.grad_beta[...] = grad_output.sum(axis=axes)
        grad_normalized = grad_output * self._expand(self.gamma, ndim)
        mean_grad = grad_normalized.mean(axis=axes)
        mean_grad_normalized = (grad_normalized * normalized).mean(axis=axes)
        return self._expand(inv_std, ndim) * (
            grad_normalized
            - self._expand(mean_grad, ndim)
            - normalized * self._expand(mean_grad_normalized, ndim)
        )


class CompositeKernel(BatchedKernel):
    """A composite layer computing through its children's kernels.

    ``DenseBlock`` / ``TransitionDown`` are written over their children's
    ``forward`` / ``backward`` and the channel axis is last on both layouts,
    so the layer's own arithmetic runs the stacked pass: the kernel is the
    layer :meth:`~repro.nn.layers.Layer.with_sublayers` one kernel per child,
    each handed its share of the composite's views — consumed in the
    ``*_refs()`` order the plane carved them in.
    """

    def __init__(self, layer: Layer, params, grads, buffers) -> None:
        super().__init__(layer, params, grads, buffers)
        params, grads, buffers = iter(params), iter(grads), iter(buffers)
        self._composite = layer.with_sublayers(
            _kernel_class(child)(
                child,
                [next(params) for _ in child.parameter_refs()],
                [next(grads) for _ in child.gradient_refs()],
                [next(buffers) for _ in child.buffer_refs()],
            )
            for child in layer.sublayers()
        )

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self._composite.forward(x, training)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._composite.backward(grad_output)


#: Exact-type kernel registry: every layer of :mod:`repro.nn.layers`.
KERNELS: Dict[Type[Layer], Type[BatchedKernel]] = {
    Dense: BatchedDense,
    Conv2D: BatchedConv2D,
    BatchNorm: BatchedBatchNorm,
    Dropout: BatchedDropout,
    **dict.fromkeys((MaxPool2D, AvgPool2D, GlobalAvgPool2D, Flatten, Activation), FoldedKernel),
    **dict.fromkeys((DenseBlock, TransitionDown), CompositeKernel),
}


def _kernel_class(layer: Layer) -> Optional[Type[BatchedKernel]]:
    # Exact-type lookup, deliberately NOT an MRO walk: a subclass of a
    # supported layer may override forward/backward, and silently running the
    # parent's kernel for it would break engine parity.  Unknown subclasses
    # must hit the loud construction-time rejection instead.
    return KERNELS.get(type(layer))


def unsupported_layers(model: Sequential) -> List[str]:
    """Names of layers in ``model`` that have no batched kernel (empty = OK)."""
    return [
        f"{layer.name} ({type(layer).__name__})"
        for layer in model.layers
        if _kernel_class(layer) is None
    ]


class BatchedModel:
    """The whole cluster's models as one kernel chain over ``(K, B, ...)``.

    ``reference`` supplies the structure (worker 0's model); the plane
    supplies the per-layer stacked parameter/gradient/buffer views.  One
    :meth:`train_batch` performs every worker's forward pass, loss gradient,
    and backward pass; gradients land in the plane's ``(K, d)`` matrix ready
    for a single batched optimizer update.

    ``worker_models`` (one per plane row, in row order) is required when the
    model contains RNG-stateful layers (``Dropout``): their kernels draw from
    each worker's own layer stream.  ``rows`` — an index array naming which
    workers the plane rows currently hold — lets a masked engine run a
    partial-participation pass: row-aware kernels then consume only those
    workers' streams.
    """

    def __init__(
        self,
        reference: Sequential,
        plane: BatchedPlane,
        worker_models: Optional[Sequence[Sequential]] = None,
    ) -> None:
        missing = unsupported_layers(reference)
        if missing:
            raise ShapeError(
                f"model {reference.name!r} has layers without a batched kernel: "
                f"{', '.join(missing)}"
            )
        self.reference = reference
        self.plane = plane
        self._worker_models = worker_models
        #: ``(start, stop) ->`` the model over those rows of the same plane.
        self._shard_models: Dict[Tuple[int, int], BatchedModel] = {}
        self.kernels: List[BatchedKernel] = []
        self._row_aware: List[BatchedKernel] = []
        for index, (layer, (params, grads, buffers)) in enumerate(
            zip(reference.layers, plane.layer_views)
        ):
            kernel = _kernel_class(layer)(layer, params, grads, buffers)
            if kernel.needs_worker_layers:
                if worker_models is None:
                    raise ShapeError(
                        f"layer {layer.name!r} ({type(layer).__name__}) keeps "
                        "per-worker RNG state; construct BatchedModel with "
                        "worker_models so its kernel can replay each worker's "
                        "stream"
                    )
                kernel.bind_worker_layers(
                    [model.layers[index] for model in worker_models]
                )
                self._row_aware.append(kernel)
            self.kernels.append(kernel)

    @property
    def num_workers(self) -> int:
        return self.plane.num_workers

    def _forward(
        self,
        x: np.ndarray,
        training: bool = False,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        for kernel in self._row_aware:
            kernel.active_rows = rows
        out = np.asarray(x, dtype=self.plane.param_matrix.dtype)
        for kernel in self.kernels:
            out = kernel.forward(out, training)
        return out

    def _backward(self, grad_output: np.ndarray, input_gradient: bool = True):
        """∂L/∂input; ``train_batch`` opts out (see :meth:`Sequential.backward`)."""
        grad = grad_output
        for index, kernel in reversed(list(enumerate(self.kernels))):
            skip = index == 0 and not input_gradient
            if skip and isinstance(kernel, (BatchedDense, BatchedConv2D)):
                return kernel.backward(grad, input_gradient=False)
            grad = kernel.backward(grad)
        return grad

    # A row shard runs the private spellings: a pool thread calls no public
    # method, so every public one is entered and left on the calling thread.
    forward, backward = _forward, _backward

    def _train(self, x, y, rows) -> np.ndarray:
        outputs = self._forward(x, True, rows)
        losses, grad = SoftmaxCrossEntropy.batched_gradient(outputs, y)
        self._backward(grad, input_gradient=False)
        return losses

    def _shard_model(self, start: int, stop: int) -> "BatchedModel":
        if (start, stop) not in self._shard_models:
            plane, cut = self.plane, slice(start, stop)
            rows = (plane.param_matrix[cut], plane.grad_matrix[cut], plane.buffer_matrix[cut])
            self._shard_models[start, stop] = BatchedModel(
                self.reference, BatchedPlane(self.reference, *rows), self._worker_models
            )
        return self._shard_models[start, stop]

    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One stacked forward/backward; returns the per-row losses.

        Gradients are left in the plane's gradient matrix (and, equivalently,
        in every covered worker model's gradient views).  ``rows`` names the
        workers the plane rows hold (``None`` = all workers in order).

        Each row shard (:func:`repro.backend.row_shards`) runs on a cached
        model carved from its rows of the same plane, its ``Dropout`` rows
        mapped to their worker ids; kernels are per-row, so no row can tell.
        The pass a shard must outweigh a hand-off with is one kernel call, so
        the width that decides is the mean parameters per kernel: a deep,
        narrow model is dispatch-bound and runs whole.
        """
        count = self.num_workers
        shards = row_shards(count, -(-self.plane.param_matrix.shape[1] // len(self.kernels)))
        if shards == 1:
            return self._train(x, y, rows)
        ids = np.arange(count) if rows is None else np.asarray(rows)
        shard_args = [
            (self._shard_model(start, stop), x[start:stop], y[start:stop], ids[start:stop])
            for start, stop in shard_bounds(count, shards)
        ]
        return np.concatenate(run_shards(BatchedModel._train, shard_args))

    def __repr__(self) -> str:
        return f"BatchedModel(K={self.num_workers}, layers={len(self.kernels)})"
