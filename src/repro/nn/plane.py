"""The parameter plane: contiguous flat storage behind a model's arrays.

The FDA algorithm, the optimizers, and the cluster collectives all operate on
the *flat* parameter vector ``w``.  Historically every layer owned its own
parameter arrays and the flat vector was re-materialized on demand
(``np.concatenate`` on read, a per-array scatter loop on write), which put
four or more full-vector copies on every worker step.

:class:`ParameterPlane` inverts that ownership: the model owns one contiguous
flat vector per kind of state (parameters, gradients, buffers) and each
layer's arrays become reshaped *views* into it.  Reading the flat vector is
then zero-copy, writing it is a single ``memcpy``, and a cluster can go one
step further and rebind every worker's storage onto the rows of a single
``(K, d)`` matrix so collectives become row-wise matrix operations.

Layers participate by exposing *refs* — ``(holder, attribute)`` pairs aligned
one-to-one with their ``parameters()`` / ``gradients()`` / ``buffers()``
lists — which the plane uses to re-point the attributes at its views.

The plane owns the *active dtype* (see :mod:`repro.backend`): float64 is the
bit-exact reference, float32 the bandwidth-halving fast mode.  Layer
initializers may produce float64 arrays regardless; the plane casts exactly
once, when the initial values are copied into its flat storage, so every
downstream view computes in the plane's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.backend import resolve_dtype
from repro.exceptions import ShapeError

#: A reference to an array-valued attribute: ``getattr(holder, attribute)``.
ArrayRef = Tuple[object, str]


@dataclass(frozen=True)
class SlotLayout:
    """Public description of where one layer array lives in a flat vector.

    ``offset``/``size`` address the array inside the flat storage; ``shape``
    is its logical layer shape.  The engine uses these to
    carve ``(K, *shape)`` views out of a cluster's ``(K, d)`` matrices (see
    :class:`repro.nn.batched.BatchedPlane`).
    """

    offset: int
    size: int
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class _Slot:
    """Where one layer array lives inside a flat vector."""

    holder: object
    attribute: str
    offset: int
    size: int
    shape: Tuple[int, ...]


class _FlatSpace:
    """One contiguous flat vector plus the slots viewing into it."""

    def __init__(self, refs: Sequence[ArrayRef], dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        self.slots: List[_Slot] = []
        offset = 0
        for holder, attribute in refs:
            array = getattr(holder, attribute)
            self.slots.append(_Slot(holder, attribute, offset, array.size, array.shape))
            offset += array.size
        self.flat = np.empty(offset, dtype=self.dtype)
        for slot in self.slots:
            # The one sanctioned cast: initializer output (any float dtype)
            # lands in the plane's dtype here and never again.
            self.flat[slot.offset : slot.offset + slot.size] = getattr(
                slot.holder, slot.attribute
            ).reshape(-1)
        self._repoint()

    @property
    def size(self) -> int:
        return self.flat.size

    def _repoint(self) -> None:
        """Re-point every slot attribute at its view into the current storage."""
        for slot in self.slots:
            view = self.flat[slot.offset : slot.offset + slot.size].reshape(slot.shape)
            setattr(slot.holder, slot.attribute, view)

    def rebind(self, storage: np.ndarray) -> None:
        """Move the space onto externally owned ``storage`` (e.g. a matrix row).

        The current values are copied into ``storage`` and every layer
        attribute is re-pointed; views obtained from the previous storage are
        no longer connected to the model.
        """
        if not isinstance(storage, np.ndarray) or storage.dtype != self.dtype:
            raise ShapeError(f"flat storage must be a {self.dtype} ndarray")
        if storage.shape != (self.size,):
            raise ShapeError(
                f"flat storage must have shape ({self.size},), got {storage.shape}"
            )
        if not storage.flags.c_contiguous:
            raise ShapeError("flat storage must be C-contiguous to support zero-copy views")
        storage[...] = self.flat
        self.flat = storage
        self._repoint()

    def astype(self, dtype) -> None:
        """Re-allocate the flat storage in ``dtype`` (one cast, views re-pointed).

        Used by dtype conversion at cluster construction; storage previously
        handed out via :meth:`rebind` is detached, exactly as a rebind would.
        """
        dtype = resolve_dtype(dtype)
        if dtype == self.dtype:
            return
        self.dtype = dtype
        self.flat = self.flat.astype(dtype)
        self._repoint()


class ParameterPlane:
    """Contiguous flat storage for a model's parameters, gradients, and buffers.

    The plane is created once per :meth:`Sequential.build` and owns three flat
    vectors in its active ``dtype`` (float64 unless told otherwise; see
    :mod:`repro.backend`).  ``params``/``grads``/``buffers`` are the live
    vectors — mutating them mutates the layers (and vice versa, because the
    layer arrays are views).  ``rebind_*`` moves a vector onto caller-owned
    storage, which is how
    :class:`~repro.distributed.cluster.SimulatedCluster` stacks all workers
    into one ``(K, d)`` matrix.
    """

    def __init__(self, layers: Iterable[object], dtype=None) -> None:
        self.dtype = resolve_dtype(dtype)
        layers = list(layers)
        # Sizes advertised through the classic list API, captured before any
        # re-pointing: a layer that implements parameters() but forgets the
        # matching *_refs() hook must fail loudly here, not train silently
        # with its weights excluded from the flat vector.
        expected = {
            "parameter": sum(a.size for layer in layers for a in layer.parameters()),
            "gradient": sum(a.size for layer in layers for a in layer.gradients()),
            "buffer": sum(a.size for layer in layers for a in layer.buffers()),
        }
        param_refs: List[ArrayRef] = []
        grad_refs: List[ArrayRef] = []
        buffer_refs: List[ArrayRef] = []
        for layer in layers:
            param_refs.extend(layer.parameter_refs())
            grad_refs.extend(layer.gradient_refs())
            buffer_refs.extend(layer.buffer_refs())
        self._params = _FlatSpace(param_refs, dtype=self.dtype)
        self._grads = _FlatSpace(grad_refs, dtype=self.dtype)
        self._buffers = _FlatSpace(buffer_refs, dtype=self.dtype)
        for kind, space in (
            ("parameter", self._params),
            ("gradient", self._grads),
            ("buffer", self._buffers),
        ):
            if space.size != expected[kind]:
                raise ShapeError(
                    f"{kind} refs cover {space.size} scalars but the layers' "
                    f"{kind} arrays hold {expected[kind]}; some layer is missing "
                    f"its {kind}_refs() implementation"
                )
        if self._grads.size != self._params.size:
            raise ShapeError(
                f"gradient refs cover {self._grads.size} scalars but parameter refs "
                f"cover {self._params.size}; the two layouts must be aligned"
            )

    # -- live flat vectors ---------------------------------------------------

    @property
    def params(self) -> np.ndarray:
        """The flat parameter vector (a live view, never a copy)."""
        return self._params.flat

    @property
    def grads(self) -> np.ndarray:
        """The flat gradient vector, aligned element-for-element with ``params``."""
        return self._grads.flat

    @property
    def buffers(self) -> np.ndarray:
        """The flat non-trainable buffer vector (batch-norm running stats)."""
        return self._buffers.flat

    @property
    def num_parameters(self) -> int:
        return self._params.size

    @property
    def num_buffers(self) -> int:
        return self._buffers.size

    # -- layout introspection --------------------------------------------------

    @staticmethod
    def _layout(space: _FlatSpace) -> List[SlotLayout]:
        return [SlotLayout(s.offset, s.size, s.shape) for s in space.slots]

    def parameter_layout(self) -> List[SlotLayout]:
        """One :class:`SlotLayout` per parameter array, in storage order.

        The order matches the concatenation of every layer's
        ``parameter_refs()``, which is also the order of ``parameters()``.
        """
        return self._layout(self._params)

    def gradient_layout(self) -> List[SlotLayout]:
        """One :class:`SlotLayout` per gradient array (aligned with parameters)."""
        return self._layout(self._grads)

    def buffer_layout(self) -> List[SlotLayout]:
        """One :class:`SlotLayout` per non-trainable buffer array."""
        return self._layout(self._buffers)

    # -- storage rebinding -----------------------------------------------------

    def rebind_parameters(self, storage: np.ndarray) -> None:
        """Move parameter storage onto ``storage`` (values are preserved)."""
        self._params.rebind(storage)

    def rebind_gradients(self, storage: np.ndarray) -> None:
        """Move gradient storage onto ``storage`` (values are preserved)."""
        self._grads.rebind(storage)

    def rebind_buffers(self, storage: np.ndarray) -> None:
        """Move buffer storage onto ``storage`` (values are preserved)."""
        self._buffers.rebind(storage)

    def astype(self, dtype) -> None:
        """Convert all three flat spaces to ``dtype`` (no-op if unchanged).

        One cast per space; layer views are re-pointed at the new storage.
        Previously rebound external storage (e.g. cluster matrix rows) is
        detached — callers converting a live cluster member must rebind
        afterwards, which is exactly what cluster construction does.
        """
        dtype = resolve_dtype(dtype)
        if dtype == self.dtype:
            return
        for space in (self._params, self._grads, self._buffers):
            space.astype(dtype)
        self.dtype = dtype

    def __repr__(self) -> str:
        return (
            f"ParameterPlane(d={self._params.size}, buffers={self._buffers.size}, "
            f"slots={len(self._params.slots)})"
        )
