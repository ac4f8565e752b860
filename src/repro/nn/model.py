"""The :class:`Sequential` model.

A thin container around an ordered list of layers that adds the two things
the rest of the library needs:

* an inference interface (``forward`` / ``evaluate``), and
* *flat* views of all trainable parameters and their gradients, which is the
  representation the FDA algorithm, the optimizers, and the distributed
  AllReduce all operate on (``w`` in the paper is exactly this vector).

Since the parameter-plane refactor the flat vector is not re-materialized on
demand: :meth:`Sequential.build` moves every layer's parameters, gradients,
and buffers into one contiguous plane-dtype vector each (see
:class:`~repro.nn.plane.ParameterPlane`), and the layer arrays become views
into it.  ``parameters_view()`` / ``gradients_view()`` / ``buffers_view()``
are therefore zero-copy; the historical ``get_*``/``set_*`` API is kept as a
thin copy-in/copy-out compatibility wrapper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelNotBuiltError, ShapeError
from repro.nn.layers import Layer
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.plane import ParameterPlane
from repro.utils.rng import as_rng


class Sequential:
    """An ordered stack of layers: one worker's model, trained by the engine."""

    def __init__(self, layers: Sequence[Layer], name: str = "model") -> None:
        self.name = name
        self.layers: List[Layer] = list(layers)
        self.built = False
        self.input_shape: Optional[Tuple[int, ...]] = None
        self.output_shape: Optional[Tuple[int, ...]] = None
        self._plane: Optional[ParameterPlane] = None

    # -- construction ------------------------------------------------------

    def build(self, input_shape: Sequence[int], seed=0, dtype=None) -> "Sequential":
        """Build every layer for per-sample ``input_shape`` (no batch dim).

        ``dtype`` selects the plane's active dtype (float64 default, float32
        fast mode); initializers always draw in float64 from the same RNG
        stream, so a float32 build starts from the rounded float64 init.
        """
        rng = as_rng(seed)
        shape = tuple(int(dim) for dim in input_shape)
        self.input_shape = shape
        for layer in self.layers:
            shape = layer.build(shape, rng)
        self.output_shape = shape
        # Consolidate all layer arrays into contiguous flat storage; from here
        # on the layers hold views into the plane's vectors.
        self._plane = ParameterPlane(self.layers, dtype=dtype)
        self.built = True
        return self

    def _require_built(self) -> None:
        if not self.built:
            raise ModelNotBuiltError(
                f"model {self.name!r} must be built before use (call .build(input_shape))"
            )

    @property
    def plane(self) -> ParameterPlane:
        """The contiguous flat storage backing this model's arrays."""
        self._require_built()
        return self._plane

    @property
    def dtype(self) -> np.dtype:
        """The plane's active dtype (every layer view computes in it)."""
        self._require_built()
        return self._plane.dtype

    def to_dtype(self, dtype) -> "Sequential":
        """Convert the plane (and thus every layer view) to ``dtype`` in place.

        One cast per flat space; a no-op when the dtype already matches.
        Returns ``self`` for chaining.  External storage the plane was
        rebound onto is detached (see :meth:`ParameterPlane.astype`).
        """
        self._require_built()
        self._plane.astype(dtype)
        return self

    def clone(self) -> "Sequential":
        """Structurally rebuilt copy of the model with the same parameters.

        Instead of ``copy.deepcopy`` (which would also snapshot transient
        activation caches), the clone is assembled from fresh unbuilt layers,
        built, and its flat parameter/gradient/buffer vectors overwritten with
        copies of this model's vectors.  The clone owns its own storage.
        """
        self._require_built()
        duplicate = Sequential([layer.fresh() for layer in self.layers], name=self.name)
        duplicate.build(self.input_shape, seed=0, dtype=self._plane.dtype)
        duplicate._plane.params[...] = self._plane.params
        duplicate._plane.grads[...] = self._plane.grads
        duplicate._plane.buffers[...] = self._plane.buffers
        return duplicate

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a forward pass through every layer."""
        self._require_built()
        out = np.asarray(x, dtype=self._plane.dtype)
        for layer in self.layers:
            out = layer.forward(out, training)
        return out

    def evaluate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        batch_size: int = 256,
    ) -> Tuple[float, float]:
        """Return ``(mean loss, accuracy)`` on a dataset, in inference mode."""
        self._require_built()
        x = np.asarray(x, dtype=self._plane.dtype)
        y = np.asarray(y)
        if x.shape[0] != y.shape[0]:
            raise ShapeError(
                f"x and y must have the same number of samples, got {x.shape[0]} and {y.shape[0]}"
            )
        if x.shape[0] == 0:
            return 0.0, 0.0
        total_loss = 0.0
        correct_weighted = 0.0
        for start in range(0, x.shape[0], batch_size):
            batch_x = x[start : start + batch_size]
            batch_y = y[start : start + batch_size]
            outputs = self.forward(batch_x, training=False)
            total_loss += SoftmaxCrossEntropy.value(outputs, batch_y) * batch_x.shape[0]
            correct_weighted += accuracy(outputs, batch_y) * batch_x.shape[0]
        return total_loss / x.shape[0], correct_weighted / x.shape[0]

    # -- flat parameter views -----------------------------------------------

    def parameter_arrays(self) -> List[np.ndarray]:
        """References to every trainable parameter array, in layer order."""
        self._require_built()
        arrays: List[np.ndarray] = []
        for layer in self.layers:
            arrays.extend(layer.parameters())
        return arrays

    def gradient_arrays(self) -> List[np.ndarray]:
        """References to every gradient array, aligned with :meth:`parameter_arrays`."""
        self._require_built()
        arrays: List[np.ndarray] = []
        for layer in self.layers:
            arrays.extend(layer.gradients())
        return arrays

    @property
    def num_parameters(self) -> int:
        """Total number of trainable scalars (``d`` in the paper)."""
        self._require_built()
        return self._plane.num_parameters

    @property
    def num_buffers(self) -> int:
        """Total number of non-trainable scalars."""
        self._require_built()
        return self._plane.num_buffers

    # -- zero-copy views -----------------------------------------------------

    def parameters_view(self) -> np.ndarray:
        """The live flat parameter vector (zero-copy).

        Mutating the returned array mutates the model.  The view stays valid
        across :meth:`set_parameters` (which writes into the same storage) and
        is invalidated only by :meth:`rebind_parameter_storage`.
        """
        self._require_built()
        return self._plane.params

    def gradients_view(self) -> np.ndarray:
        """The live flat gradient vector, aligned with :meth:`parameters_view`."""
        self._require_built()
        return self._plane.grads

    def buffers_view(self) -> np.ndarray:
        """The live flat buffer vector (batch-norm running statistics)."""
        self._require_built()
        return self._plane.buffers

    def rebind_parameter_storage(self, storage: np.ndarray) -> None:
        """Move parameter storage onto caller-owned ``storage`` (values kept).

        Used by :class:`~repro.distributed.cluster.SimulatedCluster` to stack
        all workers' parameters into one ``(K, d)`` matrix.  Views previously
        returned by :meth:`parameters_view` no longer alias the model.
        """
        self._require_built()
        self._plane.rebind_parameters(storage)

    def rebind_gradient_storage(self, storage: np.ndarray) -> None:
        """Move gradient storage onto caller-owned ``storage`` (values kept).

        Used by the engine to stack all workers' gradients
        into one ``(K, d)`` matrix so a single batched backward pass writes
        every worker's gradients and a single ``step_rows`` consumes them.
        """
        self._require_built()
        self._plane.rebind_gradients(storage)

    def rebind_buffer_storage(self, storage: np.ndarray) -> None:
        """Move buffer storage onto caller-owned ``storage`` (values kept)."""
        self._require_built()
        self._plane.rebind_buffers(storage)

    # -- copy-in / copy-out compatibility API --------------------------------

    def get_parameters(self) -> np.ndarray:
        """Copy of all trainable parameters flattened into one vector."""
        self._require_built()
        return self._plane.params.copy()

    def set_parameters(self, flat: np.ndarray) -> None:
        """Write a flat vector into the parameter storage (views stay valid)."""
        self._require_built()
        flat = np.asarray(flat, dtype=self._plane.dtype)
        expected = self._plane.num_parameters
        if flat.shape != (expected,):
            raise ShapeError(
                f"expected a flat parameter vector of shape ({expected},), got {flat.shape}"
            )
        self._plane.params[...] = flat

    def get_buffers(self) -> np.ndarray:
        """Copy of all non-trainable buffers flattened into one vector."""
        self._require_built()
        return self._plane.buffers.copy()

    def set_buffers(self, flat: np.ndarray) -> None:
        """Write a flat vector into the buffer storage (views stay valid)."""
        self._require_built()
        flat = np.asarray(flat, dtype=self._plane.dtype)
        expected = self._plane.num_buffers
        if flat.shape != (expected,):
            raise ShapeError(
                f"expected a flat buffer vector of shape ({expected},), got {flat.shape}"
            )
        self._plane.buffers[...] = flat

    # -- resumable state -----------------------------------------------------

    def rng_states(self) -> Dict[str, dict]:
        """Every RNG-stateful layer's stream state (Dropout masks), by layer index.

        Parameters and buffers live in the plane vectors; these streams are
        the rest of what a model carries from one step to the next.
        """
        return {
            str(index): layer.rng.bit_generator.state
            for index, layer in enumerate(self.layers)
            if layer.rng is not None
        }

    def load_rng_states(self, states: Dict[str, dict]) -> None:
        """Rewind the layer streams to states taken by :meth:`rng_states`."""
        for index, state in states.items():
            self.layers[int(index)].rng.bit_generator.state = state

    # -- introspection -------------------------------------------------------

    def __repr__(self) -> str:
        status = f"{len(self.layers)} layers"
        if self.built:
            status += f", {self.num_parameters} parameters"
        return f"Sequential(name={self.name!r}, {status})"
