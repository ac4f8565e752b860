"""Vectorized compression kernels operating row-wise on ``(K, d)`` matrices.

Every kernel answers the same question — *what does one worker actually put on
the wire when it uploads a ``d``-dimensional update?* — and answers it for all
``K`` workers in one call: :meth:`Compressor.compress_rows` consumes a whole
``(K, d)`` matrix (typically the cluster's drift matrix) and returns a
:class:`RowPayloads` describing every row's lossy payload plus its true
transmitted size.  One call per collective is what lets the cluster-level
synchronization path (:mod:`repro.compression.state`) stay a handful of matrix
passes, and what lets the communication fabric charge *compressed* bytes per
link instead of the dense ``4·d``.  Inside the call the sparsifying kernels
walk the matrix one worker row at a time (:func:`_select_rows`): rows are
selected independently, and a row with its scratch stays cache-resident where
one ``argpartition`` over all rows materialised ``(K, d)`` score and int64
index matrices on every sync.  Independent rows also split into row shards,
one per core (:func:`repro.backend.map_row_shards`): the magnitude kernels
select, and :meth:`SparseRowPayloads.fold_residual` zeroes, shard by shard.
:class:`RandomKCompressor` selects whole — its one generator draws the rows
in order.

Kernels provided (Section 2 of the FDA paper positions all of these as
orthogonal to *when* models are exchanged):

* :class:`QuantizationCompressor` — uniform symmetric quantization, one scale
  per row; the payload is ``bits``-bit levels plus the scale.
* :class:`TopKCompressor` — classic magnitude sparsification; the payload is
  ``k`` (index, value) pairs per row, degrading gracefully to a dense vector
  when ``k ≥ d``.
* :class:`RandomKCompressor` — random sparsification with a shared seed, so
  only the ``k`` values (plus the seed) travel.
* :class:`SignCompressor` — sign + per-row ℓ1 scale (1-bit SGD style).
* :class:`LayerwiseTopKCompressor` — top-k applied *per layer slot* of a
  :class:`~repro.nn.plane.ParameterPlane` layout (L-FGADMM-style layer-wise
  communication), so every layer keeps a proportional budget.

Doctest — the row-wise top-k kernel keeps each row's largest-magnitude
entries and reports the sparse payload size (``k`` index/value pairs):

>>> import numpy as np
>>> compressor = TopKCompressor(fraction=0.5)
>>> matrix = np.array([[1.0, -3.0, 0.5, 2.0], [0.0, 0.1, -0.2, 0.05]])
>>> payloads = compressor.compress_rows(matrix)
>>> payloads.reconstruct()
array([[ 0. , -3. ,  0. ,  2. ],
       [ 0. ,  0.1, -0.2,  0. ]])
>>> compressor.transmitted_elements(4)  # 2 kept entries x (index + value)
4
"""

from __future__ import annotations

import functools
import sys
from typing import List, Optional, Sequence

import numpy as np

from repro.backend import map_row_shards
from repro.exceptions import ConfigurationError, ShapeError


class RowPayloads:
    """The compressed form of a batch of row vectors.

    Concrete subclasses hold either a dense reconstruction
    (:class:`DenseRowPayloads`) or a sparse index/value encoding
    (:class:`SparseRowPayloads`).  All expose:

    * :meth:`reconstruct` — the lossy ``(R, d)`` reconstruction;
    * :meth:`mean` — the average of the reconstructions (the quantity a
      compressed AllReduce produces), computed without materializing a dense
      ``(R, d)`` matrix on the sparse path;
    * :meth:`fold_residual` — turn the *input* matrix into the error-feedback
      residual ``input − reconstruction`` in place.
    """

    #: Float32-equivalent elements each row costs on the wire.
    elements_per_row: int

    def reconstruct(self) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> np.ndarray:
        raise NotImplementedError

    def fold_residual(self, work: np.ndarray) -> None:
        raise NotImplementedError


class DenseRowPayloads(RowPayloads):
    """Rows whose lossy form is still dense (quantization, sign+norm)."""

    def __init__(self, dense: np.ndarray, elements_per_row: int) -> None:
        self.dense = dense
        self.elements_per_row = int(elements_per_row)

    def reconstruct(self) -> np.ndarray:
        return self.dense

    def mean(self) -> np.ndarray:
        if self.dense.shape[0] == 0:
            # An empty participation round contributes nothing: the averaged
            # update is a zero delta, not a 0/0 NaN vector.
            return np.zeros(self.dense.shape[1], dtype=self.dense.dtype)
        return self.dense.mean(axis=0)

    def fold_residual(self, work: np.ndarray) -> None:
        np.subtract(work, self.dense, out=work)


class SparseRowPayloads(RowPayloads):
    """Rows encoded as (index, value) pairs with *exact* kept values.

    The invariant every sparsifying kernel upholds: ``values`` are the
    untouched input entries at ``indices`` (no re-quantization), so the
    error-feedback residual is simply the input with the kept entries zeroed
    — which :meth:`fold_residual` exploits to avoid a dense reconstruction.
    """

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        dimension: int,
        elements_per_row: int,
    ) -> None:
        if indices.shape != values.shape:
            raise ShapeError(
                f"indices {indices.shape} and values {values.shape} must align"
            )
        self.indices = indices
        self.values = values
        self.dimension = int(dimension)
        self.elements_per_row = int(elements_per_row)

    def reconstruct(self) -> np.ndarray:
        dense = np.zeros((self.indices.shape[0], self.dimension), dtype=self.values.dtype)
        np.put_along_axis(dense, self.indices, self.values, axis=1)
        return dense

    def mean(self) -> np.ndarray:
        # One flat scatter-add instead of a dense (R, d) reconstruction: the
        # average only needs Σ values per coordinate, and R·k ≪ R·d.
        accumulator = np.zeros(self.dimension, dtype=self.values.dtype)
        if self.indices.shape[0] == 0:
            # Empty participation round: a zero delta, not a 0/0 NaN vector.
            return accumulator
        np.add.at(accumulator, self.indices.ravel(), self.values.ravel())
        accumulator /= self.indices.shape[0]
        return accumulator

    def fold_residual(self, work: np.ndarray) -> None:
        map_row_shards(
            lambda rows, kept: np.put_along_axis(rows, kept, 0.0, axis=1), work, self.indices
        )


class Compressor:
    """Base class: lossy row-wise compression with true size accounting.

    Subclasses implement :meth:`compress_rows` (the vectorized kernel) and
    :meth:`transmitted_elements` (float32-equivalent elements one row of
    length ``dimension`` puts on the wire — the number the fabric multiplies
    by 4 to charge payload bytes).
    """

    name = "compressor"

    def compress_rows(self, matrix: np.ndarray) -> RowPayloads:
        """Compress every row of a ``(R, d)`` matrix."""
        raise NotImplementedError

    def transmitted_elements(self, dimension: int) -> int:
        """Float32-equivalent elements transmitted per row of length ``dimension``."""
        raise NotImplementedError

    def bind_layout(self, layout: Sequence) -> None:
        """Attach a :class:`~repro.nn.plane.SlotLayout` list (layer-wise kernels)."""

    def state_dict(self) -> dict:
        """What the kernel carries between calls (nothing, unless it draws)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Resume from :meth:`state_dict`."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _as_matrix(matrix: np.ndarray) -> np.ndarray:
    # Dtype-preserving for the two plane dtypes: a float32 (K, d) drift matrix
    # is compressed as-is (no silent full-matrix promotion copy); anything
    # else is normalized to the float64 reference dtype.
    matrix = np.asarray(matrix)
    if matrix.dtype not in (np.float32, np.float64):
        matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeError(f"compress_rows expects a (R, d) matrix, got shape {matrix.shape}")
    return matrix


class QuantizationCompressor(Compressor):
    """Uniform symmetric quantization to ``bits``-bit signed codes.

    Each row is scaled to its own max magnitude and rounded to the nearest of
    ``levels = 2**(bits - 1) - 1`` representable magnitudes per sign; all-zero
    rows stay exactly zero.  The payload per row is ``bits``-bit codes plus
    one float32 scale.  Quantization is idempotent: the row maximum is exactly
    representable, so re-compressing a reconstruction reproduces it
    bit-for-bit.

    >>> q = QuantizationCompressor(bits=3)
    >>> q.levels
    3
    >>> row = np.array([[0.0, 1.5, -1.0, 0.4]])
    >>> q.compress_rows(row).reconstruct()
    array([[ 0. ,  1.5, -1. ,  0.5]])
    """

    name = "quantization"

    def __init__(self, bits: int = 8) -> None:
        if not 2 <= int(bits) <= 32:
            raise ConfigurationError(f"bits must lie in [2, 32], got {bits}")
        self.bits = int(bits)
        self.levels = 2 ** (int(bits) - 1) - 1

    def compress_rows(self, matrix: np.ndarray) -> RowPayloads:
        matrix = _as_matrix(matrix)
        if matrix.shape[1] == 0:
            return DenseRowPayloads(matrix.copy(), 0)
        scales = np.max(np.abs(matrix), axis=1, keepdims=True)
        safe = np.where(scales > 0.0, scales, 1.0)
        # Association matters for idempotence: codes/levels puts the row
        # maximum at exactly 1.0, so the reconstruction's scale equals the
        # input's and a second compression round-trips bit-for-bit.
        quantized = np.round(matrix / safe * self.levels)
        quantized /= self.levels
        quantized *= safe
        quantized[np.broadcast_to(scales == 0.0, quantized.shape)] = 0.0
        return DenseRowPayloads(quantized, self.transmitted_elements(matrix.shape[1]))

    def transmitted_elements(self, dimension: int) -> int:
        if dimension == 0:
            return 0
        return int(np.ceil(dimension * self.bits / 32.0)) + 1  # plus the scale

    def __repr__(self) -> str:
        return f"QuantizationCompressor(bits={self.bits}, levels={self.levels})"


def _keep_count(dimension: int, fraction: float) -> int:
    return min(int(dimension), max(1, int(round(dimension * fraction))))


def _score_by_magnitude(row: np.ndarray, scores: np.ndarray) -> None:
    """Write ``−|row|`` into the float32 ``scores`` (largest magnitude, lowest score)."""
    np.abs(row, out=scores, casting="unsafe")
    np.negative(scores, out=scores)


_HIGH_WORD = int(sys.byteorder == "little")  # which 32-bit half of a native uint64
_INF_BITS = 0x7F800000  # float32 +inf; only a NaN's magnitude bits are larger


def _select_rows(matrix, indices, values, slots, score_row, score_dtype, kth_shift, ramp):
    """Fill the rows of a sparse payload's ``indices`` / ``values``, one worker row at a time.

    ``slots`` lists ``(offset, size, keep)`` slices of a row; each keeps ``keep``
    of its ``size`` coordinates (all, in order, when ``keep ≥ size``).  Only the
    *choice* sees a score: ``values`` are the exact input entries in the matrix's
    dtype.  Every scratch is allocated here (no kernel holds an array between
    calls) and is one row long, so it fits a per-core cache; a call sees only
    its rows, so the magnitude kernels run one call per row shard
    (:func:`repro.backend.map_row_shards`) and the shard count never shows.
    The shards share one read-only ``ramp``, ``arange(d)`` as uint32; without
    one (random-k) every slot takes the reference path.

    **Magnitudes are selected by value, not by arg.**  Each coordinate becomes
    one uint64 key — high word the IEEE bits of the float32 ``|x|``
    (non-negative floats order like their bit patterns), low word the
    coordinate — and ``keys.partition(size − keep − 1)`` leaves the kept
    coordinates in the last ``keep`` low words.  Keys are distinct, so the
    partition never meets the block of equal zeros that mostly-zero drifts put
    at the cut, and 64-bit integers take numpy's SIMD quick-select where
    ``argpartition`` compares floats through an int64 index vector.  Position
    ``size − keep − 1`` holds the exact (keep+1)-th largest key: when its
    magnitude equals the smallest kept one (a tie at the cut, where the choice
    is introselect's) or a kept magnitude is a NaN (the reference ranks those
    last, the keys first), the slot falls through to the reference path, so
    the kept *set* is the reference's on every row.  Only the order inside a
    row differs, and nothing reads it (see :class:`SparseRowPayloads`).

    **The reference path** — the only one for :class:`RandomKCompressor`, whose float64
    draws do not fit a key — fills the ``score_dtype`` scratch (allocated at a call's
    first fall-through; the packed path never reads it) with ``score_row(row, scores)``
    and keeps the *lowest* scores by ``argpartition`` at ``kth = keep − 1 + kth_shift``
    (random-k's frozen trajectories cut at ``keep``).  Magnitudes are scored negated so
    the cut is from the front: introselect degenerates when its pivot lands inside the
    zeros, where ``size − keep`` sits on sparse drifts.
    """
    dimension = matrix.shape[1]
    scores = None
    packed = ramp is not None and any(keep < size for _, size, keep in slots)
    if packed:
        keys = np.empty(dimension, dtype=np.uint64)
        words = keys.view(np.uint32).reshape(dimension, 2)
        magnitudes, coordinates = words[:, _HIGH_WORD], words[:, 1 - _HIGH_WORD]
    for row, row_indices, row_values in zip(matrix, indices, values):
        scored = False
        if packed:
            np.abs(row, out=magnitudes.view(np.float32), casting="unsafe")
            coordinates[:] = ramp
        start = 0
        for offset, size, keep in slots:
            stop, cut, end = start + keep, offset + size - keep, offset + size
            clean = False
            if packed and keep < size:
                keys[offset:end].partition(size - keep - 1)
                kept = magnitudes[cut:end]
                clean = magnitudes[cut - 1] < kept.min() and kept.max() <= _INF_BITS
            if keep >= size:
                row_indices[start:stop] = np.arange(offset, end)
            elif clean:
                row_indices[start:stop] = coordinates[cut:end]
            else:
                if not scored:
                    if scores is None:
                        scores = np.empty(dimension, dtype=score_dtype)
                    score_row(row, scores)
                    scored = True
                chosen = np.argpartition(scores[offset:end], keep - 1 + kth_shift)
                np.add(chosen[:keep], offset, out=row_indices[start:stop])
            start = stop
        np.take(row, row_indices, out=row_values, mode="clip")  # in range by construction


def _validate_fraction(fraction: float) -> float:
    if not 0.0 < float(fraction) <= 1.0:
        raise ConfigurationError(f"fraction must lie in (0, 1], got {fraction}")
    return float(fraction)


class TopKCompressor(Compressor):
    """Top-k sparsification: keep each row's ``k`` largest-magnitude entries.

    The payload per row is ``k`` (index, value) pairs — two float32
    equivalents each — capped at the dense size ``d``: when ``k ≥ d`` the
    whole row is kept and charged as a dense vector, never more.  Coordinates
    are chosen on float32 magnitudes, one row at a time (see
    :func:`_select_rows`); the transmitted values stay the exact input
    entries in the plane's dtype (the sparse payloads' exact-value invariant).
    """

    name = "topk"

    #: What :func:`_select_rows` ranks a row by, and where it cuts.
    _score_row = staticmethod(_score_by_magnitude)
    _score_dtype = np.float32
    _kth_shift = 0

    def __init__(self, fraction: float = 0.1) -> None:
        self.fraction = _validate_fraction(fraction)

    def _slots(self, dimension: int) -> List:
        """``(offset, size, keep)`` of every independently budgeted slice of a row."""
        return [(0, int(dimension), _keep_count(dimension, self.fraction))]

    def compress_rows(self, matrix: np.ndarray) -> RowPayloads:
        matrix = _as_matrix(matrix)
        rows, dimension = matrix.shape
        slots = self._slots(dimension)
        indices = np.empty((rows, sum(keep for _, _, keep in slots)), dtype=np.intp)
        values = np.empty(indices.shape, dtype=matrix.dtype)
        select = functools.partial(
            _select_rows, slots=slots, score_row=self._score_row,
            score_dtype=self._score_dtype, kth_shift=self._kth_shift,
        )
        if self._score_row is _score_by_magnitude:
            ramp = np.arange(dimension, dtype=np.uint32)
            map_row_shards(functools.partial(select, ramp=ramp), matrix, indices, values)
        else:  # random-k: its one generator draws the rows in order
            select(matrix, indices, values, ramp=None)
        return SparseRowPayloads(
            indices, values, dimension, self.transmitted_elements(dimension)
        )

    def transmitted_elements(self, dimension: int) -> int:
        if dimension == 0:
            return 0
        return sum(min(2 * keep, size) for _, size, keep in self._slots(dimension))

    def __repr__(self) -> str:
        return f"TopKCompressor(fraction={self.fraction})"


class RandomKCompressor(TopKCompressor):
    """Random-k sparsification with a coordinated seed.

    Sender and receiver draw the kept coordinates from a shared seeded stream,
    so only the ``k`` values (plus one element standing in for the seed /
    round counter) travel — no indices.  The kernel keeps one private
    generator whose draws advance per call, making repeated runs reproduce
    the same coordinate sequence.  A row keeps the coordinates of
    its ``k`` smallest of ``d`` uniform draws; drawing ``d`` doubles per row
    consumes the stream exactly as one ``(K, d)`` draw would.
    """

    name = "randomk"

    _score_dtype = np.float64
    _kth_shift = 1

    def __init__(self, fraction: float = 0.1, seed: int = 0) -> None:
        super().__init__(fraction)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def _score_row(self, row: np.ndarray, scores: np.ndarray) -> None:
        self._rng.random(out=scores)

    def state_dict(self) -> dict:
        return {"rng": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]

    def transmitted_elements(self, dimension: int) -> int:
        if dimension == 0:
            return 0
        return min(_keep_count(dimension, self.fraction) + 1, int(dimension))

    def __repr__(self) -> str:
        return f"RandomKCompressor(fraction={self.fraction}, seed={self.seed})"


class SignCompressor(Compressor):
    """Sign + norm compression (1-bit SGD): ``sign(row) · mean(|row|)``.

    Every entry collapses to its sign, scaled by the row's mean magnitude so
    the reconstruction is unbiased in ℓ1; the payload is one bit per element
    plus one float32 scale.  Exactly-zero entries reconstruct to zero.
    """

    name = "signsgd"

    def compress_rows(self, matrix: np.ndarray) -> RowPayloads:
        matrix = _as_matrix(matrix)
        if matrix.shape[1] == 0:
            return DenseRowPayloads(matrix.copy(), 0)
        scales = np.mean(np.abs(matrix), axis=1, keepdims=True)
        dense = np.sign(matrix) * scales
        return DenseRowPayloads(dense, self.transmitted_elements(matrix.shape[1]))

    def transmitted_elements(self, dimension: int) -> int:
        if dimension == 0:
            return 0
        return int(np.ceil(dimension / 32.0)) + 1  # sign bits plus the scale


class LayerwiseTopKCompressor(TopKCompressor):
    """Top-k applied independently inside every layer slot of a parameter plane.

    Global top-k lets one large layer starve all others of budget; layer-wise
    communication (L-FGADMM) instead gives each layer array its own
    ``max(1, round(size · fraction))`` entries.  The kernel needs the model's
    flat-storage layout — a list of :class:`~repro.nn.plane.SlotLayout` —
    which the cluster binds from its workers' parameter plane
    (:meth:`bind_layout`); compressing without a bound layout is a
    configuration error.
    """

    name = "layerwise-topk"

    def __init__(self, fraction: float = 0.1) -> None:
        super().__init__(fraction)
        self._layout: Optional[List] = None

    def bind_layout(self, layout: Sequence) -> None:
        layout = list(layout)
        if not layout:
            raise ConfigurationError("layer-wise compression needs a non-empty layout")
        self._layout = layout

    def _require_layout(self, dimension: int) -> List:
        if self._layout is None:
            raise ConfigurationError(
                "LayerwiseTopKCompressor has no bound layout; call bind_layout() "
                "with the model's ParameterPlane.parameter_layout() first"
            )
        covered = sum(slot.size for slot in self._layout)
        if covered != dimension:
            raise ShapeError(
                f"layout covers {covered} scalars but the rows have {dimension}"
            )
        return self._layout

    def _slots(self, dimension: int) -> List:
        # Every layer slot selects inside its own slice of the row's scores.
        return [
            (slot.offset, int(slot.size), _keep_count(slot.size, self.fraction))
            for slot in self._require_layout(dimension)
        ]

    def __repr__(self) -> str:
        bound = self._layout is not None
        return f"LayerwiseTopKCompressor(fraction={self.fraction}, bound={bound})"
