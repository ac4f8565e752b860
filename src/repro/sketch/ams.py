"""The AMS sketch (Alon–Matias–Szegedy, "fast AMS" / count-sketch layout).

An AMS sketch of a vector ``v ∈ R^d`` is an ``l × m`` matrix (``l`` rows =
depth, ``m`` columns = width).  Row ``i`` scatters every coordinate ``c`` into
bucket ``h_i(c)`` with sign ``s_i(c)``:

    sk(v)[i, h_i(c)] += s_i(c) · v[c]

The squared L2 norm of ``v`` is estimated by the median over rows of the
squared row norms (the ``M2`` estimator used in the paper, Section 3.1):

    M2(sk(v)) = median_i ‖sk(v)[i]‖²

With ``m = O(1/ε²)`` and ``l = O(log 1/δ)`` the estimate lies within
``(1 ± ε)‖v‖²`` with probability at least ``1 − δ``.  Because the transform is
linear for a fixed hash family, the average of the workers' sketches equals
the sketch of the average drift — the property Theorem 3.1 relies on.

A batch of rows is sketched a block of rows at a time (:data:`BLOCK_ELEMENTS`):
only that block's float64 transpose exists at once, never the whole plane's.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.backend import map_row_blocks
from repro.exceptions import CommunicationError, ConfigurationError, ShapeError
from repro.sketch.hashing import FourWiseHash

#: Sketch geometry recommended by the paper (Section 3.3), which quotes
#: epsilon ~ 6%, delta ~ 5% for it.  ``AmsSketch.epsilon``/``.delta`` return the
#: looser worst-case constants sqrt(8/250) ≈ 0.179 and 2^(−5/2) ≈ 0.177: a row's
#: estimate has variance ≤ 2‖v‖⁴/width, so by Chebyshev it misses (1 ± ε)‖v‖²
#: with probability ≤ 2/(width·ε²) = 1/4 at ε = sqrt(8/width), and δ halves
#: for every two rows the median runs over.
DEFAULT_DEPTH = 5
DEFAULT_WIDTH = 250

#: Elements of the float64 ``(d, block)`` transpose one product converts:
#: four rows (3.7 MB) at the benchmark model's d = 114 728, in place of the
#: 29 MB ``(d, 32)`` transpose of the whole plane.
BLOCK_ELEMENTS = 1 << 19


def estimate_l2_squared(sketch_matrix: np.ndarray) -> float:
    """The ``M2`` estimator: median over rows of the squared row norms."""
    sketch_matrix = np.asarray(sketch_matrix, dtype=np.float64)
    if sketch_matrix.ndim != 2:
        raise ShapeError(f"a sketch must be a 2-D matrix, got shape {sketch_matrix.shape}")
    row_norms = np.sum(sketch_matrix * sketch_matrix, axis=1)
    return float(np.median(row_norms))


class AmsSketch:
    """AMS sketch operator bound to a fixed hash family (and therefore linear).

    All workers participating in SketchFDA must share the same ``seed`` (and
    geometry) so their sketches live in the same basis; the
    :class:`~repro.core.monitor.SketchMonitor` takes care of this.
    """

    def __init__(
        self,
        depth: int = DEFAULT_DEPTH,
        width: int = DEFAULT_WIDTH,
        seed: int = 0,
        dimension: Optional[int] = None,
    ) -> None:
        if depth <= 0:
            raise ConfigurationError(f"depth must be positive, got {depth}")
        if width <= 0:
            raise ConfigurationError(f"width must be positive, got {width}")
        self.depth = int(depth)
        self.width = int(width)
        self.seed = int(seed)
        self._bucket_hash = FourWiseHash(self.depth, seed=seed * 2 + 1)
        self._sign_hash = FourWiseHash(self.depth, seed=seed * 2 + 2)
        self._operator = None  # the scipy.sparse.csc_array, once prepared
        if dimension is not None:
            self._prepare(dimension)

    # -- operator preparation --------------------------------------------------

    def _prepare(self, dimension: int) -> None:
        """Build the ``(depth·width, dimension)`` CSC sketch operator.

        Row ``i·width + b`` holds ``s_i(c)`` at every coordinate ``c`` with
        ``h_i(c) = b``; column ``c`` lists its ``depth`` buckets in ascending
        row order, which is the order it is assembled in.
        """
        from scipy import sparse  # here: a quarter of ``import repro``, used by sketching runs only
        if dimension <= 0:
            raise ConfigurationError(f"dimension must be positive, got {dimension}")
        indices = np.arange(dimension, dtype=np.uint64)
        index_dtype = sparse.get_index_dtype(maxval=self.depth * dimension)
        rows = self._bucket_hash.buckets(indices, self.width).astype(index_dtype)
        rows += np.arange(self.depth, dtype=index_dtype)[:, None] * self.width
        column_starts = np.arange(dimension + 1, dtype=index_dtype) * self.depth
        self._operator = sparse.csc_array(
            (self._sign_hash.signs(indices).T.ravel(), rows.T.ravel(), column_starts),
            shape=(self.depth * self.width, dimension),
        )

    @property
    def dimension(self) -> Optional[int]:
        """The vector length the operator is currently prepared for."""
        return None if self._operator is None else self._operator.shape[1]

    @property
    def shape(self) -> tuple:
        """Sketch matrix shape ``(depth, width)``."""
        return (self.depth, self.width)

    @property
    def epsilon(self) -> float:
        """Nominal relative error of the M2 estimate (ε ≈ sqrt(8/width))."""
        return float(np.sqrt(8.0 / self.width))

    @property
    def delta(self) -> float:
        """Nominal failure probability of the M2 estimate (δ ≈ 2^(−depth/2))."""
        return float(2.0 ** (-self.depth / 2.0))

    # -- sketching -------------------------------------------------------------

    def _apply(self, rows: np.ndarray) -> np.ndarray:
        """Sketch every row of an ``(n, d)`` block; returns ``(n, depth, width)``.

        The one sketch kernel: one product of the operator with the block's
        float64 ``(d, n)`` transpose.  A CSC product walks the coordinates
        once, in memory order, adding ``±x[c, :]`` into coordinate ``c``'s
        buckets; the output (``depth·width × n``) stays cache-resident.  Each
        bucket still accumulates its coordinates in ascending order, in
        float64, with exact ``±1`` products, independently per column: a
        row's sketch does not depend on how many rows share the product, so
        neither row blocks nor row shards show in a result.  The operator
        must be prepared for ``d`` (the callers do, before any shard runs
        this).
        """
        product = self._operator @ np.ascontiguousarray(rows.T, dtype=np.float64)
        return np.ascontiguousarray(product.T).reshape(-1, self.depth, self.width)

    def _sketch_blocks(self, out: np.ndarray, visit, blocks) -> None:
        for low, drifts in blocks:
            if visit is not None:
                visit(low, drifts)
            out[low : low + len(drifts)] = self._apply(drifts)

    def sketch(self, vector: np.ndarray) -> np.ndarray:
        """Return the ``(depth, width)`` AMS sketch of ``vector``."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ShapeError(f"can only sketch 1-D vectors, got shape {vector.shape}")
        if self.dimension != vector.size:
            self._prepare(vector.size)
        return self._apply(vector[None])[0]

    def sketch_rows(self, matrix, reference=None, rows=None, visit=None) -> np.ndarray:
        """Sketch the rows of ``matrix[rows] − reference``; returns ``(A, depth, width)``.

        The batched form of :meth:`sketch` (default: every row, minus 0):
        within each row shard, one product of the sparse operator per block
        of ``BLOCK_ELEMENTS // d`` rows (at least one), formed in the shard's
        scratch (:func:`repro.backend.map_row_blocks`) and first shown to
        ``visit(low, block)`` if given, with that block's float64 transpose.
        Row ``k`` of the result is bit-identical to ``sketch(matrix[k] −
        reference)`` (see :meth:`_apply`).
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ShapeError(f"can only sketch a (K, d) matrix, got shape {matrix.shape}")
        if self.dimension != matrix.shape[1]:
            self._prepare(matrix.shape[1])
        out = np.empty((len(matrix) if rows is None else len(rows), self.depth, self.width))
        block = max(1, BLOCK_ELEMENTS // matrix.shape[1])
        sketch_blocks = functools.partial(self._sketch_blocks, out, visit)
        map_row_blocks(sketch_blocks, matrix, reference, rows, block)
        return out

    def estimate_l2_squared(self, sketch_matrix: np.ndarray) -> float:
        """Estimate ``‖v‖²`` from a sketch produced by this operator (or a linear mix)."""
        sketch_matrix = np.asarray(sketch_matrix, dtype=np.float64)
        if sketch_matrix.shape != (self.depth, self.width):
            raise CommunicationError(
                f"sketch of shape {sketch_matrix.shape} does not match this operator's "
                f"geometry {(self.depth, self.width)}"
            )
        return estimate_l2_squared(sketch_matrix)

    def __repr__(self) -> str:
        return (
            f"AmsSketch(depth={self.depth}, width={self.width}, seed={self.seed}, "
            f"epsilon~{self.epsilon:.3f}, delta~{self.delta:.3f})"
        )
