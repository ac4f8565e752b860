"""Cluster-level compression state: the kernel and its error-feedback memory.

The kernels in :mod:`repro.compression.kernels` are pure functions of a
``(R, d)`` matrix; what makes compression a *protocol* feature is the state
around them.  Workers never upload raw parameters; they upload the
(compressible) drift ``w^{(k)} − w_{t0}`` from the cluster's shared model
(:attr:`SimulatedCluster.shared_parameters
<repro.distributed.cluster.SimulatedCluster.shared_parameters>`, refreshed by
every broadcast and synchronization), so all strategies — FDA's triggered
syncs included — share one drift convention.  What this module owns is the
**error-feedback residual matrix** — one ``(K, d)`` matrix (in the plane's
dtype) whose row ``k`` is worker ``k``'s accumulated compression error.

The two protocol entry points are :meth:`ClusterCompression.synchronize` (the
compressed average behind ``cluster.synchronize``, which installs it) and
:meth:`ClusterCompression.gather_models` (the compressed client→server upload
round behind FedOpt/FedProx/SCAFFOLD aggregation).  Both charge the fabric
with the kernel's *transmitted* element count, so topology link ledgers and
network seconds reflect compressed payloads, not ``4·d``.

>>> import numpy as np
>>> from repro.compression.config import CompressionConfig
>>> state = ClusterCompression(
...     CompressionConfig("topk", ratio=0.5, error_feedback=True),
...     num_workers=2, dimension=4,
... )
>>> drifts = np.array([[1.0, -3.0, 0.5, 2.0], [0.0, 0.1, -0.2, 0.05]])
>>> payloads = state.compress_update(drifts)
>>> payloads.reconstruct()                      # the two largest entries per row
array([[ 0. , -3. ,  0. ,  2. ],
       [ 0. ,  0.1, -0.2,  0. ]])
>>> state.residual_matrix                       # each row keeps its dropped mass
array([[1.  , 0.  , 0.5 , 0.  ],
       [0.  , 0.  , 0.  , 0.05]])
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.backend import map_row_shards, resolve_dtype
from repro.compression.config import CompressionConfig, make_compressor
from repro.compression.kernels import RowPayloads
from repro.exceptions import ShapeError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.distributed.cluster import SimulatedCluster


class ClusterCompression:
    """Compression state for one cluster: the kernel and its residual memory.

    Constructed from a :class:`~repro.compression.config.CompressionConfig`;
    ``layout`` — the workers' parameter-plane slot layout — is forwarded to
    layer-wise kernels.
    """

    def __init__(
        self,
        config: CompressionConfig,
        num_workers: int,
        dimension: int,
        layout=None,
        dtype=None,
    ) -> None:
        self.config = config
        self.compressor = make_compressor(config)
        if layout is not None:
            self.compressor.bind_layout(layout)
        self.error_feedback = bool(config.error_feedback)
        self.num_workers = int(num_workers)
        self.dimension = int(dimension)
        # The residual memory and drift scratch live in the owning cluster's
        # plane dtype so error feedback never promotes a float32 plane.
        self.dtype = resolve_dtype(dtype)
        self._residuals: Optional[np.ndarray] = (
            np.zeros((self.num_workers, self.dimension), dtype=self.dtype)
            if self.error_feedback
            else None
        )
        # (K, d) drift scratch for the no-error-feedback synchronize path
        # (with EF the residual matrix itself is the accumulator); lazily
        # allocated so clusters that never synchronize pay nothing.
        self._drift_scratch: Optional[np.ndarray] = None

    # -- description ------------------------------------------------------------

    @property
    def label(self) -> str:
        """Compact description for names, reports, and persisted results."""
        return self.config.describe()

    @property
    def residual_matrix(self) -> Optional[np.ndarray]:
        """The live ``(K, d)`` error-feedback memory (``None`` without EF)."""
        return self._residuals

    @property
    def transmitted_elements(self) -> int:
        """Float32-equivalent elements one worker's model payload costs."""
        return self.compressor.transmitted_elements(self.dimension)

    # -- resumable state ---------------------------------------------------------

    def state_dict(self) -> dict:
        """The kernel's state.

        The residual rows are per-worker state: they are captured with the
        workers' slots (``SimulatedCluster.capture_slot`` / ``state_dict``),
        through :attr:`residual_matrix`; the shared model the drifts are taken
        from is the cluster's.
        """
        return {"kernel": self.compressor.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Resume from :meth:`state_dict`."""
        self.compressor.load_state_dict(state["kernel"])

    # -- the compression step ----------------------------------------------------

    def compress_update(self, drifts: np.ndarray) -> RowPayloads:
        """Compress drift rows, folding error-feedback memory in and out.

        ``drifts`` is the full ``(K, d)`` drift matrix (never mutated).  With
        error feedback, each row's payload is built from ``drift + residual``
        and its residual becomes exactly the untransmitted remainder.
        """
        drifts = np.asarray(drifts, dtype=self.dtype)
        if drifts.ndim != 2 or drifts.shape[1] != self.dimension:
            raise ShapeError(
                f"drifts must be (K, {self.dimension}), got {drifts.shape}"
            )
        if not self.error_feedback:
            return self.compressor.compress_rows(drifts)
        work = drifts + self._residuals
        payloads = self.compressor.compress_rows(work)
        payloads.fold_residual(work)  # in place: work becomes the new residual
        self._residuals[...] = work
        return payloads

    # -- protocol entry points ---------------------------------------------------

    def synchronize(self, cluster: "SimulatedCluster") -> np.ndarray:
        """The new global model of one compressed full-model AllReduce.

        Every worker uploads its compressed drift from the shared model, and
        the averaged reconstruction is added to it.  The fabric is charged
        the *compressed* payload per worker (the kernel's transmitted
        elements).  ``cluster.synchronize`` installs the result, averages the
        buffers and counts the sync, exactly as on the exact path.
        """
        from repro.distributed.cluster import CATEGORY_MODEL

        reference = cluster.shared_parameters
        # The synchronization hot path works entirely in preallocated (K, d)
        # storage: with error feedback the residual matrix itself accumulates
        # ``(residual + w) − w_t0`` in place (the payload values are captured
        # before fold_residual zeroes/subtracts the transmitted part, turning
        # the accumulator into the new residual); without it a cached drift
        # scratch holds the subtraction.  Sync-every-step protocols therefore
        # allocate nothing (K, d)-sized per round: only the k-sized payload
        # arrays and the sparsifying kernels' row-sized scratch.  Row-wise
        # passes run as row shards; the sparse mean sums in row order, whole.
        # compress_update sums ``(w − w_t0) + residual`` instead: the two round
        # differently and the compressed goldens pin both, so they stay apart.
        if self.error_feedback:
            work = self._residuals
            map_row_shards(
                lambda rows, w: np.subtract(np.add(rows, w, out=rows), reference, out=rows),
                work, cluster.parameter_matrix,
            )
        else:
            if self._drift_scratch is None:
                self._drift_scratch = np.empty(
                    (self.num_workers, self.dimension), dtype=self.dtype
                )
            work = cluster.drift_matrix(reference, out=self._drift_scratch)
        payloads = self.compressor.compress_rows(work)
        members = cluster.members
        if members.lockstep:
            average_delta = payloads.mean()
        else:
            # A bound cohort: the server averages the reconstructed drifts of
            # the bound clients only, by shard size when the cohort is weighted.
            average_delta = members.mean(payloads.reconstruct())
        if self.error_feedback:
            payloads.fold_residual(work)  # the accumulator becomes the residual
        cluster.fabric.allreduce(
            cluster.model_dimension, CATEGORY_MODEL, compression=self.compressor
        )
        return reference + average_delta

    def gather_models(self, cluster: "SimulatedCluster") -> np.ndarray:
        """One compressed client→server upload round.

        Returns the ``(K, d)`` matrix of client models *as the server sees
        them* — the shared model plus the reconstructed drift, per row — and
        charges the fabric one compressed full-model collective.  Server-side
        aggregators (FedOpt/FedProx/SCAFFOLD) consume the result in place of
        the raw parameter matrix.
        """
        from repro.distributed.cluster import CATEGORY_MODEL

        reference = cluster.shared_parameters
        payloads = self.compress_update(cluster.drift_matrix(reference))
        cluster.fabric.allreduce(
            cluster.model_dimension, CATEGORY_MODEL, compression=self.compressor
        )
        return reference + payloads.reconstruct()

    def __repr__(self) -> str:
        return (
            f"ClusterCompression({self.label}, K={self.num_workers}, "
            f"d={self.dimension}, error_feedback={self.error_feedback})"
        )
