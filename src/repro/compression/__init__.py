"""Unified compression & selective communication on the ``(K, d)`` plane.

FDA shrinks communication by choosing *when* to synchronize; this package
shrinks *what* every synchronization moves, for every strategy at once.  It
has three layers:

* :mod:`repro.compression.kernels` — vectorized :class:`Compressor` kernels
  whose ``compress_rows`` operates row-wise on whole ``(K, d)`` matrices
  (quantization, top-k, random-k, sign+norm, and layer-wise top-k driven by
  :class:`~repro.nn.plane.ParameterPlane` layouts), each reporting the true
  transmitted size of its payload;
* :mod:`repro.compression.config` — the declarative
  :class:`CompressionConfig` threaded through workloads, sweeps, persistence,
  and the CLI;
* :mod:`repro.compression.state` — :class:`ClusterCompression`, the per-cluster
  kernel and ``(K, d)`` error-feedback residual matrix behind the compressed
  collective paths (``cluster.synchronize`` / ``cluster.gather_models``),
  which exchange drifts from the cluster's shared model.

Because the integration point is the collective layer of
:class:`~repro.distributed.cluster.SimulatedCluster` — not a strategy
wrapper — FDA, BSP, Local-SGD, FedOpt, FedProx, and SCAFFOLD all compress
their sync payloads uniformly, on either execution engine, and the topology
fabric charges compressed bytes per link.
"""

from repro.compression.config import (
    NAMED_COMPRESSORS,
    CompressionConfig,
    CompressionSpec,
    get_compression,
    make_compressor,
)
from repro.compression.kernels import (
    Compressor,
    DenseRowPayloads,
    LayerwiseTopKCompressor,
    QuantizationCompressor,
    RandomKCompressor,
    RowPayloads,
    SignCompressor,
    SparseRowPayloads,
    TopKCompressor,
)
from repro.compression.state import ClusterCompression

__all__ = [
    # kernels
    "Compressor",
    "RowPayloads",
    "DenseRowPayloads",
    "SparseRowPayloads",
    "QuantizationCompressor",
    "TopKCompressor",
    "RandomKCompressor",
    "SignCompressor",
    "LayerwiseTopKCompressor",
    # configuration
    "CompressionConfig",
    "CompressionSpec",
    "NAMED_COMPRESSORS",
    "get_compression",
    "make_compressor",
    # cluster state
    "ClusterCompression",
]
