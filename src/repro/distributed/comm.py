"""Communication-cost accounting.

The paper's primary metric is the *communication cost*: "the total data (in
bytes) transmitted by all workers".  :class:`CommunicationCostModel` maps one
collective operation (AllReduce of ``n`` float32 elements across ``K``
workers) to that byte count, and :class:`CommunicationTracker` accumulates the
totals per traffic category (model synchronization vs. FDA local states) so
the experiment harness can report exactly the series plotted in the figures.

The default unit is the *float32-equivalent element* (4 bytes), matching the
paper's accounting; :meth:`CommunicationCostModel.for_dtype` builds a model
priced at any plane dtype's true itemsize (clusters install one so float64
runs charge 8-byte elements and float32 runs 4-byte elements).  Payload
compression plugs in one level up: when a collective is charged with a
:class:`~repro.compression.kernels.Compressor`, the
:class:`~repro.distributed.topology.Fabric` first converts the logical vector
length into the kernel's transmitted element count (index/value pairs for
sparse formats, level bits plus scale for quantized ones) and only then
applies the cost model here — so byte totals, per-link ledgers, and network
seconds all price what is actually on the wire, never a flat ``4·d``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.exceptions import ConfigurationError

#: Bytes per transmitted element; the paper assumes 4-byte (float32) values.
BYTES_PER_ELEMENT = 4


@dataclass(frozen=True)
class CommunicationCostModel:
    """Maps an AllReduce of ``num_elements`` across ``num_workers`` to total bytes.

    ``scheme="naive"`` charges every worker the full vector (total =
    ``K · n · bytes``), matching the paper's "total data transmitted by all
    workers" accounting.  ``scheme="ring"`` charges the ring-AllReduce volume
    (``2 (K−1)/K · n`` per worker), which is what an MPI/NCCL implementation
    would actually move; it is available for the ablation benchmark.
    """

    scheme: str = "naive"
    bytes_per_element: int = BYTES_PER_ELEMENT

    def __post_init__(self) -> None:
        if self.scheme not in ("naive", "ring"):
            raise ConfigurationError(
                f"scheme must be 'naive' or 'ring', got {self.scheme!r}"
            )
        if self.bytes_per_element <= 0:
            raise ConfigurationError(
                f"bytes_per_element must be positive, got {self.bytes_per_element}"
            )

    def allreduce_bytes(self, num_elements: int, num_workers: int) -> int:
        """Total bytes transmitted by all workers for one AllReduce."""
        if num_elements < 0:
            raise ConfigurationError(f"num_elements must be non-negative, got {num_elements}")
        if num_workers <= 0:
            raise ConfigurationError(f"num_workers must be positive, got {num_workers}")
        if num_elements == 0 or num_workers == 1:
            return 0
        payload = num_elements * self.bytes_per_element
        if self.scheme == "naive":
            return payload * num_workers
        per_worker = 2.0 * (num_workers - 1) / num_workers * payload
        return int(round(per_worker * num_workers))

    def broadcast_bytes(self, num_elements: int, num_workers: int) -> int:
        """Total bytes for broadcasting a vector from one node to all others."""
        if num_elements == 0 or num_workers <= 1:
            return 0
        return num_elements * self.bytes_per_element * (num_workers - 1)

    @classmethod
    def for_dtype(cls, dtype, scheme: str = "naive") -> "CommunicationCostModel":
        """A cost model pricing elements at ``dtype``'s itemsize.

        This is what :class:`~repro.distributed.cluster.SimulatedCluster`
        installs by default: a float64 plane transmits 8-byte elements, a
        float32 plane 4-byte elements, so per-link ledgers and byte totals
        reflect the selected precision instead of a flat 4-byte assumption.
        """
        from repro.backend import resolve_dtype

        return cls(scheme, bytes_per_element=resolve_dtype(dtype).itemsize)


NAIVE_COST_MODEL = CommunicationCostModel("naive")
RING_COST_MODEL = CommunicationCostModel("ring")


@dataclass
class CommunicationTracker:
    """Accumulates transmitted bytes and collective-operation counts.

    Byte totals are kept per category so that the experiment harness can
    separate the (large) model-synchronization traffic from the (small) FDA
    local-state traffic — Figure 8-11 style breakdowns rely on this.  The
    tracker prices nothing: the :class:`~repro.distributed.topology.Fabric`
    does, and records each collective's total here.
    """

    bytes_by_category: Dict[str, int] = field(default_factory=dict)
    operations_by_category: Dict[str, int] = field(default_factory=dict)

    def record_transfer(self, num_bytes: int, category: str) -> int:
        """Record one collective whose byte total was computed by the caller.

        The topology-aware :class:`~repro.distributed.topology.Fabric` prices
        collectives itself (per-link sums, or the scalar cost model for the
        paper-accounting star) and records the result here, so every category
        still accumulates in one place.
        """
        if num_bytes < 0:
            raise ConfigurationError(f"num_bytes must be non-negative, got {num_bytes}")
        self.bytes_by_category[category] = self.bytes_by_category.get(category, 0) + int(num_bytes)
        self.operations_by_category[category] = self.operations_by_category.get(category, 0) + 1
        return int(num_bytes)

    @property
    def total_bytes(self) -> int:
        """Total bytes across every category (the paper's communication cost)."""
        return int(sum(self.bytes_by_category.values()))

    def bytes_for(self, category: str) -> int:
        """Total bytes charged to a single category."""
        return int(self.bytes_by_category.get(category, 0))

    def operations_for(self, category: str) -> int:
        """Number of collectives charged to a single category."""
        return int(self.operations_by_category.get(category, 0))

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict snapshot suitable for logging."""
        return {
            "total_bytes": self.total_bytes,
            "bytes_by_category": dict(self.bytes_by_category),
            "operations_by_category": dict(self.operations_by_category),
        }
