"""Communication-cost accounting.

The paper's primary metric is the *communication cost*: "the total data (in
bytes) transmitted by all workers".  :class:`CommunicationTracker` accumulates
those totals per traffic category (model synchronization vs. FDA local
states), so the experiment harness can report exactly the series plotted in
the figures.  The tracker prices nothing: the
:class:`~repro.distributed.topology.Fabric` prices every collective as the
sum of the bytes its links carry, at the plane dtype's itemsize, and books
the total here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.exceptions import ConfigurationError


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
        """Record one collective whose byte total the fabric computed."""
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
