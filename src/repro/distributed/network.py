"""Network models: translating bytes and steps into wall-clock time.

The paper notes that the impact of communication cost on wall time depends on
the interconnect: negligible on the ARIS HPC InfiniBand fabric, dominant in a
federated setting on a shared 0.5 Gbps channel.  :class:`NetworkModel`
captures that translation so the Θ-selection guideline (Figure 12) and the
examples can reason about end-to-end training time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class NetworkModel:
    """A simple bandwidth + per-operation-latency network model."""

    name: str
    bandwidth_bits_per_second: float
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bits_per_second <= 0:
            raise ConfigurationError(
                f"bandwidth must be positive, got {self.bandwidth_bits_per_second}"
            )
        if self.latency_seconds < 0:
            raise ConfigurationError(
                f"latency must be non-negative, got {self.latency_seconds}"
            )

    def transfer_time(self, num_bytes: float, num_operations: int = 1) -> float:
        """Seconds needed to move ``num_bytes`` over this network."""
        if num_bytes < 0:
            raise ConfigurationError(f"num_bytes must be non-negative, got {num_bytes}")
        if num_operations < 0:
            raise ConfigurationError(
                f"num_operations must be non-negative, got {num_operations}"
            )
        return (num_bytes * 8.0) / self.bandwidth_bits_per_second + self.latency_seconds * num_operations

#: Federated-learning setting from the paper: a shared 0.5 Gbps channel.
FL_NETWORK = NetworkModel("fl", bandwidth_bits_per_second=0.5e9, latency_seconds=0.05)

#: The paper's ARIS HPC environment: InfiniBand FDR14, 56 Gb/s.
HPC_NETWORK = NetworkModel("hpc", bandwidth_bits_per_second=56e9, latency_seconds=1e-4)

#: A synthetic middle ground between the two, used for the "balanced" Θ guideline.
BALANCED_NETWORK = NetworkModel("balanced", bandwidth_bits_per_second=5e9, latency_seconds=5e-3)

NAMED_NETWORKS = {
    "fl": FL_NETWORK,
    "hpc": HPC_NETWORK,
    "balanced": BALANCED_NETWORK,
}


def get_network(name):
    """Resolve ``name`` into a :class:`NetworkModel` (or ``None``).

    Accepts a predefined name (``"fl"``, ``"hpc"``, ``"balanced"``), an
    existing :class:`NetworkModel` (returned unchanged), or ``None`` /
    ``"none"`` for the timeless default in which communication takes no
    virtual seconds.
    """
    if name is None or isinstance(name, NetworkModel):
        return name
    if name == "none":
        return None
    try:
        return NAMED_NETWORKS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown network {name!r}; known: {sorted(NAMED_NETWORKS)} or 'none'"
        ) from None
