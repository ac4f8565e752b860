"""Simulated distributed execution substrate.

The paper runs on a 44-node GPU cluster; its evaluation, however, is
infrastructure-agnostic and reports *communication cost in bytes* and
*computation cost in mini-batch steps*.  This subpackage reproduces exactly
those quantities with an in-process simulation: :class:`Worker` objects hold
local models, data shards and optimizers, :class:`SimulatedCluster` implements
AllReduce as an exact average plus byte accounting, and :class:`NetworkModel`
translates byte counts into wall-clock time for the FL / balanced / HPC
settings discussed in the paper.
"""

from repro.distributed.comm import CommunicationTracker
from repro.distributed.network import (
    NetworkModel,
    FL_NETWORK,
    HPC_NETWORK,
    BALANCED_NETWORK,
    get_network,
)
from repro.distributed.topology import (
    Fabric,
    GossipTopology,
    HierarchicalTopology,
    NAMED_TOPOLOGIES,
    RingTopology,
    StarTopology,
    Topology,
    get_topology,
)
from repro.distributed.engine import BatchedEngine
from repro.distributed.participation import Participation
from repro.distributed.worker import Worker
from repro.distributed.cluster import SimulatedCluster

__all__ = [
    "BatchedEngine",
    "CommunicationTracker",
    "NetworkModel",
    "FL_NETWORK",
    "HPC_NETWORK",
    "BALANCED_NETWORK",
    "get_network",
    "Topology",
    "StarTopology",
    "RingTopology",
    "HierarchicalTopology",
    "GossipTopology",
    "NAMED_TOPOLOGIES",
    "get_topology",
    "Fabric",
    "Worker",
    "Participation",
    "SimulatedCluster",
]
