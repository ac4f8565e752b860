"""Topology-aware communication fabric.

The paper's wall-clock claims hinge on the interconnect: FDA's savings are
negligible on an InfiniBand HPC fabric and decisive on a shared 0.5 Gbps
federated channel.  The byte accounting, however, also depends on *how* the
collective is routed — a parameter-server star, a ring AllReduce, a two-level
hierarchy of aggregators, or a gossip mesh move very different volumes over
very different numbers of sequential hops.

This module makes the routing first-class:

* :class:`Topology` subclasses describe one interconnect layout: its directed
  links, how many elements each link carries for one AllReduce / broadcast /
  coordinator upload, and how many sequential rounds (latency hops) plus
  critical-path bytes (bandwidth) the collective needs.
* :class:`Fabric` prices every collective by one rule on every topology:
  each link the collective touches carries ``round(elements × itemsize)``
  bytes, and the collective's total is the sum of those link bytes.  The
  total lands on the shared
  :class:`~repro.distributed.comm.CommunicationTracker` per traffic category,
  the link bytes on the per-link ledger, and an optional
  :class:`~repro.distributed.network.NetworkModel` turns the collective's
  critical path into virtual seconds.

On the star the rule reproduces the paper's accounting ("total data
transmitted by all workers"): an AllReduce is ``K`` worker uploads of the
full vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.distributed.comm import CommunicationTracker
from repro.distributed.network import NetworkModel
from repro.exceptions import CommunicationError, ConfigurationError

#: Node id of the central server / coordinator in server-based topologies.
#: Worker nodes are ``0 .. K-1``; the server is an extra node.
SERVER = -1

#: A directed link ``(source, destination)`` between node ids.
Link = Tuple[int, int]


class Topology:
    """One interconnect layout: links plus per-collective traffic placement.

    Subclasses implement the ``*_link_elements`` methods, which return the
    number of elements each directed link carries for one collective of
    ``num_elements`` across ``num_workers``, together with the
    latency/critical-path geometry the network model needs:

    * ``*_rounds`` — sequential communication rounds (each pays one network
      latency);
    * ``*_critical_elements`` — elements on the longest serial transfer chain
      (each pays bandwidth time).
    """

    name = "topology"

    # -- structure -------------------------------------------------------------

    def validate(self, num_workers: int) -> None:
        """Raise :class:`ConfigurationError` if ``num_workers`` is unsupported."""
        if num_workers <= 0:
            raise ConfigurationError(f"num_workers must be positive, got {num_workers}")

    def links(self, num_workers: int) -> List[Link]:
        """Every directed link of this topology for ``num_workers`` workers."""
        raise NotImplementedError

    # -- AllReduce -------------------------------------------------------------

    def allreduce_link_elements(
        self, num_elements: int, num_workers: int
    ) -> Dict[Link, float]:
        """Elements carried per link for one AllReduce of ``num_elements``."""
        raise NotImplementedError

    def allreduce_rounds(self, num_workers: int) -> int:
        raise NotImplementedError

    def allreduce_critical_elements(self, num_elements: int, num_workers: int) -> float:
        raise NotImplementedError

    # -- broadcast -------------------------------------------------------------

    def broadcast_link_elements(
        self, num_elements: int, num_workers: int
    ) -> Dict[Link, float]:
        """Elements per link for broadcasting one vector from the root to all."""
        raise NotImplementedError

    def broadcast_rounds(self, num_workers: int) -> int:
        raise NotImplementedError

    def broadcast_critical_elements(self, num_elements: int, num_workers: int) -> float:
        return float(num_elements)

    # -- coordinator upload (asynchronous FDA state traffic) --------------------

    def upload_path(self, worker_id: int, num_workers: int) -> List[Link]:
        """The sequence of links a worker→coordinator upload traverses.

        Every returned link must be one of :meth:`links`.  The coordinator is
        the hub/root where one exists (:data:`SERVER`) and worker 0 on the
        serverless topologies — whose own upload is then local and free.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class StarTopology(Topology):
    """Parameter-server star: every worker talks directly to a central hub.

    This is the paper's setting.  One AllReduce is a gather (each worker
    uploads its vector) followed by a broadcast of the average; the paper's
    accounting counts the worker uploads, so the loaded links are the ``K``
    uplinks of ``n`` elements each.
    """

    name = "star"

    def links(self, num_workers: int) -> List[Link]:
        self.validate(num_workers)
        up = [(worker, SERVER) for worker in range(num_workers)]
        down = [(SERVER, worker) for worker in range(num_workers)]
        return up + down

    def allreduce_link_elements(self, num_elements: int, num_workers: int) -> Dict[Link, float]:
        self.validate(num_workers)
        if num_elements == 0 or num_workers == 1:
            return {}
        return {(worker, SERVER): float(num_elements) for worker in range(num_workers)}

    def allreduce_rounds(self, num_workers: int) -> int:
        return 2 if num_workers > 1 else 0

    def allreduce_critical_elements(self, num_elements: int, num_workers: int) -> float:
        # One upload plus one download on the slowest worker's path.
        return 2.0 * num_elements if num_workers > 1 else 0.0

    def broadcast_link_elements(self, num_elements: int, num_workers: int) -> Dict[Link, float]:
        self.validate(num_workers)
        if num_elements == 0 or num_workers <= 1:
            return {}
        # The paper's convention: the broadcaster is one of the K workers, so
        # K - 1 transmissions leave the hub.
        return {(SERVER, worker): float(num_elements) for worker in range(1, num_workers)}

    def broadcast_rounds(self, num_workers: int) -> int:
        return 1 if num_workers > 1 else 0

    def upload_path(self, worker_id: int, num_workers: int) -> List[Link]:
        return [(worker_id, SERVER)]


class RingTopology(Topology):
    """Ring AllReduce: workers exchange chunks around a cycle.

    The classic bandwidth-optimal schedule: the vector is split into ``K``
    whole-element chunks (sizes ``⌊n/K⌋`` or ``⌈n/K⌉``), and in each of
    ``2 (K−1)`` rounds every worker forwards one chunk to its successor —
    ``K−1`` rounds of reduce-scatter, then ``K−1`` of all-gather.  Each link
    carries every chunk but one per phase, so the links sum to exactly
    ``2 (K−1) · n`` elements, about ``2 (K−1)/K · n`` per worker.
    """

    name = "ring"

    def links(self, num_workers: int) -> List[Link]:
        # The physical ring is bidirectional; the AllReduce/broadcast schedules
        # only use the forward direction, coordinator uploads take the shorter.
        self.validate(num_workers)
        if num_workers == 1:
            return []
        forward = [(worker, (worker + 1) % num_workers) for worker in range(num_workers)]
        backward = [(worker, (worker - 1) % num_workers) for worker in range(num_workers)]
        return forward + [link for link in backward if link not in forward]

    def allreduce_link_elements(self, num_elements: int, num_workers: int) -> Dict[Link, float]:
        self.validate(num_workers)
        if num_elements == 0 or num_workers == 1:
            return {}
        base, extra = divmod(num_elements, num_workers)
        chunks = [base + (chunk < extra) for chunk in range(num_workers)]
        # Worker k ends the reduce-scatter owning chunk k+1, so it never
        # forwards that chunk; in the all-gather it skips chunk k+2, which
        # its successor already owns.
        return {
            (worker, (worker + 1) % num_workers): float(
                2 * num_elements
                - chunks[(worker + 1) % num_workers]
                - chunks[(worker + 2) % num_workers]
            )
            for worker in range(num_workers)
        }

    def allreduce_rounds(self, num_workers: int) -> int:
        return 2 * (num_workers - 1) if num_workers > 1 else 0

    def allreduce_critical_elements(self, num_elements: int, num_workers: int) -> float:
        if num_workers == 1:
            return 0.0
        return 2.0 * (num_workers - 1) / num_workers * num_elements

    def broadcast_link_elements(self, num_elements: int, num_workers: int) -> Dict[Link, float]:
        self.validate(num_workers)
        if num_elements == 0 or num_workers <= 1:
            return {}
        # Pipeline around the ring: every link except the closing one carries
        # the full vector once.
        return {
            (worker, worker + 1): float(num_elements) for worker in range(num_workers - 1)
        }

    def broadcast_rounds(self, num_workers: int) -> int:
        return num_workers - 1 if num_workers > 1 else 0

    def upload_path(self, worker_id: int, num_workers: int) -> List[Link]:
        # Shortest way around the (bidirectional) ring to the coordinator,
        # worker 0; the coordinator's own upload is local.
        if worker_id == 0 or num_workers == 1:
            return []
        if worker_id <= num_workers // 2:
            return [(node, node - 1) for node in range(worker_id, 0, -1)]
        return [
            (node, (node + 1) % num_workers) for node in range(worker_id, num_workers)
        ]


class HierarchicalTopology(Topology):
    """Two-level aggregation: workers → group heads → root, and back down.

    Workers are partitioned into groups of at most ``group_size``; the first
    worker of each group is its head.  One AllReduce gathers within each group,
    reduces the heads at the root, then broadcasts back down — the structure of
    rack-local aggregation in HPC clusters and of edge servers in hierarchical
    federated learning.
    """

    name = "hierarchical"

    def __init__(self, group_size: int = 4) -> None:
        if group_size < 2:
            raise ConfigurationError(f"group_size must be >= 2, got {group_size}")
        self.group_size = int(group_size)

    def _groups(self, num_workers: int) -> List[List[int]]:
        return [
            list(range(start, min(start + self.group_size, num_workers)))
            for start in range(0, num_workers, self.group_size)
        ]

    def links(self, num_workers: int) -> List[Link]:
        self.validate(num_workers)
        result: List[Link] = []
        for group in self._groups(num_workers):
            head = group[0]
            for member in group[1:]:
                result.append((member, head))
                result.append((head, member))
            result.append((head, SERVER))
            result.append((SERVER, head))
        return result

    def allreduce_link_elements(self, num_elements: int, num_workers: int) -> Dict[Link, float]:
        self.validate(num_workers)
        if num_elements == 0 or num_workers == 1:
            return {}
        loads: Dict[Link, float] = {}
        for group in self._groups(num_workers):
            head = group[0]
            for member in group[1:]:
                loads[(member, head)] = float(num_elements)   # intra-group gather
                loads[(head, member)] = float(num_elements)   # intra-group broadcast
            loads[(head, SERVER)] = float(num_elements)        # head reduce
            loads[(SERVER, head)] = float(num_elements)        # head broadcast
        return loads

    def allreduce_rounds(self, num_workers: int) -> int:
        return 4 if num_workers > 1 else 0

    def allreduce_critical_elements(self, num_elements: int, num_workers: int) -> float:
        # Leaf → head → root → head → leaf.
        return 4.0 * num_elements if num_workers > 1 else 0.0

    def broadcast_link_elements(self, num_elements: int, num_workers: int) -> Dict[Link, float]:
        self.validate(num_workers)
        if num_elements == 0 or num_workers <= 1:
            return {}
        loads: Dict[Link, float] = {}
        for group in self._groups(num_workers):
            head = group[0]
            loads[(SERVER, head)] = float(num_elements)
            for member in group[1:]:
                loads[(head, member)] = float(num_elements)
        return loads

    def broadcast_rounds(self, num_workers: int) -> int:
        return 2 if num_workers > 1 else 0

    def broadcast_critical_elements(self, num_elements: int, num_workers: int) -> float:
        return 2.0 * num_elements if num_workers > 1 else 0.0

    def upload_path(self, worker_id: int, num_workers: int) -> List[Link]:
        head = (worker_id // self.group_size) * self.group_size
        if worker_id == head:
            return [(head, SERVER)]
        return [(worker_id, head), (head, SERVER)]

    def __repr__(self) -> str:
        return f"HierarchicalTopology(group_size={self.group_size})"


class GossipTopology(Topology):
    """Gossip mesh: every worker averages with ``degree`` ring-neighbours.

    One "synchronization" is ``rounds`` gossip exchanges (default
    ``ceil(log2 K)``, enough mixing steps for near-uniform averaging on a
    well-connected mesh); each round every worker pushes its vector to each of
    its neighbours.  The simulation still realises the *exact* average — the
    gossip geometry here defines the traffic and timing charged for it, which
    is the upper bound a decentralized deployment would pay.
    """

    name = "gossip"

    def __init__(self, degree: int = 2, rounds: Optional[int] = None) -> None:
        if degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {degree}")
        if rounds is not None and rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        self.degree = int(degree)
        self.rounds = rounds

    def _degree(self, num_workers: int) -> int:
        return min(self.degree, max(num_workers - 1, 0))

    def _rounds(self, num_workers: int) -> int:
        if self.rounds is not None:
            return int(self.rounds)
        return max(1, math.ceil(math.log2(max(num_workers, 2))))

    def links(self, num_workers: int) -> List[Link]:
        self.validate(num_workers)
        degree = self._degree(num_workers)
        result: List[Link] = []
        for worker in range(num_workers):
            for offset in range(1, degree + 1):
                result.append((worker, (worker + offset) % num_workers))
        return result

    def allreduce_link_elements(self, num_elements: int, num_workers: int) -> Dict[Link, float]:
        self.validate(num_workers)
        if num_elements == 0 or num_workers == 1:
            return {}
        per_link = float(num_elements) * self._rounds(num_workers)
        return {link: per_link for link in self.links(num_workers)}

    def allreduce_rounds(self, num_workers: int) -> int:
        return self._rounds(num_workers) if num_workers > 1 else 0

    def allreduce_critical_elements(self, num_elements: int, num_workers: int) -> float:
        if num_workers == 1:
            return 0.0
        # Per gossip round a worker transmits to each of its neighbours.
        return float(num_elements) * self._rounds(num_workers) * self._degree(num_workers)

    def broadcast_link_elements(self, num_elements: int, num_workers: int) -> Dict[Link, float]:
        self.validate(num_workers)
        if num_elements == 0 or num_workers <= 1:
            return {}
        # Flood from node 0: every worker forwards to its neighbours once.
        return {link: float(num_elements) for link in self.links(num_workers)}

    def broadcast_rounds(self, num_workers: int) -> int:
        if num_workers <= 1:
            return 0
        return max(1, math.ceil((num_workers - 1) / max(self._degree(num_workers), 1)))

    def upload_path(self, worker_id: int, num_workers: int) -> List[Link]:
        # Forward along the chord links (offsets 1..degree) to the
        # coordinator, worker 0, taking the largest available stride.
        if worker_id == 0 or num_workers == 1:
            return []
        degree = max(self._degree(num_workers), 1)
        path: List[Link] = []
        node = worker_id
        while node != 0:
            stride = min(degree, num_workers - node)
            next_node = (node + stride) % num_workers
            path.append((node, next_node))
            node = next_node
        return path

    def __repr__(self) -> str:
        return f"GossipTopology(degree={self.degree}, rounds={self.rounds})"


#: Factories for the named topologies accepted by the CLI / workload configs.
NAMED_TOPOLOGIES: Dict[str, Callable[[], Topology]] = {
    "star": StarTopology,
    "ring": RingTopology,
    "hierarchical": HierarchicalTopology,
    "gossip": GossipTopology,
}


def get_topology(topology, **kwargs) -> Topology:
    """Resolve ``topology`` (a name or an instance) into a :class:`Topology`."""
    if isinstance(topology, Topology):
        return topology
    try:
        factory = NAMED_TOPOLOGIES[str(topology)]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology {topology!r}; known: {sorted(NAMED_TOPOLOGIES)}"
        ) from None
    return factory(**kwargs)


@dataclass(frozen=True)
class CollectiveCharge:
    """The cost of one collective: bytes on the wire and virtual seconds."""

    num_bytes: int
    seconds: float


@dataclass
class Fabric:
    """Routes collectives through a topology and prices them.

    One object per cluster: every ``synchronize`` / ``allreduce`` /
    ``broadcast`` / async state upload calls into the fabric.  Every
    collective is priced one way: each link it touches carries
    ``round(elements × itemsize)`` bytes (retransmissions included), the
    link bytes land on the per-link ledger, and their sum is the collective's
    total on the shared tracker — so tracker total == Σ links == Σ categories
    holds exactly on every topology.  With a :class:`NetworkModel` the
    collective's critical path and round count also become virtual seconds;
    without one communication is instantaneous.
    """

    topology: Topology = field(default_factory=StarTopology)
    #: Bytes per transmitted element.  The cluster installs its plane dtype's
    #: itemsize; a bare fabric prices 4-byte (float32) elements.
    itemsize: int = 4
    network: Optional[NetworkModel] = None
    tracker: CommunicationTracker = field(default_factory=CommunicationTracker)
    bytes_by_link: Dict[Link, int] = field(default_factory=dict)
    comm_seconds: float = 0.0
    seconds_by_category: Dict[str, float] = field(default_factory=dict)
    #: Optional :class:`~repro.faults.injector.FaultInjector`.  When set and
    #: its link-loss category is active, every collective draws per-link
    #: retransmissions that are charged to the same ledgers as the original
    #: transfer (see :meth:`_retransmit`).
    injector: Optional[object] = None

    # -- helpers ---------------------------------------------------------------

    @property
    def network_name(self) -> str:
        return self.network.name if self.network is not None else "none"

    def _book_link(self, link: Link, num_bytes: int) -> None:
        if num_bytes:
            self.bytes_by_link[link] = self.bytes_by_link.get(link, 0) + num_bytes

    def _seconds(self, critical_elements: float, rounds: int) -> float:
        if self.network is None:
            return 0.0
        critical_bytes = critical_elements * self.itemsize
        return self.network.transfer_time(critical_bytes, num_operations=rounds)

    def _retransmit(self, link_bytes: Dict[Link, int]) -> CollectiveCharge:
        """Draw per-link retransmissions for one collective over lossy links.

        For every link the collective touches (in deterministic sorted order)
        the injector draws a capped-geometric retry count; each retry resends
        that link's full payload, so the extra bytes land on *both* the
        per-link ledger and the tracker total — the conservation property the
        faults bench asserts (`tracker delta == Σ FaultLog link entries`).
        Retry latency is the capped exponential backoff plus the network
        transfer time of the resent payload (zero without a network model).
        """
        extra_bytes = 0
        extra_seconds = 0.0
        for link in sorted(link_bytes):
            retries, backoff = self.injector.sample_link_retries()
            if retries <= 0:
                continue
            resent = link_bytes[link] * retries
            delay = backoff
            if self.network is not None and resent:
                delay += self.network.transfer_time(resent, num_operations=retries)
            self._book_link(link, resent)
            extra_bytes += resent
            extra_seconds += delay
            self.injector.log.record_retransmission(
                f"{link[0]}->{link[1]}", retries, resent, backoff
            )
        return CollectiveCharge(extra_bytes, extra_seconds)

    def _charge(
        self, loads: Dict[Link, float], seconds: float, category: str
    ) -> CollectiveCharge:
        """Book one collective: ``loads`` elements per link, priced link by link."""
        link_bytes = {
            link: int(round(elements * self.itemsize)) for link, elements in loads.items()
        }
        num_bytes = sum(link_bytes.values())
        if self.injector is not None and self.injector.loss_active:
            resent = self._retransmit(link_bytes)
            num_bytes += resent.num_bytes
            seconds += resent.seconds
        self.tracker.record_transfer(num_bytes, category)
        for link, charged in link_bytes.items():
            self._book_link(link, charged)
        self.comm_seconds += seconds
        self.seconds_by_category[category] = (
            self.seconds_by_category.get(category, 0.0) + seconds
        )
        return CollectiveCharge(num_bytes, seconds)

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the byte and second ledgers (tracker included)."""
        return {
            "bytes_by_category": dict(self.tracker.bytes_by_category),
            "operations_by_category": dict(self.tracker.operations_by_category),
            "bytes_by_link": {
                f"{src}->{dst}": num_bytes
                for (src, dst), num_bytes in self.bytes_by_link.items()
            },
            "comm_seconds": self.comm_seconds,
            "seconds_by_category": dict(self.seconds_by_category),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict`."""
        self.tracker.bytes_by_category = {
            key: int(value) for key, value in state["bytes_by_category"].items()
        }
        self.tracker.operations_by_category = {
            key: int(value) for key, value in state["operations_by_category"].items()
        }
        self.bytes_by_link = {}
        for label, num_bytes in state["bytes_by_link"].items():
            src, dst = label.split("->")
            self.bytes_by_link[(int(src), int(dst))] = int(num_bytes)
        self.comm_seconds = float(state["comm_seconds"])
        self.seconds_by_category = {
            key: float(value) for key, value in state["seconds_by_category"].items()
        }

    # -- collectives -----------------------------------------------------------

    @staticmethod
    def _payload_elements(num_elements: int, compression) -> int:
        """The per-node element count actually placed on the wire.

        ``compression`` (a :class:`~repro.compression.kernels.Compressor`, or
        ``None``) converts the logical vector length into the kernel's true
        transmitted size — index/value pairs for sparse formats, level bits
        plus scale for quantized ones — so link ledgers, byte totals, and
        network seconds all price the compressed payload instead of ``d``.
        """
        if num_elements < 0:
            raise CommunicationError(f"num_elements must be non-negative, got {num_elements}")
        if compression is None:
            return num_elements
        return int(compression.transmitted_elements(num_elements))

    def allreduce(
        self, num_elements: int, num_workers: int, category: str, compression=None
    ) -> CollectiveCharge:
        """Price one AllReduce of ``num_elements`` across ``num_workers``."""
        num_elements = self._payload_elements(num_elements, compression)
        loads = self.topology.allreduce_link_elements(num_elements, num_workers)
        seconds = self._seconds(
            self.topology.allreduce_critical_elements(num_elements, num_workers),
            self.topology.allreduce_rounds(num_workers),
        )
        return self._charge(loads, seconds, category)

    def broadcast(
        self, num_elements: int, num_workers: int, category: str, compression=None
    ) -> CollectiveCharge:
        """Price one root-to-all broadcast of ``num_elements``."""
        num_elements = self._payload_elements(num_elements, compression)
        loads = self.topology.broadcast_link_elements(num_elements, num_workers)
        seconds = self._seconds(
            self.topology.broadcast_critical_elements(num_elements, num_workers),
            self.topology.broadcast_rounds(num_workers),
        )
        return self._charge(loads, seconds, category)

    def upload(
        self,
        num_elements: int,
        num_workers: int,
        category: str,
        worker_id: int = 0,
        compression=None,
    ) -> CollectiveCharge:
        """Price one point-to-point worker → coordinator upload.

        Used for the asynchronous protocol's local-state messages: every link
        on the topology's worker→coordinator path carries ``num_elements``
        (one hop on the star; multi-hop on the hierarchy, ring, and mesh).
        With a ``compression`` kernel the payload charged per hop is the
        kernel's transmitted size, never the dense vector.
        """
        num_elements = self._payload_elements(num_elements, compression)
        path = self.topology.upload_path(worker_id, num_workers)
        loads: Dict[Link, float] = {}
        for link in path:
            loads[link] = loads.get(link, 0.0) + float(num_elements)
        seconds = self._seconds(float(num_elements) * len(path), len(path))
        return self._charge(loads, seconds, category)

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view of the fabric state for logging."""
        return {
            "topology": self.topology.name,
            "network": self.network_name,
            "comm_seconds": self.comm_seconds,
            "seconds_by_category": dict(self.seconds_by_category),
            "bytes_by_link": {f"{src}->{dst}": b for (src, dst), b in self.bytes_by_link.items()},
            **self.tracker.snapshot(),
        }
