"""Property tests for the communication fabric: topologies, charges, timing.

The central conservation law: the fabric prices every collective one way —
each link it touches carries ``round(elements × itemsize)`` bytes and the
collective's total is the sum of those link bytes — so on every topology,
dtype, collective, payload and loss setting the tracker total equals the
per-link ledger sum equals the per-category sum, *exactly*.  Totals are never
below the information-theoretic minimum (``K − 1`` workers must move their
vector at least once), and the star reproduces the paper's accounting
(``K`` worker uploads of the full vector).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.kernels import QuantizationCompressor, TopKCompressor
from repro.distributed.network import FL_NETWORK, HPC_NETWORK
from repro.distributed.topology import (
    Fabric,
    GossipTopology,
    HierarchicalTopology,
    NAMED_TOPOLOGIES,
    RingTopology,
    SERVER,
    StarTopology,
    Topology,
    get_topology,
)
from repro.exceptions import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

ALL_TOPOLOGIES = sorted(NAMED_TOPOLOGIES)

#: A bare fabric prices 4-byte (float32) elements.
ITEMSIZE = Fabric().itemsize


#: The information-theoretic floor for one exact AllReduce: all but one worker
#: must move their vector at least once.
def info_min_bytes(num_elements: int, num_workers: int) -> int:
    return (num_workers - 1) * num_elements * ITEMSIZE


@st.composite
def allreduce_cases(draw):
    num_elements = draw(st.integers(min_value=1, max_value=200_000))
    num_workers = draw(st.integers(min_value=2, max_value=24))
    return num_elements, num_workers


#: The fabrics the conservation law is checked on.
CONSERVATION_TOPOLOGIES = {
    "star": StarTopology,
    "ring": RingTopology,
    "hierarchical(2)": lambda: HierarchicalTopology(2),
    "hierarchical(4)": lambda: HierarchicalTopology(4),
    "gossip(3, 2)": lambda: GossipTopology(3, 2),
}
#: Dense (``None``) and compressed payloads.
PAYLOADS = {
    "dense": lambda: None,
    "topk": lambda: TopKCompressor(0.1),
    "quantization": lambda: QuantizationCompressor(bits=8),
}
COLLECTIVES = ("allreduce", "broadcast", "upload")


def issue(fabric: Fabric, collective: str, num_elements, num_workers, payload, worker):
    """Issue one collective, booked under its own name as the category."""
    if collective == "upload":
        return fabric.upload(
            num_elements, num_workers, collective, worker % num_workers, compression=payload
        )
    return getattr(fabric, collective)(num_elements, num_workers, collective, compression=payload)


class TestConservation:
    @settings(max_examples=300, deadline=None)
    @given(
        topology=st.sampled_from(sorted(CONSERVATION_TOPOLOGIES)),
        num_workers=st.integers(min_value=1, max_value=40),
        dtype=st.sampled_from(["float32", "float64"]),
        loss_rate=st.sampled_from([0.0, 0.3]),
        calls=st.lists(
            st.tuples(
                st.sampled_from(COLLECTIVES),
                st.integers(min_value=0, max_value=300_000),
                st.sampled_from(sorted(PAYLOADS)),
                st.integers(min_value=0, max_value=39),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_tracker_total_equals_link_sum_equals_category_sum(
        self, topology, num_workers, dtype, loss_rate, calls
    ):
        fabric = Fabric(
            topology=CONSERVATION_TOPOLOGIES[topology](), itemsize=np.dtype(dtype).itemsize
        )
        if loss_rate:
            fabric.injector = FaultInjector(FaultPlan(loss_rate=loss_rate, seed=1), num_workers)
        charged = 0
        for collective, num_elements, payload, worker in calls:
            charged += issue(
                fabric, collective, num_elements, num_workers, PAYLOADS[payload](), worker
            ).num_bytes
        tracker = fabric.tracker
        assert charged == tracker.total_bytes
        assert tracker.total_bytes == sum(fabric.bytes_by_link.values())
        assert tracker.total_bytes == sum(tracker.bytes_by_category.values())

    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    @settings(max_examples=40, deadline=None)
    @given(case=allreduce_cases())
    def test_allreduce_bytes_equal_link_sum_and_respect_info_minimum(self, name, case):
        num_elements, num_workers = case
        topology = get_topology(name)
        fabric = Fabric(topology=topology)
        charge = fabric.allreduce(num_elements, num_workers, "model-sync")
        link_elements = topology.allreduce_link_elements(num_elements, num_workers)
        # Every link is priced on its own; the total is their sum ...
        assert charge.num_bytes == sum(
            round(elements * ITEMSIZE) for elements in link_elements.values()
        )
        # ... and the same bytes landed on the fabric's per-link ledger.
        assert sum(fabric.bytes_by_link.values()) == charge.num_bytes
        # Information-theoretic minimum.
        assert charge.num_bytes >= info_min_bytes(num_elements, num_workers)

    @settings(max_examples=40, deadline=None)
    @given(case=allreduce_cases())
    def test_ring_loads_every_forward_link_with_its_share(self, case):
        num_elements, num_workers = case
        fabric = Fabric(topology=RingTopology())
        charge = fabric.allreduce(num_elements, num_workers, "model-sync")
        # Whole chunks: the total is exactly 2(K−1)·n elements ...
        assert charge.num_bytes == 2 * (num_workers - 1) * num_elements * ITEMSIZE
        # ... on the K forward links, each within one chunk pair of the
        # average 2(K−1)/K·n and a whole number of elements.
        forward = {(k, (k + 1) % num_workers) for k in range(num_workers)}
        assert set(fabric.bytes_by_link) == forward
        share = 2 * (num_workers - 1) / num_workers * num_elements * ITEMSIZE
        for num_bytes in fabric.bytes_by_link.values():
            assert num_bytes % ITEMSIZE == 0
            assert abs(num_bytes - share) < 2 * ITEMSIZE

    @settings(max_examples=40, deadline=None)
    @given(case=allreduce_cases())
    def test_star_charges_the_papers_k_uploads(self, case):
        num_elements, num_workers = case
        fabric = Fabric(topology=StarTopology())
        charge = fabric.allreduce(num_elements, num_workers, "model-sync")
        assert charge.num_bytes == num_workers * num_elements * ITEMSIZE
        assert fabric.bytes_by_link == {
            (worker, SERVER): num_elements * ITEMSIZE for worker in range(num_workers)
        }

    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    @settings(max_examples=20, deadline=None)
    @given(case=allreduce_cases())
    def test_broadcast_bytes_equal_link_sum(self, name, case):
        num_elements, num_workers = case
        topology = get_topology(name)
        fabric = Fabric(topology=topology)
        charge = fabric.broadcast(num_elements, num_workers, "model-sync")
        link_bytes = sum(
            topology.broadcast_link_elements(num_elements, num_workers).values()
        ) * ITEMSIZE
        assert charge.num_bytes == link_bytes
        # Reaching K - 1 receivers needs at least K - 1 transmissions.
        assert charge.num_bytes >= info_min_bytes(num_elements, num_workers)

    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    def test_degenerate_cases_are_free(self, name):
        topology = get_topology(name)
        fabric = Fabric(topology=topology)
        assert fabric.allreduce(0, 8, "x").num_bytes == 0
        assert fabric.allreduce(100, 1, "x").num_bytes == 0
        assert fabric.broadcast(100, 1, "x").num_bytes == 0


class TestTopologyStructure:
    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    def test_links_cover_all_loaded_links(self, name):
        topology = get_topology(name)
        links = set(topology.links(9))
        for link in topology.allreduce_link_elements(64, 9):
            assert link in links
        for link in topology.broadcast_link_elements(64, 9):
            assert link in links

    def test_get_topology_lookup(self):
        assert isinstance(get_topology("star"), StarTopology)
        assert isinstance(get_topology("ring"), RingTopology)
        assert isinstance(get_topology("hierarchical"), HierarchicalTopology)
        assert isinstance(get_topology("gossip"), GossipTopology)
        ring = RingTopology()
        assert get_topology(ring) is ring
        with pytest.raises(ConfigurationError):
            get_topology("torus")

    def test_hierarchical_group_size_validation(self):
        with pytest.raises(ConfigurationError):
            HierarchicalTopology(group_size=1)

    def test_gossip_validation(self):
        with pytest.raises(ConfigurationError):
            GossipTopology(degree=0)
        with pytest.raises(ConfigurationError):
            GossipTopology(rounds=0)

    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    @pytest.mark.parametrize("num_workers", [2, 5, 9])
    def test_upload_paths_use_real_links(self, name, num_workers):
        topology = get_topology(name)
        links = set(topology.links(num_workers))
        for worker in range(num_workers):
            path = topology.upload_path(worker, num_workers)
            for link in path:
                assert link in links, f"{name}: upload link {link} not in topology"
            # The path must actually arrive at the coordinator.
            if path:
                destination = path[-1][1]
                assert destination in (SERVER, 0)
                for first, second in zip(path, path[1:]):
                    assert first[1] == second[0]

    def test_ring_upload_takes_the_short_way_round(self):
        ring = RingTopology()
        # Worker 2 of 8 goes backward (2 hops), worker 6 forward (2 hops).
        assert ring.upload_path(2, 8) == [(2, 1), (1, 0)]
        assert ring.upload_path(6, 8) == [(6, 7), (7, 0)]
        assert ring.upload_path(0, 8) == []  # the coordinator itself
        assert len(ring.upload_path(4, 8)) == 4  # worst case: K/2 hops


class TestFabricTiming:
    def test_no_network_means_no_virtual_seconds(self):
        fabric = Fabric(topology=StarTopology())
        charge = fabric.allreduce(10_000, 8, "model-sync")
        assert charge.seconds == 0.0
        assert fabric.comm_seconds == 0.0

    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    def test_fl_is_slower_than_hpc(self, name):
        slow = Fabric(topology=get_topology(name), network=FL_NETWORK)
        fast = Fabric(topology=get_topology(name), network=HPC_NETWORK)
        assert (
            slow.allreduce(100_000, 8, "x").seconds
            > fast.allreduce(100_000, 8, "x").seconds
        )

    def test_ring_pays_more_latency_rounds_than_star(self):
        # With a latency-dominated network the ring's 2(K-1) sequential hops
        # must cost more time than the star's 2.
        star = Fabric(topology=StarTopology(), network=FL_NETWORK)
        ring = Fabric(topology=RingTopology(), network=FL_NETWORK)
        assert ring.allreduce(10, 16, "x").seconds > star.allreduce(10, 16, "x").seconds

    def test_seconds_accumulate_by_category(self):
        fabric = Fabric(topology=StarTopology(), network=FL_NETWORK)
        fabric.allreduce(1000, 4, "model-sync")
        fabric.allreduce(10, 4, "fda-state")
        assert fabric.seconds_by_category["model-sync"] > 0
        assert fabric.seconds_by_category["fda-state"] > 0
        assert fabric.comm_seconds == pytest.approx(
            sum(fabric.seconds_by_category.values())
        )

    def test_upload_charges_one_hop_on_the_star(self):
        fabric = Fabric(topology=StarTopology())
        charge = fabric.upload(7, 5, "fda-state", worker_id=3)
        assert charge.num_bytes == 7 * ITEMSIZE
        assert fabric.tracker.operations_for("fda-state") == 1

    def test_upload_charges_per_hop_on_the_hierarchy(self):
        fabric = Fabric(topology=HierarchicalTopology(group_size=2))
        # Worker 3 is a group member: member -> head -> root, two hops.
        charge = fabric.upload(7, 6, "fda-state", worker_id=3)
        assert charge.num_bytes == 2 * 7 * ITEMSIZE
        # Worker 2 is its group's head: one hop to the root.
        head_charge = fabric.upload(7, 6, "fda-state", worker_id=2)
        assert head_charge.num_bytes == 7 * ITEMSIZE

    def test_snapshot_shape(self):
        fabric = Fabric(topology=RingTopology(), network=FL_NETWORK)
        fabric.allreduce(100, 4, "model-sync")
        snapshot = fabric.snapshot()
        assert snapshot["topology"] == "ring"
        assert snapshot["network"] == "fl"
        assert snapshot["comm_seconds"] > 0
        assert snapshot["total_bytes"] == fabric.tracker.total_bytes
        assert snapshot["bytes_by_link"]


class TestValidation:
    def test_negative_elements_rejected(self):
        from repro.exceptions import CommunicationError

        fabric = Fabric()
        with pytest.raises(CommunicationError):
            fabric.allreduce(-1, 4, "x")
        with pytest.raises(CommunicationError):
            fabric.broadcast(-1, 4, "x")
        with pytest.raises(CommunicationError):
            fabric.upload(-1, 4, "x")

    def test_topology_validate_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            StarTopology().validate(0)
