"""Tests for the communication tracker and the network models."""

import pytest

from repro.distributed.comm import CommunicationTracker
from repro.distributed.network import (
    BALANCED_NETWORK,
    FL_NETWORK,
    HPC_NETWORK,
    NetworkModel,
    get_network,
)
from repro.exceptions import ConfigurationError


class TestTracker:
    def test_accumulates_by_category(self):
        tracker = CommunicationTracker()
        tracker.record_transfer(1600, "model-sync")
        tracker.record_transfer(32, "fda-state")
        tracker.record_transfer(32, "fda-state")
        assert tracker.bytes_for("model-sync") == 1600
        assert tracker.bytes_for("fda-state") == 64
        assert tracker.operations_for("fda-state") == 2
        assert tracker.total_bytes == tracker.bytes_for("model-sync") + tracker.bytes_for("fda-state")

    def test_unknown_category_is_zero(self):
        assert CommunicationTracker().bytes_for("nothing") == 0


class TestNetworkModel:
    def test_transfer_time_scales_with_bytes(self):
        network = NetworkModel("test", bandwidth_bits_per_second=1e9, latency_seconds=0.0)
        assert network.transfer_time(1e9 / 8) == pytest.approx(1.0)

    def test_latency_added_per_operation(self):
        network = NetworkModel("test", bandwidth_bits_per_second=1e12, latency_seconds=0.01)
        assert network.transfer_time(1000, num_operations=5) == pytest.approx(0.05, rel=0.01)

    def test_fl_network_is_much_slower_than_hpc(self):
        num_bytes = 1e9
        assert FL_NETWORK.transfer_time(num_bytes) > 50 * HPC_NETWORK.transfer_time(num_bytes)

    def test_balanced_between_the_two(self):
        num_bytes = 1e9
        assert (
            HPC_NETWORK.transfer_time(num_bytes)
            < BALANCED_NETWORK.transfer_time(num_bytes)
            < FL_NETWORK.transfer_time(num_bytes)
        )

    def test_get_network(self):
        assert get_network("fl") is FL_NETWORK
        with pytest.raises(ConfigurationError):
            get_network("wifi")

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            NetworkModel("bad", bandwidth_bits_per_second=0.0)
