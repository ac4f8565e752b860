"""Tests for the FedOpt server optimizers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.optim.server import FedAdam, FedAvgM


GLOBAL = np.array([1.0, 2.0, 3.0])
CLIENTS = [np.array([1.5, 2.5, 3.5]), np.array([1.0, 1.5, 2.5])]
#: The round's client mean, which is what the server aggregates.
MEAN = np.mean(CLIENTS, axis=0)


def plain_fedavg() -> FedAvgM:
    """Plain federated averaging: server learning rate 1, no momentum."""
    return FedAvgM(learning_rate=1.0, momentum=0.0)


class TestFedAvg:
    def test_aggregate_is_client_mean(self):
        new_global = plain_fedavg().aggregate(GLOBAL, MEAN)
        np.testing.assert_allclose(new_global, MEAN)

    def test_single_client_returns_that_client(self):
        new_global = plain_fedavg().aggregate(GLOBAL, CLIENTS[0])
        np.testing.assert_array_equal(new_global, CLIENTS[0])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2,\) does not match .* \(3,\)"):
            plain_fedavg().aggregate(GLOBAL, np.zeros(2))

    def test_rejects_a_matrix_of_clients(self):
        # The server steps on the round's mean; averaging the clients is the
        # strategy's, so their (n, d) rows are refused by shape.
        with pytest.raises(ShapeError, match=r"\(2, 3\) does not match .* \(3,\)"):
            plain_fedavg().aggregate(GLOBAL, np.stack(CLIENTS))


class TestFedAvgM:
    def test_first_round_moves_toward_clients(self):
        server = FedAvgM(learning_rate=1.0, momentum=0.9)
        new_global = server.aggregate(GLOBAL, MEAN)
        np.testing.assert_allclose(new_global, MEAN)

    def test_momentum_accumulates_across_rounds(self):
        server = FedAvgM(learning_rate=1.0, momentum=0.9)
        first = server.aggregate(GLOBAL, MEAN)
        # Same pseudo-gradient again: momentum should push further than a plain step.
        second = server.aggregate(first, np.mean([first + 1.0, first - 0.0], axis=0))
        plain = plain_fedavg().aggregate(first, np.mean([first + 1.0, first - 0.0], axis=0))
        assert np.linalg.norm(second - first) > np.linalg.norm(plain - first) * 0.9

    def test_reset_clears_velocity(self):
        server = FedAvgM()
        server.aggregate(GLOBAL, MEAN)
        server.reset()
        assert server._velocity is None and server.round_count == 0

    def test_invalid_momentum(self):
        with pytest.raises(ConfigurationError):
            FedAvgM(momentum=1.5)


class TestFedAdam:
    def test_moves_toward_client_average(self):
        server = FedAdam(learning_rate=0.5)
        new_global = server.aggregate(GLOBAL, MEAN)
        direction = MEAN - GLOBAL
        movement = new_global - GLOBAL
        assert np.dot(direction, movement) > 0  # moves in the right direction

    def test_converges_on_fixed_target(self):
        server = FedAdam(learning_rate=0.3)
        target = np.array([5.0, -2.0])
        global_params = np.zeros(2)
        for _ in range(300):
            global_params = server.aggregate(global_params, target)
        np.testing.assert_allclose(global_params, target, atol=0.2)

    def test_fedadam_rounds_counted(self):
        server = FedAdam()
        server.aggregate(GLOBAL, MEAN)
        server.aggregate(GLOBAL, MEAN)
        assert server.round_count == 2

    def test_invalid_learning_rate(self):
        with pytest.raises(ConfigurationError):
            FedAdam(learning_rate=0.0)

    def test_invalid_tau(self):
        with pytest.raises(ConfigurationError):
            FedAdam(tau=0.0)
