"""Tests for the contiguous parameter plane and the cluster parameter matrix."""

import numpy as np
import pytest

from helpers.per_worker import train_batch

from repro.core.variance import model_variance
from repro.data.datasets import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.exceptions import ShapeError
from repro.nn.architectures import lenet5, mlp
from repro.nn.layers import BatchNorm, Dense, Dropout
from repro.nn.model import Sequential
from repro.optim.base import StackedOptimizer
from repro.optim.sgd import SGD


def tiny_model(seed=0):
    return mlp(4, 3, hidden_units=(6,), seed=seed, name="tiny")


class TestModelViews:
    def test_parameters_view_is_zero_copy(self):
        model = tiny_model()
        view = model.parameters_view()
        assert view is model.parameters_view()  # stable object, no re-materialization
        assert view.flags.c_contiguous and view.dtype == np.float64
        np.testing.assert_array_equal(view, model.get_parameters())

    def test_layer_arrays_are_views_into_the_plane(self):
        model = tiny_model()
        view = model.parameters_view()
        for array in model.parameter_arrays():
            assert np.shares_memory(array, view)
        grads = model.gradients_view()
        for array in model.gradient_arrays():
            assert np.shares_memory(array, grads)

    def test_view_stays_valid_across_set_parameters(self):
        model = tiny_model()
        view = model.parameters_view()
        replacement = np.linspace(0.0, 1.0, model.num_parameters)
        model.set_parameters(replacement)
        np.testing.assert_array_equal(view, replacement)  # same storage, new values

    def test_mutating_the_view_mutates_the_layers(self):
        model = tiny_model()
        model.parameters_view()[...] = 2.5
        np.testing.assert_array_equal(model.layers[0].weight, 2.5)

    def test_flat_layout_matches_layer_order(self):
        model = Sequential([Dense(4, activation="relu"), BatchNorm(), Dense(2)]).build((3,))
        expected = np.concatenate([a.reshape(-1) for a in model.parameter_arrays()])
        np.testing.assert_array_equal(model.parameters_view(), expected)
        expected_buffers = np.concatenate([a.reshape(-1) for layer in model.layers for a in layer.buffers()])
        np.testing.assert_array_equal(model.buffers_view(), expected_buffers)

    def test_gradients_flow_into_the_plane(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        train_batch(model, rng.normal(size=(8, 4)), np.zeros(8, dtype=int))
        assert np.any(model.gradients_view() != 0.0)

    def test_conv_architecture_gets_a_plane_too(self):
        model = lenet5(input_shape=(8, 8, 1), num_classes=3, seed=0)
        view = model.parameters_view()
        assert view.size == model.num_parameters
        for array in model.parameter_arrays():
            assert np.shares_memory(array, view)


class TestRebinding:
    def test_rebind_preserves_values_and_repoints_layers(self):
        model = tiny_model()
        before = model.get_parameters()
        storage = np.zeros(model.num_parameters)
        model.rebind_parameter_storage(storage)
        np.testing.assert_array_equal(storage, before)
        assert model.parameters_view() is storage
        for array in model.parameter_arrays():
            assert np.shares_memory(array, storage)

    def test_rebind_rejects_bad_storage(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.rebind_parameter_storage(np.zeros(model.num_parameters + 1))
        with pytest.raises(ShapeError):
            model.rebind_parameter_storage(np.zeros(model.num_parameters, dtype=np.float32))

    def test_training_after_rebind_updates_external_storage(self):
        model = tiny_model()
        storage = np.empty(model.num_parameters)
        model.rebind_parameter_storage(storage)
        before = storage.copy()
        rng = np.random.default_rng(1)
        train_batch(model, rng.normal(size=(8, 4)), np.zeros(8, dtype=int))
        stack = StackedOptimizer([SGD(0.1)], model.num_parameters)
        stack.step_rows(model.parameters_view()[None], model.gradients_view()[None])
        assert not np.array_equal(storage, before)


class TestStructuralClone:
    def test_clone_copies_parameters_and_buffers(self):
        model = Sequential(
            [Dense(4, activation="relu"), BatchNorm(), Dropout(0.2, seed=5), Dense(2)]
        ).build((3,), seed=2)
        model.set_buffers(np.arange(model.num_buffers, dtype=np.float64))
        clone = model.clone()
        np.testing.assert_array_equal(clone.get_parameters(), model.get_parameters())
        np.testing.assert_array_equal(clone.get_buffers(), model.get_buffers())

    def test_clone_owns_independent_storage(self):
        model = tiny_model()
        clone = model.clone()
        assert not np.shares_memory(clone.parameters_view(), model.parameters_view())
        clone.parameters_view()[...] = 0.0
        assert np.any(model.parameters_view() != 0.0)

    def test_clone_does_not_carry_activation_caches(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        train_batch(model, rng.normal(size=(8, 4)), np.zeros(8, dtype=int))
        clone = model.clone()
        assert clone.layers[0]._cache_x is None

    def test_clone_forward_matches_original(self):
        model = lenet5(input_shape=(8, 8, 1), num_classes=3, seed=0)
        clone = model.clone()
        x = np.random.default_rng(2).normal(size=(4, 8, 8, 1))
        np.testing.assert_array_equal(
            model.forward(x, training=False), clone.forward(x, training=False)
        )


class TestClusterParameterMatrix:
    def make_cluster(self, num_workers=3):
        rng = np.random.default_rng(0)
        workers = []
        for worker_id in range(num_workers):
            x = rng.normal(size=(20, 4))
            y = rng.integers(0, 3, size=20)
            workers.append(
                Worker(worker_id, tiny_model(seed=worker_id), Dataset(x, y, 3), SGD(0.05),
                       batch_size=5, seed=worker_id)
            )
        return SimulatedCluster(workers)

    def test_rows_alias_worker_models(self):
        cluster = self.make_cluster()
        matrix = cluster.parameter_matrix
        assert matrix.shape == (3, cluster.model_dimension)
        for row, worker in zip(matrix, cluster.workers):
            assert worker.parameters_view() is not None
            assert np.shares_memory(row, worker.parameters_view())
            np.testing.assert_array_equal(row, worker.get_parameters())

    def test_broadcast_writes_every_row(self):
        cluster = self.make_cluster()
        flat = np.linspace(-1.0, 1.0, cluster.model_dimension)
        cluster.broadcast_parameters(flat)
        for worker in cluster.workers:
            np.testing.assert_array_equal(worker.get_parameters(), flat)

    def test_broadcast_rejects_wrong_shape(self):
        cluster = self.make_cluster()
        with pytest.raises(ShapeError):
            cluster.broadcast_parameters(np.zeros(cluster.model_dimension + 1))

    def test_steps_update_the_matrix_rows(self):
        cluster = self.make_cluster()
        before = cluster.parameter_matrix.copy()
        cluster.step_all()
        assert not np.array_equal(cluster.parameter_matrix, before)

    def test_drift_matrix_matches_per_worker_drifts(self):
        cluster = self.make_cluster()
        cluster.step_all()
        reference = np.zeros(cluster.model_dimension)
        drifts = cluster.drift_matrix(reference)
        for row, worker in zip(drifts, cluster.workers):
            np.testing.assert_array_equal(row, worker.drift_from(reference))
        with pytest.raises(ShapeError):
            cluster.drift_matrix(np.zeros(cluster.model_dimension + 2))

    def test_synchronize_equalizes_rows(self):
        cluster = self.make_cluster()
        cluster.step_all()
        average = cluster.synchronize()
        np.testing.assert_array_equal(cluster.parameter_matrix, np.broadcast_to(
            average, cluster.parameter_matrix.shape))
        assert model_variance(cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)
