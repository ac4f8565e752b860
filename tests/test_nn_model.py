"""Tests for the Sequential model and its flat-parameter views."""

import numpy as np
import pytest

from helpers.oracles import average_models
from helpers.parity import make_cluster
from helpers.per_worker import backward, solo_step, train_batch
from helpers.shards import whole_then_sharded
from repro.exceptions import ModelNotBuiltError, ShapeError
from unittest import mock

from repro.nn.architectures import mlp
from repro.nn import batched as batched_module
from repro.nn import layers as layers_module
from repro.nn.batched import BatchedModel, BatchedPlane
from repro.nn.layers import BatchNorm, Conv2D, Dense, Flatten
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.optim.adam import Adam


def tiny_model(seed=0):
    return mlp(4, 3, hidden_units=(6,), seed=seed, name="tiny")


class TestConstructionAndShapes:
    def test_build_sets_shapes(self):
        model = Sequential([Dense(5, activation="relu"), Dense(2)]).build((3,), seed=0)
        assert model.input_shape == (3,)
        assert model.output_shape == (2,)
        assert model.num_parameters == (3 * 5 + 5) + (5 * 2 + 2)

    def test_unbuilt_model_raises(self):
        model = Sequential([Dense(5)])
        with pytest.raises(ModelNotBuiltError):
            model.forward(np.zeros((1, 3)))
        with pytest.raises(ModelNotBuiltError):
            model.get_parameters()

    def test_same_seed_gives_identical_models(self):
        a, b = tiny_model(seed=3), tiny_model(seed=3)
        np.testing.assert_array_equal(a.get_parameters(), b.get_parameters())

    def test_different_seeds_give_different_models(self):
        a, b = tiny_model(seed=1), tiny_model(seed=2)
        assert not np.array_equal(a.get_parameters(), b.get_parameters())


class TestFlatParameterViews:
    def test_round_trip(self):
        model = tiny_model()
        flat = model.get_parameters()
        modified = flat + 1.5
        model.set_parameters(modified)
        np.testing.assert_array_equal(model.get_parameters(), modified)

    def test_set_parameters_rejects_wrong_size(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.set_parameters(np.zeros(model.num_parameters + 1))

    def test_gradients_match_parameter_layout(self):
        model = tiny_model()
        train_batch(model, np.random.default_rng(0).normal(size=(8, 4)), np.zeros(8, dtype=int))
        grads = model.gradients_view()
        assert grads.shape == (model.num_parameters,)
        assert np.any(grads != 0)

    def test_buffers_round_trip(self):
        model = Sequential([Dense(4, activation="relu"), BatchNorm(), Dense(2)]).build((3,), seed=0)
        assert model.num_buffers == 8  # running mean + var of 4 channels
        buffers = model.get_buffers()
        model.set_buffers(buffers + 0.5)
        np.testing.assert_allclose(model.get_buffers(), buffers + 0.5)

    def test_clone_is_independent(self):
        model = tiny_model()
        clone = model.clone()
        clone.set_parameters(clone.get_parameters() * 0.0)
        assert not np.array_equal(model.get_parameters(), clone.get_parameters())

    def test_cluster_average_is_the_average_model(self):
        cluster = make_cluster("batched", num_workers=3)
        cluster.step_all()
        np.testing.assert_allclose(
            cluster.average_parameters(),
            average_models(worker.model for worker in cluster.workers),
            rtol=1e-15,
        )


class TestTrainingAndEvaluation:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 4))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        model = mlp(4, 2, hidden_units=(8,), seed=0)
        optimizer = Adam(0.01)
        initial = model.evaluate(x, y)[0]
        for _ in range(60):
            train_batch(model, x, y)
            model.set_parameters(solo_step(optimizer, model.get_parameters(), model.gradients_view()))
        final_loss, final_accuracy = model.evaluate(x, y)
        assert final_loss < initial
        assert final_accuracy > 0.9

    def test_evaluate_empty_dataset(self):
        model = tiny_model()
        assert model.evaluate(np.zeros((0, 4)), np.zeros(0, dtype=int)) == (0.0, 0.0)

    def test_evaluate_rejects_misaligned_data(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.evaluate(np.zeros((3, 4)), np.zeros(2, dtype=int))


class TransposeSpy(np.ndarray):
    """A weight view that counts reads of its ``.T`` (the input-gradient operand)."""

    reads = 0
    tracked = False  # set on the one weight view; arrays derived from it stay False

    @property
    def T(self):
        TransposeSpy.reads += self.tracked
        return np.asarray(self).T


FIRST_LAYER_MODELS = {
    "dense": ((6,), lambda: [Dense(8, activation="relu"), Dense(3)]),
    "conv": ((6, 6, 2), lambda: [Conv2D(4, 3, activation="relu"), Flatten(), Dense(3)]),
    "flatten": ((3, 2), lambda: [Flatten(), Dense(5, activation="relu"), Dense(3)]),
}


@pytest.mark.parametrize(
    "dtype", [np.float64, pytest.param(np.float32, marks=pytest.mark.float32_smoke)]
)
@pytest.mark.parametrize("first", sorted(FIRST_LAYER_MODELS))
class TestTrainingFormsNoInputGradient:
    """Training skips the first layer's ∂L/∂input; nothing else moves.

    Both training paths are held to it: the engine's stacked pass and the
    per-worker oracle's lone model (``helpers.per_worker.train_batch``).
    """

    def build(self, first, dtype, seed=0):
        input_shape, layers = FIRST_LAYER_MODELS[first]
        return Sequential(layers()).build(input_shape, seed=seed, dtype=dtype), input_shape

    def test_per_worker_gradients_are_byte_identical(self, first, dtype, monkeypatch):
        model, input_shape = self.build(first, dtype)
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(5,) + input_shape), rng.integers(0, 3, size=5)
        folds = mock.Mock(side_effect=layers_module.col2im)
        monkeypatch.setattr(layers_module, "col2im", folds)
        spied = model.layers[0 if first != "flatten" else 1]
        spied.weight = spied.weight.view(TransposeSpy)
        spied.weight.tracked = True
        TransposeSpy.reads = 0

        _, grad = SoftmaxCrossEntropy.gradient(model.forward(x, training=True), y)
        input_gradient = backward(model, grad)
        assert input_gradient.shape == x.shape and input_gradient.dtype == dtype
        assert (TransposeSpy.reads, folds.call_count) == (1, int(first == "conv"))
        reference = model.gradients_view().copy()

        model.gradients_view()[...] = 0.0
        train_batch(model, x, y)
        assert model.gradients_view().tobytes() == reference.tobytes()
        # A Dense or Conv2D first layer formed no W.T product and folded no
        # columns; behind a Flatten the Dense differentiates as it always did.
        skipped = first != "flatten"
        assert TransposeSpy.reads == (1 if skipped else 2)
        assert folds.call_count == int(first == "conv")

    def test_batched_gradients_are_byte_identical(self, first, dtype):
        # Once whole, once split into row shards (one per row here).
        with pytest.MonkeyPatch.context() as patch:
            for sharded in whole_then_sharded(patch):
                self.check_batched_gradients(first, dtype, sharded, patch)

    def check_batched_gradients(self, first, dtype, sharded, monkeypatch):
        workers = [self.build(first, dtype, seed=seed)[0] for seed in range(3)]
        input_shape = FIRST_LAYER_MODELS[first][0]
        rows = np.array([0, 2])  # a masked pass: the plane holds two of three workers
        matrices = [
            np.stack([getattr(workers[row], view)() for row in rows])
            for view in ("parameters_view", "gradients_view", "buffers_view")
        ]
        batched = BatchedModel(workers[0], BatchedPlane(workers[0], *matrices), workers)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 5) + input_shape).astype(dtype)
        y = rng.integers(0, 3, size=(2, 5))
        folds = mock.Mock(side_effect=batched_module.col2im)
        monkeypatch.setattr(batched_module, "col2im", folds)
        spied = 0 if first != "flatten" else 1
        operands = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            operands.append(b)
            return matmul(a, b, **kwargs)

        def products():
            # Products against the spied layer's W.T, in the model or any of
            # its row-shard models (each carves its own view of the plane).
            models = [batched, *batched._shard_models.values()]
            ours = [model.kernels[spied]._weight_T for model in models]
            return sum(any(b is operand for operand in ours) for b in operands)

        monkeypatch.setattr(np, "matmul", spy)
        _, grad = SoftmaxCrossEntropy.batched_gradient(
            batched.forward(x, training=True, rows=rows), y
        )
        input_gradient = batched.backward(grad)
        assert input_gradient.shape == x.shape and input_gradient.dtype == dtype
        assert (products(), folds.call_count) == (1, int(first == "conv"))
        reference = matrices[1].copy()
        # Row for row, the stacked gradients are the per-worker oracle's.
        for row, worker_x, worker_y, stacked in zip(rows, x, y, reference):
            train_batch(workers[row], worker_x, worker_y)
            np.testing.assert_allclose(stacked, workers[row].gradients_view(), rtol=1e-4, atol=1e-6)

        matrices[1][...] = 0.0
        batched.train_batch(x, y, rows=rows)
        assert matrices[1].tobytes() == reference.tobytes()
        # Each shard's kernel forms its input gradient once, unless it is first.
        assert len(batched._shard_models) == (2 if sharded else 0)
        skipped = first != "flatten"
        assert products() == 1 + (0 if skipped else max(1, len(batched._shard_models)))
        assert folds.call_count == int(first == "conv")
