"""Tests for the Sequential model and its flat-parameter views."""

import numpy as np
import pytest

from helpers.shards import whole_then_sharded
from repro.exceptions import ModelNotBuiltError, ShapeError
from unittest import mock

from repro.nn.architectures import mlp
from repro.nn import batched as batched_module
from repro.nn import layers as layers_module
from repro.nn.batched import BatchedModel, BatchedPlane
from repro.nn.layers import BatchNorm, Conv2D, Dense, Flatten
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential, average_models
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

    def test_summary_mentions_every_layer(self):
        model = tiny_model()
        text = model.summary()
        assert "tiny_dense0" in text and "Total trainable parameters" in text

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
        model.train_batch(np.random.default_rng(0).normal(size=(8, 4)), np.zeros(8, dtype=int))
        grads = model.get_gradients()
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

    def test_average_models(self):
        a, b = tiny_model(seed=1), tiny_model(seed=2)
        average = average_models([a, b])
        np.testing.assert_allclose(
            average, (a.get_parameters() + b.get_parameters()) / 2.0
        )


class TestTrainingAndEvaluation:
    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 4))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        model = mlp(4, 2, hidden_units=(8,), seed=0)
        optimizer = Adam(0.01)
        loss = SoftmaxCrossEntropy()
        initial = model.evaluate(x, y, loss)[0]
        for _ in range(60):
            model.train_batch(x, y, loss)
            model.set_parameters(optimizer.step(model.get_parameters(), model.get_gradients()))
        final_loss, final_accuracy = model.evaluate(x, y, loss)
        assert final_loss < initial
        assert final_accuracy > 0.9

    def test_predict_batches_consistently(self):
        model = tiny_model()
        x = np.random.default_rng(1).normal(size=(30, 4))
        np.testing.assert_allclose(model.predict(x, batch_size=7), model.predict(x, batch_size=30))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_predict_empty_input(self, dtype):
        model = tiny_model().to_dtype(dtype)
        empty, full = model.predict(np.zeros((0, 4))), model.predict(np.zeros((2, 4)))
        assert empty.shape == (0, 3)
        assert empty.dtype == full.dtype == np.dtype(dtype)

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
    """``train_batch`` skips the first layer's ∂L/∂input; nothing else moves."""

    def build(self, first, dtype, seed=0):
        input_shape, layers = FIRST_LAYER_MODELS[first]
        return Sequential(layers()).build(input_shape, seed=seed, dtype=dtype), input_shape

    def test_sequential_gradients_are_byte_identical(self, first, dtype, monkeypatch):
        model, input_shape = self.build(first, dtype)
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(5,) + input_shape), rng.integers(0, 3, size=5)
        loss = SoftmaxCrossEntropy()
        folds = mock.Mock(side_effect=layers_module.col2im)
        monkeypatch.setattr(layers_module, "col2im", folds)
        spied = model.layers[0 if first != "flatten" else 1]
        spied.weight = spied.weight.view(TransposeSpy)
        spied.weight.tracked = True
        TransposeSpy.reads = 0

        _, grad = loss.gradient(model.forward(x, training=True), y)
        input_gradient = model.backward(grad)
        assert input_gradient.shape == x.shape and input_gradient.dtype == dtype
        assert (TransposeSpy.reads, folds.call_count) == (1, int(first == "conv"))
        reference = model.gradients_view().copy()

        model.gradients_view()[...] = 0.0
        model.train_batch(x, y, loss)
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
        loss = SoftmaxCrossEntropy()
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
        _, grad = loss.batched_gradient(batched.forward(x, training=True, rows=rows), y)
        input_gradient = batched.backward(grad)
        assert input_gradient.shape == x.shape and input_gradient.dtype == dtype
        assert (products(), folds.call_count) == (1, int(first == "conv"))
        reference = matrices[1].copy()
        # Row for row, the stacked gradients are the sequential engine's.
        for row, worker_x, worker_y, stacked in zip(rows, x, y, reference):
            workers[row].train_batch(worker_x, worker_y, loss)
            np.testing.assert_allclose(stacked, workers[row].gradients_view(), rtol=1e-4, atol=1e-6)

        matrices[1][...] = 0.0
        batched.train_batch(x, y, loss, rows=rows)
        assert matrices[1].tobytes() == reference.tobytes()
        # Each shard's kernel forms its input gradient once, unless it is first.
        assert len(batched._shard_models) == (2 if sharded else 0)
        skipped = first != "flatten"
        assert products() == 1 + (0 if skipped else max(1, len(batched._shard_models)))
        assert folds.call_count == int(first == "conv")
