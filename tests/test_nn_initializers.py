"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.initializers import (
    get_initializer,
    glorot_normal,
    glorot_uniform,
    he_normal,
    he_uniform,
    lecun_normal,
    ones_init,
    zeros_init,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestGlorotUniform:
    def test_shape_and_bounds(self, rng):
        weights = glorot_uniform((50, 80), 50, 80, rng)
        limit = np.sqrt(6.0 / (50 + 80))
        assert weights.shape == (50, 80)
        assert np.all(np.abs(weights) <= limit)

    def test_zero_mean(self, rng):
        weights = glorot_uniform((200, 200), 200, 200, rng)
        assert abs(weights.mean()) < 0.01

    def test_rejects_bad_fans(self, rng):
        with pytest.raises(ConfigurationError):
            glorot_uniform((3, 3), 0, 3, rng)


class TestHeNormal:
    def test_standard_deviation(self, rng):
        weights = he_normal((400, 100), 400, 100, rng)
        expected = np.sqrt(2.0 / 400)
        assert weights.std() == pytest.approx(expected, rel=0.1)

    def test_he_uniform_bounds(self, rng):
        weights = he_uniform((64, 64), 64, 64, rng)
        assert np.all(np.abs(weights) <= np.sqrt(6.0 / 64))


class TestOtherInitializers:
    def test_glorot_normal_std(self, rng):
        weights = glorot_normal((300, 300), 300, 300, rng)
        assert weights.std() == pytest.approx(np.sqrt(2.0 / 600), rel=0.1)

    def test_lecun_normal_std(self, rng):
        weights = lecun_normal((500, 10), 500, 10, rng)
        assert weights.std() == pytest.approx(np.sqrt(1.0 / 500), rel=0.1)

    def test_zeros_and_ones(self, rng):
        assert np.all(zeros_init((5, 5), 5, 5, rng) == 0.0)
        assert np.all(ones_init((5,), 5, 5, rng) == 1.0)


class TestGetInitializer:
    def test_resolves_names(self):
        assert get_initializer("he_normal") is he_normal
        assert get_initializer("glorot_uniform") is glorot_uniform

    def test_passes_callables_through(self):
        def init(shape, fan_in, fan_out, rng):
            return np.full(shape, 1.0)

        assert get_initializer(init) is init

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            get_initializer("not-a-real-initializer")

    def test_determinism_per_seed(self):
        a = glorot_uniform((10, 10), 10, 10, np.random.default_rng(3))
        b = glorot_uniform((10, 10), 10, 10, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
