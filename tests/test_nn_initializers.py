"""Tests for weight initializers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.initializers import (
    get_initializer,
    glorot_uniform,
    he_normal,
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


class TestOtherInitializers:
    def test_zeros_and_ones(self, rng):
        assert np.all(zeros_init((5, 5), 5, 5, rng) == 0.0)
        assert np.all(ones_init((5,), 5, 5, rng) == 1.0)


class TestGetInitializer:
    def test_resolves_names(self):
        assert get_initializer("he_normal") is he_normal
        assert get_initializer("glorot_uniform") is glorot_uniform

    @pytest.mark.parametrize("value", [he_normal, ["he_normal"]], ids=["callable", "list"])
    def test_only_names_resolve(self, value):
        # The table resolves names; an object is refused like an unknown name.
        with pytest.raises(
            ConfigurationError,
            match=r"unknown initializer .*; known: \['glorot_uniform', 'he_normal'\]",
        ):
            get_initializer(value)

    @pytest.mark.parametrize("name", ["not-a-real-initializer", "lecun_normal", "zeros"])
    def test_unknown_name_raises(self, name):
        with pytest.raises(ConfigurationError):
            get_initializer(name)

    def test_determinism_per_seed(self):
        a = glorot_uniform((10, 10), 10, 10, np.random.default_rng(3))
        b = glorot_uniform((10, 10), 10, 10, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
