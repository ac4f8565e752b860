"""Tests for the variance algebra (Eq. 2 / Eq. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.variance import (
    average_drift,
    drift_matrix,
    model_variance,
    variance_from_drifts,
)
from repro.exceptions import ShapeError


def random_vectors(seed, num_workers, dimension, scale=1.0):
    rng = np.random.default_rng(seed)
    return [scale * rng.normal(size=dimension) for _ in range(num_workers)]


class TestModelVariance:
    def test_identical_models_have_zero_variance(self):
        vectors = [np.ones(5)] * 4
        assert model_variance(vectors) == 0.0

    def test_known_value(self):
        vectors = [np.array([0.0, 0.0]), np.array([2.0, 0.0])]
        # mean = (1, 0); squared distances are 1 and 1; variance = 1.
        assert model_variance(vectors) == pytest.approx(1.0)

    def test_requires_vectors(self):
        with pytest.raises(ShapeError):
            model_variance([])

    def test_requires_1d(self):
        with pytest.raises(ShapeError):
            model_variance([np.zeros((2, 2))])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_workers=st.integers(min_value=1, max_value=8),
        dimension=st.integers(min_value=1, max_value=40),
    )
    def test_equation4_identity(self, seed, num_workers, dimension):
        """Var(w) == mean ||u_k||^2 - ||mean u||^2 for any reference offset."""
        parameters = random_vectors(seed, num_workers, dimension)
        reference = np.random.default_rng(seed + 1).normal(size=dimension)
        drifts = drift_matrix(parameters, reference)
        assert variance_from_drifts(list(drifts)) == pytest.approx(
            model_variance(parameters), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_variance_is_offset_invariant(self, seed):
        parameters = random_vectors(seed, 5, 20)
        offset = np.random.default_rng(seed + 7).normal(size=20)
        shifted = [p + offset for p in parameters]
        assert model_variance(shifted) == pytest.approx(model_variance(parameters), rel=1e-9)

    def test_helper_terms(self):
        drifts = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        np.testing.assert_allclose(average_drift(drifts), [0.5, 0.5])

    def test_drift_matrix_validates_reference(self):
        with pytest.raises(ShapeError):
            drift_matrix([np.zeros(3)], np.zeros(4))

