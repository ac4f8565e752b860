"""Properties of the one participation value (``repro.distributed.participation``).

``Participation.mean`` replaced three hand-written row averages — the plain
``mean(axis=0)``, the survivors' subset mean, and the normalized-weights
matmul — that the cluster, the compression plane and three server strategies
each chose between on their own.  These properties pin the replacement to
those expressions *byte for byte*, in both plane dtypes, and fix the algebra
the producers rely on: ``restrict`` is AND and never widens, and a cluster
with neither a population nor a crash plan hands out ``Participation()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.parity import make_cluster
from repro.distributed.participation import Participation
from repro.exceptions import ConfigurationError, ShapeError
from repro.faults import FaultPlan

DTYPES = (np.float64, np.float32)


@st.composite
def cases(draw):
    """A random ``(K, d)`` matrix with a non-empty mask and a weight vector."""
    num_rows = draw(st.integers(1, 9))
    dimension = draw(st.integers(1, 17))
    seed = draw(st.integers(0, 2**32 - 1))
    dtype = draw(st.sampled_from(DTYPES))
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(num_rows, dimension)).astype(dtype)
    mask = rng.random(num_rows) < draw(st.floats(0.1, 1.0))
    mask[int(rng.integers(num_rows))] = True
    weights = rng.integers(0, 50, size=num_rows).astype(np.float64)
    weights[int(rng.integers(num_rows))] += 1.0
    return matrix, mask, weights


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


class TestMeanIsTheThreeKernelsItReplaces:
    @settings(max_examples=120, deadline=None)
    @given(cases())
    def test_lockstep_is_plain_mean(self, case):
        matrix, _, _ = case
        assert_same_bytes(Participation().mean(matrix), matrix.mean(axis=0))
        everyone = Participation(mask=np.ones(len(matrix), dtype=bool))
        assert_same_bytes(everyone.mean(matrix), matrix.mean(axis=0))

    @settings(max_examples=120, deadline=None)
    @given(cases())
    def test_mask_is_subset_mean(self, case):
        matrix, mask, _ = case
        expected = matrix.mean(axis=0) if mask.all() else matrix[mask].mean(axis=0)
        assert_same_bytes(Participation(mask=mask).mean(matrix), expected)

    @settings(max_examples=120, deadline=None)
    @given(cases())
    def test_weights_are_the_normalized_matmul(self, case):
        matrix, mask, weights = case
        plain = (weights / weights.sum()).astype(matrix.dtype) @ matrix
        assert_same_bytes(Participation(weights=weights).mean(matrix), plain)
        masked = np.where(mask, weights, 0.0)
        if masked.sum() > 0.0:
            expected = (masked / masked.sum()).astype(matrix.dtype) @ matrix
            assert_same_bytes(Participation(mask, weights).mean(matrix), expected)

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_weights_zeroed_by_the_mask_fall_back_to_the_subset_mean(self, case):
        matrix, mask, weights = case
        if mask.all():
            mask[0] = False
        if not mask.any():
            return  # K == 1: nothing can be zeroed and still leave a member
        # Weight only on masked-out rows: the mask zeroes every one of them.
        disjoint = np.where(mask, 0.0, weights + 1.0)
        participation = Participation(mask, disjoint)
        assert participation.normalized() is None
        assert_same_bytes(participation.mean(matrix), matrix[mask].mean(axis=0))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_empty_selection_is_finite_and_writes_nothing(self, dtype):
        matrix = np.arange(12, dtype=dtype).reshape(4, 3)
        nobody = Participation(mask=np.zeros(4, dtype=bool), weights=np.ones(4))
        assert_same_bytes(nobody.mean(matrix), matrix.mean(axis=0))
        before = matrix.copy()
        matrix[nobody.rows] = -1.0
        np.testing.assert_array_equal(matrix, before)
        assert nobody.indices(4).size == 0


class TestAlgebra:
    @settings(max_examples=120, deadline=None)
    @given(cases(), st.integers(0, 2**32 - 1))
    def test_restrict_is_and_and_never_widens(self, case, seed):
        _, mask, weights = case
        other = np.random.default_rng(seed).random(mask.size) < 0.5
        base = Participation(mask, weights)
        narrowed = base.restrict(other)
        np.testing.assert_array_equal(narrowed.mask, mask & other)
        assert not (narrowed.mask & ~mask).any()
        np.testing.assert_array_equal(narrowed.weights, weights)
        # Without a mask the restriction is the mask itself; None restricts nothing.
        np.testing.assert_array_equal(Participation().restrict(other).mask, other)
        assert base.restrict(None) is base

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def test_rows_and_indices_agree_with_the_mask(self, case):
        matrix, mask, _ = case
        participation = Participation(mask=mask)
        np.testing.assert_array_equal(
            participation.indices(len(matrix)), np.flatnonzero(mask)
        )
        written = matrix.copy()
        written[participation.rows] = 7.0
        assert (written[mask] == 7.0).all()
        np.testing.assert_array_equal(written[~mask], matrix[~mask])
        assert Participation().rows == slice(None)

    def test_value_is_frozen_and_owns_its_arrays(self):
        mask = np.array([True, False, True])
        participation = Participation(mask=mask, weights=[1.0, 2.0, 3.0])
        mask[1] = True  # the caller's array is not the participation's
        assert participation.mask.tolist() == [True, False, True]
        with pytest.raises(ValueError):
            participation.mask[0] = False
        with pytest.raises(ValueError):
            participation.weights[0] = 9.0
        with pytest.raises(AttributeError):
            participation.mask = None

    def test_bad_input_is_named(self):
        with pytest.raises(ConfigurationError):
            Participation(weights=[1.0, -1.0])
        with pytest.raises(ConfigurationError):
            Participation(weights=[0.0, 0.0])
        with pytest.raises(ConfigurationError):
            Participation(weights=[1.0, np.inf])
        with pytest.raises(ShapeError):
            Participation(mask=[True, False], weights=[1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            Participation(mask=np.ones((2, 2), dtype=bool))


class TestClusterProducers:
    def test_members_is_lockstep_without_population_or_crash_plan(self):
        # The bit-exact path allocates no mask: the same value every time.
        cluster = make_cluster("batched", num_workers=3)
        members = cluster.members
        assert members.mask is None and members.weights is None and members.lockstep
        assert cluster.members is members
        assert cluster.begin_round() is members
        # A plan without crashes (lossy links only) leaves liveness out too.
        lossy = make_cluster("batched", num_workers=3, faults=FaultPlan(loss_rate=0.2))
        assert lossy.members.lockstep

    def test_members_folds_liveness_and_begin_round_folds_the_draw(self):
        cluster = make_cluster(
            "batched", num_workers=4, faults=FaultPlan(crash_rate=1e-12, seed=3)
        )
        cluster.bind_members(Participation(mask=[True, True, True, False]))
        cluster.faults.alive[1] = False
        cluster.faults._recovery_round[1] = 10**6
        assert cluster.members.mask.tolist() == [True, False, True, False]
        stepped = cluster.begin_round(np.array([False, True, True, True]))
        assert stepped.mask.tolist() == [False, False, True, False]
        assert cluster.participants is stepped

    def test_bind_members_rejects_a_misfit_cohort(self):
        cluster = make_cluster("batched", num_workers=3)
        with pytest.raises(ShapeError):
            cluster.bind_members(Participation(mask=[True, False]))
        with pytest.raises(ConfigurationError):
            cluster.bind_members(Participation(mask=[False, False, False]))
