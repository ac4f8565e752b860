"""Tests for the variance monitors (Theorems 3.1 and 3.2).

The central property: for any set of worker drifts, the monitor's estimate
H(average state) must be an *over-estimate* of the true model variance
(deterministically for LinearFDA and the exact monitor, with high probability
for SketchFDA).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import VARIANTS, ExactMonitor, LinearMonitor, SketchMonitor, make_monitor
from repro.core.variance import variance_from_drifts
from repro.exceptions import CommunicationError, ConfigurationError


def random_drifts(seed, num_workers=5, dimension=60, scale=1.0):
    rng = np.random.default_rng(seed)
    return [scale * rng.normal(size=dimension) for _ in range(num_workers)]


def monitor_estimate(monitor, drifts):
    return monitor.estimate(monitor.average(monitor.local_states(np.array(drifts))))


class TestLinearMonitor:
    def test_state_contents(self):
        monitor = LinearMonitor(dimension=4, seed=0)
        drift = np.array([1.0, 2.0, 0.0, -1.0])
        drift_sq_norm, projection = monitor.local_state(drift)
        assert drift_sq_norm == pytest.approx(6.0)
        assert projection == pytest.approx(float(np.dot(monitor.direction, drift)))

    def test_direction_is_unit_norm(self):
        monitor = LinearMonitor(dimension=10, seed=1)
        assert np.linalg.norm(monitor.direction) == pytest.approx(1.0)

    def test_state_size_is_two_elements(self):
        monitor = LinearMonitor(dimension=100)
        assert monitor.state_num_elements(100) == 2

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_always_overestimates_variance(self, seed):
        monitor = LinearMonitor(dimension=60, seed=seed + 1)
        drifts = random_drifts(seed)
        estimate = monitor_estimate(monitor, drifts)
        true_variance = variance_from_drifts(drifts)
        assert estimate >= true_variance - 1e-9

    def test_perfect_direction_gives_tight_estimate(self):
        # When xi is exactly aligned with the average drift, H equals Var.
        drifts = random_drifts(3, num_workers=4, dimension=30)
        mean_drift = np.mean(drifts, axis=0)
        monitor = LinearMonitor(dimension=30)
        monitor.on_synchronization(mean_drift, np.zeros(30))
        estimate = monitor_estimate(monitor, drifts)
        assert estimate == pytest.approx(variance_from_drifts(drifts), rel=1e-9)

    def test_on_synchronization_updates_direction(self):
        monitor = LinearMonitor(dimension=5, seed=0)
        new_global = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        previous = np.zeros(5)
        monitor.on_synchronization(new_global, previous)
        np.testing.assert_allclose(monitor.direction, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_zero_direction_is_allowed(self):
        monitor = LinearMonitor(dimension=3, seed=0)
        monitor.on_synchronization(np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(monitor.direction, np.zeros(3))
        drifts = random_drifts(0, num_workers=3, dimension=3)
        assert monitor_estimate(monitor, drifts) >= variance_from_drifts(drifts) - 1e-12

    def test_rejects_a_row_of_another_width(self):
        monitor = LinearMonitor(dimension=3)
        with pytest.raises(CommunicationError):
            monitor.estimate(ExactMonitor().local_state(np.zeros(3)))

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            LinearMonitor(dimension=0)


class TestSketchMonitor:
    def test_state_size(self):
        monitor = SketchMonitor(depth=5, width=250)
        assert monitor.state_num_elements(10_000) == 1 + 5 * 250

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_overestimates_variance_with_high_probability(self, seed):
        monitor = SketchMonitor(depth=5, width=128, seed=17)
        drifts = random_drifts(seed, num_workers=4, dimension=80)
        estimate = monitor_estimate(monitor, drifts)
        true_variance = variance_from_drifts(drifts)
        # Allow a small slack: the guarantee is probabilistic (1 - delta).
        assert estimate >= true_variance * (1 - 0.15) - 1e-9

    def test_estimate_close_to_variance_for_large_sketch(self):
        monitor = SketchMonitor(depth=7, width=512, seed=3)
        drifts = random_drifts(11, num_workers=5, dimension=200)
        estimate = monitor_estimate(monitor, drifts)
        true_variance = variance_from_drifts(drifts)
        assert estimate == pytest.approx(true_variance, rel=0.3)

    def test_workers_share_the_same_sketch_operator(self):
        monitor = SketchMonitor(depth=3, width=32, seed=0)
        a = monitor.local_state(np.ones(50))
        b = monitor.local_state(np.ones(50))
        np.testing.assert_array_equal(a, b)

    def test_rejects_a_row_of_another_width(self):
        monitor = SketchMonitor(depth=3, width=16)
        with pytest.raises(CommunicationError):
            monitor.estimate(np.array([1.0, 0.0]))


class TestExactMonitor:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_recovers_exact_variance(self, seed):
        monitor = ExactMonitor()
        drifts = random_drifts(seed, num_workers=6, dimension=40)
        estimate = monitor_estimate(monitor, drifts)
        assert estimate == pytest.approx(variance_from_drifts(drifts), rel=1e-9, abs=1e-12)

    def test_state_size_is_full_dimension(self):
        assert ExactMonitor().state_num_elements(500) == 501


class TestMonitorOrdering:
    def test_exact_is_tighter_than_linear(self):
        """The exact monitor's estimate is never above LinearFDA's (both >= Var)."""
        drifts = random_drifts(5, num_workers=5, dimension=50)
        exact = monitor_estimate(ExactMonitor(), drifts)
        linear = monitor_estimate(LinearMonitor(dimension=50, seed=2), drifts)
        assert exact <= linear + 1e-9


class TestMakeMonitor:
    def test_factory_variants(self):
        assert isinstance(make_monitor("sketch", 100), SketchMonitor)
        assert isinstance(make_monitor("linear", 100), LinearMonitor)
        assert isinstance(make_monitor("exact", 100), ExactMonitor)

    def test_factory_passes_sketch_geometry(self):
        monitor = make_monitor("sketch", 100, sketch_depth=3, sketch_width=64)
        assert monitor.sketch_operator.shape == (3, 64)

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            make_monitor("quantum", 100)

    def test_every_variant_builds_the_monitor_it_names(self):
        for variant in VARIANTS:
            assert make_monitor(variant, 100).name == variant


# -- the frozen estimate table ---------------------------------------------------
#
# ``FROZEN`` was recorded while a local state was still one of four classes
# averaged by ``average_states``: ``repr`` of the estimate per monitor × K ×
# weighting × drift dtype.  A row reduces its norm column apart from its
# payload, and each part must read the same as the objects did.

DIMENSION = 40
FROZEN_MONITORS = {
    "linear": lambda: LinearMonitor(dimension=DIMENSION, seed=1),
    "sketch": lambda: SketchMonitor(depth=3, width=16, seed=2),
    "exact": lambda: ExactMonitor(),
}

FROZEN = {
    "linear/1/uniform/float64": "3.115624305830446",
    "linear/1/uniform/float32": "3.115624371083547",
    "linear/1/weighted/float64": "3.115624305830446",
    "linear/1/weighted/float32": "3.115624371083547",
    "linear/2/uniform/float64": "3.0228622259881943",
    "linear/2/uniform/float32": "3.022862158939868",
    "linear/2/weighted/float64": "3.0667468614529643",
    "linear/2/weighted/float32": "3.0667468009936747",
    "linear/7/uniform/float64": "3.6874423925318256",
    "linear/7/uniform/float32": "3.687442343778138",
    "linear/7/weighted/float64": "3.754274805585104",
    "linear/7/weighted/float32": "3.7542747248094783",
    "linear/8/uniform/float64": "3.86247861681641",
    "linear/8/uniform/float32": "3.862478585778621",
    "linear/8/weighted/float64": "3.943767684960414",
    "linear/8/weighted/float32": "3.9437676746308745",
    "linear/9/uniform/float64": "3.5120121189466365",
    "linear/9/uniform/float32": "3.5120120494259317",
    "linear/9/weighted/float64": "3.495385730230056",
    "linear/9/weighted/float32": "3.4953856543687456",
    "linear/32/uniform/float64": "3.7517869207567767",
    "linear/32/uniform/float32": "3.7517869547131166",
    "linear/32/weighted/float64": "3.6770907538588187",
    "linear/32/weighted/float32": "3.6770907660274044",
    "linear/33/uniform/float64": "3.5117965639571858",
    "linear/33/uniform/float32": "3.5117965553062516",
    "linear/33/weighted/float64": "3.4687507711505954",
    "linear/33/weighted/float32": "3.468750754960323",
    "sketch/1/uniform/float64": "1.4590543188155483",
    "sketch/1/uniform/float32": "1.4590543887565217",
    "sketch/1/weighted/float64": "1.4590543188155483",
    "sketch/1/weighted/float32": "1.4590543887565217",
    "sketch/2/uniform/float64": "1.7184216711679658",
    "sketch/2/uniform/float32": "1.7184216444256128",
    "sketch/2/weighted/float64": "1.7203154075034048",
    "sketch/2/weighted/float32": "1.720315389117429",
    "sketch/7/uniform/float64": "3.358132540308819",
    "sketch/7/uniform/float32": "3.3581324901164344",
    "sketch/7/weighted/float64": "3.4390699307422237",
    "sketch/7/weighted/float32": "3.4390698501728876",
    "sketch/8/uniform/float64": "3.629103010155855",
    "sketch/8/uniform/float32": "3.629102978430847",
    "sketch/8/weighted/float64": "3.6955981974604475",
    "sketch/8/weighted/float32": "3.695598185604636",
    "sketch/9/uniform/float64": "3.211216333299946",
    "sketch/9/uniform/float32": "3.2112162669179574",
    "sketch/9/weighted/float64": "3.180639210020931",
    "sketch/9/weighted/float32": "3.1806391317598277",
    "sketch/32/uniform/float64": "3.697152003744054",
    "sketch/32/uniform/float32": "3.697152039125143",
    "sketch/32/weighted/float64": "3.61303270677635",
    "sketch/32/weighted/float32": "3.6130327193631624",
    "sketch/33/uniform/float64": "3.4571538058647318",
    "sketch/33/uniform/float32": "3.4571537972870314",
    "sketch/33/weighted/float64": "3.4012132151931196",
    "sketch/33/weighted/float32": "3.401213198725914",
    "exact/1/uniform/float64": "0.0",
    "exact/1/uniform/float32": "0.0",
    "exact/1/weighted/float64": "0.0",
    "exact/1/weighted/float32": "4.2743083739082977e-08",
    "exact/2/uniform/float64": "1.0532040499861102",
    "exact/2/uniform/float32": "1.053203821182251",
    "exact/2/weighted/float64": "1.0479042985990845",
    "exact/2/weighted/float32": "1.047904274129563",
    "exact/7/uniform/float64": "3.0737704912117283",
    "exact/7/uniform/float32": "3.073770420891898",
    "exact/7/weighted/float64": "3.0832137163283413",
    "exact/7/weighted/float32": "3.083213639110364",
    "exact/8/uniform/float64": "3.513761045939107",
    "exact/8/uniform/float32": "3.5137610137462616",
    "exact/8/weighted/float64": "3.541736696992494",
    "exact/8/weighted/float32": "3.5417366845985923",
    "exact/9/uniform/float64": "2.998632159853928",
    "exact/9/uniform/float32": "2.9986320866478815",
    "exact/9/weighted/float64": "2.932534845359747",
    "exact/9/weighted/float32": "2.9325347724623887",
    "exact/32/uniform/float64": "3.673077004621578",
    "exact/32/uniform/float32": "3.673077031970024",
    "exact/32/weighted/float64": "3.602470571820029",
    "exact/32/weighted/float32": "3.6024705845990566",
    "exact/33/uniform/float64": "3.4084177368560504",
    "exact/33/uniform/float32": "3.408417719783205",
    "exact/33/weighted/float64": "3.367254005440478",
    "exact/33/weighted/float32": "3.367253989042775",
}


def frozen_inputs(num_workers, weighting, dtype):
    rng = np.random.default_rng(1000 + num_workers)
    drifts = rng.normal(scale=0.3, size=(num_workers, DIMENSION)).astype(dtype)
    weights = None
    if weighting == "weighted":
        raw = rng.uniform(0.5, 2.0, size=num_workers)
        weights = raw / raw.sum()
    return drifts, weights


#: The cells that moved when the table replaced the objects, with their new
#: digits: ExactMonitor on float32 drifts alone.  Its payload (and the norm,
#: reduced over that same widened drift) is float64 now, where the objects
#: averaged float32 drifts in float32 — a lone worker's estimate is 0.0 in
#: both weightings, as it was only in the uniform one.
MOVED = {
    "exact/1/weighted/float32": "0.0",
    "exact/2/uniform/float32": "1.0532040406516103",
    "exact/2/weighted/float32": "1.047904289311556",
    "exact/7/uniform/float32": "3.07377048100528",
    "exact/7/weighted/float32": "3.0832137028794966",
    "exact/8/uniform/float32": "3.5137610579090666",
    "exact/8/weighted/float32": "3.5417367169915153",
    "exact/9/uniform/float32": "2.9986321357644132",
    "exact/9/weighted/float32": "2.932534830480014",
    "exact/32/uniform/float32": "3.673077016131568",
    "exact/32/weighted/float32": "3.6024705844005585",
    "exact/33/uniform/float32": "3.408417741260573",
    "exact/33/weighted/float32": "3.367254005473556",
}


@pytest.mark.parametrize("cell", list(FROZEN))
def test_estimates_match_the_frozen_table(cell):
    variant, num_workers, weighting, dtype = cell.split("/")
    monitor = FROZEN_MONITORS[variant]()
    drifts, weights = frozen_inputs(int(num_workers), weighting, dtype)
    estimate = monitor.estimate(monitor.average(monitor.local_states(drifts), weights))
    assert repr(float(estimate)) == MOVED.get(cell, FROZEN[cell])


def test_only_exact_float32_cells_moved():
    assert set(MOVED) <= set(FROZEN)
    assert all(cell.startswith("exact/") and cell.endswith("/float32") for cell in MOVED)


# -- a local state is a row ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(sorted(FROZEN_MONITORS)),
    num_workers=st.integers(min_value=0, max_value=12),
    dimension=st.integers(min_value=1, max_value=30),
    dtype=st.sampled_from(["float64", "float32"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_a_state_table_is_its_rows(variant, num_workers, dimension, dtype, seed):
    """``local_states(D)`` is ``(K, state_num_elements(d))`` float64, row k
    byte-equal to ``local_state(D[k])`` whatever the other rows are, and to
    the table built from the norm column ``squared_norms(D)`` handed in."""
    monitor = {
        "linear": lambda: LinearMonitor(dimension=dimension, seed=seed),
        "sketch": lambda: SketchMonitor(depth=3, width=8, seed=seed),
        "exact": lambda: ExactMonitor(),
    }[variant]()
    drifts = np.random.default_rng(seed).normal(size=(num_workers, dimension)).astype(dtype)
    states = monitor.local_states(drifts)
    assert states.dtype == np.float64
    assert states.shape == (num_workers, monitor.state_num_elements(dimension))
    for row, drift in zip(states, drifts):
        assert row.tobytes() == monitor.local_state(drift).tobytes()
    handed = monitor.local_states(drifts, monitor.squared_norms(drifts))
    assert handed.tobytes() == states.tobytes()


class TestAverage:
    def test_linear_rows_average_element_wise(self):
        monitor = LinearMonitor(dimension=3)
        np.testing.assert_array_equal(monitor.average([[2.0, 1.0], [4.0, 3.0]]), [3.0, 2.0])

    def test_weights_weigh_rows(self):
        monitor = ExactMonitor()
        averaged = monitor.average([[1.0, 1.0, 0.0], [3.0, 0.0, 1.0]], weights=[0.75, 0.25])
        np.testing.assert_allclose(averaged, [1.5, 0.75, 0.25])

    def test_sketch_rows_average_to_the_sketch_of_the_average(self):
        monitor = SketchMonitor(depth=3, width=16, seed=0)
        drifts = np.random.default_rng(0).normal(size=(4, 50))
        averaged = monitor.average(monitor.local_states(drifts))
        sketch_of_average = monitor.local_state(drifts.mean(axis=0))[1:]
        np.testing.assert_allclose(averaged[1:], sketch_of_average, atol=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(CommunicationError):
            LinearMonitor(dimension=3).average(np.empty((0, 2)))

    def test_weights_of_another_length_rejected(self):
        with pytest.raises(CommunicationError):
            LinearMonitor(dimension=3).average(np.ones((2, 2)), weights=[1.0])
