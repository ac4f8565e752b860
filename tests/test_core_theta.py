"""Tests for Θ selection: the paper guideline, the slope fit, calibration, dynamic Θ."""

import numpy as np
import pytest

from repro.core.theta import (
    DynamicThetaController,
    PAPER_THETA_SLOPES,
    ThetaGuideline,
    calibrate_theta,
    fit_theta_slope,
    theta_guideline,
)
from repro.exceptions import ConfigurationError


class TestGuideline:
    def test_paper_slopes_available(self):
        assert set(PAPER_THETA_SLOPES) == {"fl", "balanced", "hpc"}

    def test_linear_in_dimension(self):
        assert theta_guideline(2_000_000, "fl") == pytest.approx(2 * theta_guideline(1_000_000, "fl"))

    def test_fl_recommends_larger_theta_than_hpc(self):
        d = 6_900_000  # DenseNet121
        assert theta_guideline(d, "fl") > theta_guideline(d, "balanced") > theta_guideline(d, "hpc")

    def test_matches_paper_example(self):
        # Figure 12: Theta_FL = 4.91e-5 * d.
        assert theta_guideline(1_000_000, "fl") == pytest.approx(49.1, rel=1e-6)

    def test_unknown_setting(self):
        with pytest.raises(ConfigurationError):
            theta_guideline(1000, "wifi")

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            theta_guideline(0, "fl")

    def test_guideline_dataclass_validation(self):
        with pytest.raises(ConfigurationError):
            ThetaGuideline("bad", 0.0)


class TestFitThetaSlope:
    def test_recovers_exact_linear_relationship(self):
        dims = [1000, 5000, 20_000, 100_000]
        slope_true = 3.3e-4
        thetas = [slope_true * d for d in dims]
        slope, r_squared = fit_theta_slope(dims, thetas)
        assert slope == pytest.approx(slope_true, rel=1e-9)
        assert r_squared == pytest.approx(1.0)

    def test_noisy_fit_still_close(self):
        rng = np.random.default_rng(0)
        dims = np.array([1e3, 1e4, 1e5, 1e6])
        thetas = 5e-5 * dims * (1 + rng.normal(scale=0.1, size=4))
        slope, r_squared = fit_theta_slope(dims, thetas)
        assert slope == pytest.approx(5e-5, rel=0.2)
        assert r_squared > 0.8

    def test_requires_two_points(self):
        with pytest.raises(ConfigurationError):
            fit_theta_slope([100], [1.0])

    def test_requires_positive_dimensions(self):
        with pytest.raises(ConfigurationError):
            fit_theta_slope([0, 10], [1.0, 2.0])

    def test_requires_equal_lengths(self):
        with pytest.raises(ConfigurationError):
            fit_theta_slope([1, 2, 3], [1.0, 2.0])


class TestCalibrateTheta:
    def test_scales_with_target_interval(self):
        norms = [0.5, 0.6, 0.4]
        assert calibrate_theta(norms, 40) == pytest.approx(2 * calibrate_theta(norms, 20))

    def test_uses_median(self):
        assert calibrate_theta([1.0, 1.0, 100.0], 10) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            calibrate_theta([], 10)
        with pytest.raises(ConfigurationError):
            calibrate_theta([1.0], 0)
        with pytest.raises(ConfigurationError):
            calibrate_theta([-1.0], 10)


class TestDynamicThetaController:
    def test_increases_theta_when_over_budget(self):
        controller = DynamicThetaController(target_bytes_per_step=10, window=3, adjustment=2.0)
        theta = 1.0
        for _ in range(3):
            theta = controller.update(theta, step_bytes=100, synchronized=True)
        assert theta == pytest.approx(2.0)

    def test_decreases_theta_when_under_budget(self):
        controller = DynamicThetaController(target_bytes_per_step=1000, window=2, adjustment=2.0)
        theta = 8.0
        for _ in range(2):
            theta = controller.update(theta, step_bytes=1, synchronized=False)
        assert theta == pytest.approx(4.0)

    def test_no_adjustment_before_window_fills(self):
        controller = DynamicThetaController(target_bytes_per_step=10, window=5)
        assert controller.update(3.0, step_bytes=100, synchronized=True) == 3.0
        assert controller.state_dict()["adjustment_count"] == 0

    def test_respects_bounds(self):
        controller = DynamicThetaController(
            target_bytes_per_step=10, window=1, adjustment=10.0, min_theta=0.5, max_theta=2.0
        )
        assert controller.update(1.0, step_bytes=1e9, synchronized=True) == 2.0
        assert controller.update(1.0, step_bytes=0.0, synchronized=False) == 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicThetaController(target_bytes_per_step=0)
        with pytest.raises(ConfigurationError):
            DynamicThetaController(10, window=0)
        with pytest.raises(ConfigurationError):
            DynamicThetaController(10, adjustment=1.0)
        with pytest.raises(ConfigurationError):
            DynamicThetaController(10, min_theta=2.0, max_theta=1.0)
