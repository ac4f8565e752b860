"""Tests for the utility helpers (RNG, validation, formatting, run log)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.utils.formatting import format_bytes, format_count, format_duration
from repro.utils.rng import RngFactory, as_rng, spawn_rngs
from repro.utils.runlog import RunLogger
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestRng:
    def test_as_rng_accepts_int_none_generator(self):
        assert isinstance(as_rng(3), np.random.Generator)
        assert isinstance(as_rng(None), np.random.Generator)
        generator = np.random.default_rng(0)
        assert as_rng(generator) is generator

    def test_as_rng_deterministic(self):
        assert as_rng(5).integers(0, 100, 10).tolist() == as_rng(5).integers(0, 100, 10).tolist()

    def test_spawn_rngs_independent_and_deterministic(self):
        a = [g.integers(0, 1000) for g in spawn_rngs(1, 4)]
        b = [g.integers(0, 1000) for g in spawn_rngs(1, 4)]
        assert a == b
        assert len(set(a)) > 1

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_factory_named_streams_are_stable(self):
        factory = RngFactory(7)
        first = factory.named("data").integers(0, 10_000)
        second = RngFactory(7).named("data").integers(0, 10_000)
        assert first == second

    def test_factory_different_labels_differ(self):
        factory = RngFactory(7)
        streams = [factory.named(label).integers(0, 10**9) for label in ("a", "b", "ab", "ba")]
        assert len(set(streams)) == len(streams)

    def test_factory_worker_streams(self):
        factory = RngFactory(0)
        assert factory.worker(0).integers(0, 10**9) != factory.worker(1).integers(0, 10**9)
        with pytest.raises(ValueError):
            factory.worker(-1)


class TestValidation:
    def test_check_positive(self):
        assert check_positive(2.5, "x") == 2.5
        with pytest.raises(ConfigurationError):
            check_positive(0, "x")
        with pytest.raises(ConfigurationError):
            check_positive("3", "x")

    def test_check_positive_int(self):
        assert check_positive_int(3, "k") == 3
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "k")
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "k")
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "k")

    def test_check_fraction_and_probability(self):
        assert check_fraction(0.5, "f") == 0.5
        assert check_probability(1.0, "p") == 1.0
        with pytest.raises(ConfigurationError):
            check_fraction(1.5, "f")
        with pytest.raises(ConfigurationError):
            check_probability(-0.1, "p")


class TestFormatting:
    def test_format_bytes_units(self):
        assert format_bytes(0) == "0.00 B"
        assert format_bytes(1500) == "1.50 KB"
        assert format_bytes(2.5e9) == "2.50 GB"

    def test_format_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            format_bytes(-1)

    def test_format_count(self):
        assert format_count(950) == "950"
        assert format_count(1500) == "1.5K"
        assert format_count(2_000_000) == "2M"

    def test_format_duration(self):
        assert format_duration(12.3) == "12.30 s"
        assert format_duration(65) == "1m 05.0s"
        assert format_duration(3661) == "1h 01m 01.0s"
        with pytest.raises(ValueError):
            format_duration(-5)


class TestRunLogger:
    def test_log_and_series(self):
        logger = RunLogger("test")
        logger.log(step=1, accuracy=0.5)
        logger.log(step=2, accuracy=0.75)
        assert len(logger) == 2
        assert logger.series("accuracy") == [0.5, 0.75]
        assert logger.last("accuracy") == 0.75

    def test_last_with_missing_key(self):
        logger = RunLogger()
        logger.log(step=1)
        assert logger.last("accuracy", default=-1) == -1

    def test_keys_union(self):
        logger = RunLogger()
        logger.log(a=1)
        logger.log(b=2)
        assert logger.keys() == ["a", "b"]

    def test_indexing_and_iteration(self):
        logger = RunLogger()
        logger.log(a=1)
        assert logger[0]["a"] == 1
        assert [entry["a"] for entry in logger] == [1]
