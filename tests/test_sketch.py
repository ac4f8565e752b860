"""Tests for the AMS sketch: hashing, estimation accuracy, and linearity.

The linearity and (1 ± ε) estimation properties are exactly what Theorem 3.1
of the paper relies on, so they get property-based coverage here.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.memory import peak_bytes
from helpers.shards import shard_every_pass, under_every_shard_setting
from repro.exceptions import CommunicationError, ConfigurationError, ShapeError
from repro.sketch import ams
from repro.sketch.ams import AmsSketch, estimate_l2_squared
from repro.sketch.hashing import FourWiseHash


def test_import_repro_loads_scipy_only_when_a_sketch_is_built():
    # scipy.sparse is a quarter of the import time and five of the six
    # benchmark workloads never sketch; the operator's assembly imports it.
    script = (
        "import sys, numpy as np, repro\n"
        "from repro.core.monitor import SketchMonitor\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert loaded() == [], loaded()\n"
        "monitor = SketchMonitor()\n"
        "assert loaded() == [], loaded()\n"
        "monitor.local_state(np.ones(10))\n"
        "assert 'scipy.sparse' in loaded()\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


class TestFourWiseHash:
    def test_deterministic_per_seed(self):
        indices = np.arange(100, dtype=np.uint64)
        a = FourWiseHash(3, seed=5)(indices)
        b = FourWiseHash(3, seed=5)(indices)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        indices = np.arange(100, dtype=np.uint64)
        a = FourWiseHash(3, seed=5)(indices)
        b = FourWiseHash(3, seed=6)(indices)
        assert not np.array_equal(a, b)

    def test_buckets_in_range(self):
        hashing = FourWiseHash(4, seed=0)
        buckets = hashing.buckets(np.arange(1000, dtype=np.uint64), 17)
        assert buckets.min() >= 0 and buckets.max() < 17

    def test_buckets_roughly_uniform(self):
        hashing = FourWiseHash(1, seed=1)
        buckets = hashing.buckets(np.arange(20000, dtype=np.uint64), 10)
        counts = np.bincount(buckets[0], minlength=10)
        assert counts.min() > 1500 and counts.max() < 2500

    def test_signs_are_plus_minus_one_and_balanced(self):
        hashing = FourWiseHash(1, seed=2)
        signs = hashing.signs(np.arange(20000, dtype=np.uint64))
        assert set(np.unique(signs)) == {-1.0, 1.0}
        assert abs(signs.mean()) < 0.05

    def test_invalid_rows(self):
        with pytest.raises(ConfigurationError):
            FourWiseHash(0)

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            FourWiseHash(2).buckets(np.arange(5, dtype=np.uint64), 0)


class TestAmsSketch:
    def test_shape_and_size(self):
        sketch = AmsSketch(depth=5, width=250)
        assert sketch.shape == (5, 250)

    def test_sketch_shape(self):
        operator = AmsSketch(depth=3, width=16)
        matrix = operator.sketch(np.ones(100))
        assert matrix.shape == (3, 16)

    def test_estimate_within_epsilon_for_typical_vectors(self):
        operator = AmsSketch(depth=5, width=250, seed=0)
        rng = np.random.default_rng(0)
        vector = rng.normal(size=5000)
        estimate = operator.estimate_l2_squared(operator.sketch(vector))
        true_value = float(np.dot(vector, vector))
        assert abs(estimate - true_value) / true_value < 0.15

    def test_estimate_zero_vector(self):
        operator = AmsSketch(depth=3, width=32)
        assert operator.estimate_l2_squared(operator.sketch(np.zeros(64))) == 0.0

    def test_linearity_exact(self):
        operator = AmsSketch(depth=4, width=32, seed=3)
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=200), rng.normal(size=200)
        combined = operator.sketch(2.0 * a - 0.5 * b)
        np.testing.assert_allclose(
            combined, 2.0 * operator.sketch(a) - 0.5 * operator.sketch(b), atol=1e-9
        )

    def test_average_of_sketches_is_sketch_of_average(self):
        operator = AmsSketch(depth=5, width=64, seed=0)
        rng = np.random.default_rng(2)
        vectors = [rng.normal(size=300) for _ in range(4)]
        averaged_sketches = np.mean([operator.sketch(v) for v in vectors], axis=0)
        sketch_of_average = operator.sketch(np.mean(vectors, axis=0))
        np.testing.assert_allclose(averaged_sketches, sketch_of_average, atol=1e-9)

    def test_dimension_change_reprepares_hashes(self):
        operator = AmsSketch(depth=3, width=16)
        operator.sketch(np.ones(50))
        assert operator.dimension == 50
        operator.sketch(np.ones(80))
        assert operator.dimension == 80

    def test_estimate_rejects_wrong_geometry(self):
        operator = AmsSketch(depth=3, width=16)
        with pytest.raises(CommunicationError):
            operator.estimate_l2_squared(np.zeros((2, 16)))

    def test_rejects_non_1d_vectors(self):
        with pytest.raises(ShapeError):
            AmsSketch().sketch(np.zeros((3, 3)))

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            AmsSketch(depth=0)
        with pytest.raises(ConfigurationError):
            AmsSketch(width=0)

    def test_estimate_l2_free_function_validates_shape(self):
        with pytest.raises(ShapeError):
            estimate_l2_squared(np.zeros(5))


class TestSketchProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dimension=st.integers(min_value=10, max_value=400),
    )
    def test_estimate_is_positive_and_finite(self, seed, dimension):
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=dimension)
        operator = AmsSketch(depth=5, width=128, seed=7)
        estimate = operator.estimate_l2_squared(operator.sketch(vector))
        assert np.isfinite(estimate) and estimate >= 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.1, max_value=100.0),
    )
    def test_estimate_scales_quadratically(self, seed, scale):
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=500)
        operator = AmsSketch(depth=5, width=200, seed=11)
        base = operator.estimate_l2_squared(operator.sketch(vector))
        scaled = operator.estimate_l2_squared(operator.sketch(scale * vector))
        if base > 1e-12:
            assert scaled == pytest.approx(scale**2 * base, rel=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_relative_error_mostly_within_bound(self, seed):
        # With width 250 the nominal epsilon is ~18 % (sqrt(8/250)); check the
        # median-of-rows estimator stays within a loose multiple of that.
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=2000)
        operator = AmsSketch(depth=5, width=250, seed=13)
        estimate = operator.estimate_l2_squared(operator.sketch(vector))
        true_value = float(np.dot(vector, vector))
        assert abs(estimate - true_value) / true_value < 0.5


def bincount_sketch(operator: AmsSketch, vector: np.ndarray) -> np.ndarray:
    """Reference kernel: the per-depth-row ``bincount`` scatter that the sparse
    operator replaced, driven by the operator's own hash family."""
    indices = np.arange(vector.shape[0], dtype=np.uint64)
    buckets = operator._bucket_hash.buckets(indices, operator.width)
    weighted = operator._sign_hash.signs(indices) * np.asarray(vector, dtype=np.float64)
    return np.stack(
        [
            np.bincount(row_buckets, weights=row_weights, minlength=operator.width)
            for row_buckets, row_weights in zip(buckets, weighted)
        ]
    )


class TestSketchRows:
    """``sketch_rows`` is ``sketch`` applied to every row — bit for bit."""

    #: sha256 of ``sketch_rows(M).tobytes()`` for ``M = default_rng(2026)
    #: .normal(size=(8, 5000)).astype(dtype)`` and ``AmsSketch(depth, width,
    #: seed=3)``, recorded from the ``bincount`` kernel before the sparse
    #: operator replaced it.
    FROZEN_DIGESTS = {
        ("float32", 5, 250): "11d26d0e5c139189b48da716d0d2a976435fb6ab76630c8ee435593c43112f0b",
        ("float32", 3, 16): "9c4941f5552b1b3e9d6d5a232b0cdec93a41536622cf9601139bfbbe548bbca9",
        ("float64", 5, 250): "e204aef3b0140d9b3abeba0285c69ceee1295d15d0e61feae63ab1d4bf7df550",
        ("float64", 3, 16): "51d12a1a34ee5a7e92046eae493feca3e21116461ca5c308c22a51f7ac02d9d3",
    }

    @pytest.mark.parametrize("dtype, depth, width", sorted(FROZEN_DIGESTS))
    def test_matches_the_frozen_bincount_digest(self, dtype, depth, width):
        matrix = np.random.default_rng(2026).normal(size=(8, 5000)).astype(dtype)
        sketches = AmsSketch(depth, width, seed=3).sketch_rows(matrix)
        assert sketches.shape == (8, depth, width)
        assert sketches.dtype == np.float64 and sketches.flags.c_contiguous
        digest = hashlib.sha256(sketches.tobytes()).hexdigest()
        assert digest == self.FROZEN_DIGESTS[(dtype, depth, width)]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_rows=st.integers(min_value=1, max_value=6),
        dimension=st.integers(min_value=1, max_value=300),
        dtype=st.sampled_from([np.float32, np.float64]),
        strided=st.booleans(),
    )
    def test_rows_equal_per_row_sketches_exactly(self, seed, num_rows, dimension, dtype, strided):
        # width 64 with dimension drawn from 1..300 covers d < width (empty
        # buckets) and K = 1; ``strided`` sketches a non-contiguous row view
        # of a larger scratch buffer, as the trainers do.
        rng = np.random.default_rng(seed)
        scratch = rng.normal(size=(2 * num_rows, dimension + 3)).astype(dtype)
        matrix = scratch[::2, 1 : dimension + 1]
        if not strided:
            matrix = matrix.copy()
        operator = AmsSketch(depth=3, width=64, seed=seed)
        batched = operator.sketch_rows(matrix)
        assert batched.shape == (num_rows, 3, 64)
        for row, sketch in zip(matrix, batched):
            np.testing.assert_array_equal(sketch, operator.sketch(row))
            np.testing.assert_array_equal(sketch, bincount_sketch(operator, row))
        np.testing.assert_array_equal(  # a strided 1-D view sketches like its copy
            operator.sketch(scratch[0, ::2]), bincount_sketch(operator, scratch[0, ::2].copy())
        )
        # A dimension change re-prepares the operator for both entry points.
        wider = rng.normal(size=(2, dimension + 7)).astype(dtype)
        np.testing.assert_array_equal(
            operator.sketch_rows(wider)[1], AmsSketch(3, 64, seed=seed).sketch(wider[1])
        )
        assert operator.dimension == dimension + 7

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_mean_of_row_sketches_is_sketch_of_mean_row(self, seed):
        matrix = np.random.default_rng(seed).normal(size=(5, 400))
        operator = AmsSketch(depth=4, width=32, seed=seed)
        np.testing.assert_allclose(
            operator.sketch_rows(matrix).mean(axis=0),
            operator.sketch(matrix.mean(axis=0)),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_rejects_non_2d_input_and_accepts_no_rows(self):
        operator = AmsSketch(depth=3, width=16)
        with pytest.raises(ShapeError):
            operator.sketch_rows(np.zeros(5))
        assert operator.sketch_rows(np.zeros((0, 7))).shape == (0, 3, 16)

    def test_operator_is_the_column_major_map_it_is_assembled_as(self):
        # Applied by coordinate: CSC, each column's buckets ascending (so a
        # bucket accumulates its coordinates in ascending order), and 32-bit
        # indices at the benchmark model's dimension.
        operator = AmsSketch(dimension=114_728)._operator
        assert operator.format == "csc"
        assert operator.has_sorted_indices
        assert operator.indices.dtype == np.int32 and operator.indptr.dtype == np.int32
        assert operator.shape == (5 * 250, 114_728) and operator.nnz == 5 * 114_728

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
    @pytest.mark.parametrize("num_rows", [1, 2, 32])
    def test_batched_rows_byte_equal_one_vector_sketches(self, num_rows, dtype):
        matrix = np.random.default_rng(num_rows).normal(size=(num_rows, 3000)).astype(dtype)
        operator = AmsSketch(seed=1)
        batched = operator.sketch_rows(matrix)
        for row, sketch in zip(matrix, batched):
            assert sketch.tobytes() == operator.sketch(row).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_rows=st.integers(min_value=1, max_value=9),
        dimension=st.integers(min_value=1, max_value=200),
        block_rows=st.integers(min_value=1, max_value=3),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_row_blocks_and_row_shards_never_show(self, seed, num_rows, dimension, block_rows, dtype):
        # Blocks of 1–3 rows under every shard setting (up to 7 shards of up
        # to 9 rows), so a shard's last block is often short.  Every layout
        # is byte-equal to one-vector sketching.
        matrix = np.random.default_rng(seed).normal(size=(num_rows, dimension)).astype(dtype)
        operator = AmsSketch(depth=3, width=32, seed=seed)
        expected = np.stack([bincount_sketch(operator, row) for row in matrix])
        assert expected.tobytes() == np.stack([operator.sketch(row) for row in matrix]).tobytes()
        apply, widths = operator._apply, []

        def counted(rows):
            widths.append(len(rows))
            return apply(rows)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ams, "BLOCK_ELEMENTS", block_rows * dimension)
            patch.setattr(operator, "_apply", counted)
            outcomes = under_every_shard_setting(lambda: operator.sketch_rows(matrix).tobytes())
        assert outcomes == [expected.tobytes()] * len(outcomes)
        assert max(widths) == min(block_rows, num_rows)

    def test_a_sketch_holds_a_block_of_rows_not_the_plane(self, monkeypatch):
        # The benchmark plane: K = 32, d = 114 728, float32, on two cores.
        # A float64 (d, K) transpose of it is 29 MB, 0.98× the unit below;
        # two shards converting four-row blocks hold ≈ 7.4 MiB.
        dimension = 114_728
        matrix = np.random.default_rng(0).normal(size=(32, dimension)).astype(np.float32)
        operator = AmsSketch(dimension=dimension)
        shard_every_pass(monkeypatch, cores=2)
        sketches, peak = peak_bytes(operator.sketch_rows, matrix)
        assert sketches.shape == (32, 5, 250)
        assert peak <= 0.35 * 32 * dimension * 8
