"""Tests for the collective-level compression subsystem (:mod:`repro.compression`).

Five groups:

* **Kernel edge cases** — k ≥ d top-k (dense fallback, exact reconstruction),
  all-zero inputs, quantization idempotence (decompress∘compress is a fixed
  point) at 2 / 3 / 9 bits, layer-wise budgets, random-k determinism, and
  the legacy single-vector API.
* **Row-at-a-time selection** — hypothesis-driven over tie-heavy inputs: a
  row's payload does not depend on which rows share the call, the kept set is
  a valid top-k, values are exact input entries, ``fold_residual`` zeroes
  exactly the kept coordinates; the packed-key value partition keeps the
  reference ``argpartition``'s set over ties, ±inf, NaN, denormals and
  float64 values outside float32's range, falling back on exactly the tied /
  NaN slots; plus the allocation budget and the "kernels hold no arrays"
  guards that keep ``(K, d)`` temporaries from growing back.
* **Error feedback** — hypothesis-driven: under arbitrary participation
  masks, masked-out rows' residuals stay bit-untouched while active rows'
  residuals are exactly the untransmitted remainder, and payload + residual
  telescopes back to the input.
* **Byte accounting** — for every topology, a
  compressed collective charges the compressed payload (indices + values for
  sparse formats, level bytes for quantized), the total equals the per-link
  ledger sum, and never the dense ``4·d``.
* **Integration** — compressed ``cluster.synchronize`` equalizes models and
  shrinks the ledger for every strategy path; config threading through
  ``WorkloadConfig`` and result persistence round-trips.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers.shards import whole_then_sharded
from repro.compression import (
    ClusterCompression,
    CompressionConfig,
    LayerwiseTopKCompressor,
    QuantizationCompressor,
    RandomKCompressor,
    SignCompressor,
    TopKCompressor,
    get_compression,
    make_compressor,
)
from repro.core.timeline import Timeline
from repro.core.variance import model_variance
from repro.distributed.topology import NAMED_TOPOLOGIES, Fabric, get_topology
from repro.exceptions import ConfigurationError, ShapeError
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.experiments.setup import build_cluster
from repro.experiments.sweep import lower_grid, run_grid
from repro.experiments.run import TrainingRun
from repro.nn.plane import SlotLayout
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.local_sgd import LocalSGDStrategy
from repro.strategies.synchronous import SynchronousStrategy

ALL_TOPOLOGIES = sorted(NAMED_TOPOLOGIES)


# ---------------------------------------------------------------------------
# Kernel edge cases
# ---------------------------------------------------------------------------


class TestTopK:
    def test_keeps_largest_per_row_independently(self):
        matrix = np.array(
            [[0.1, -5.0, 0.2, 4.0], [3.0, 0.0, -0.5, 0.1]]
        )
        recon = TopKCompressor(0.5).compress_rows(matrix).reconstruct()
        np.testing.assert_array_equal(
            recon, [[0.0, -5.0, 0.0, 4.0], [3.0, 0.0, -0.5, 0.0]]
        )

    def test_k_at_least_d_is_exact_and_charged_dense(self):
        compressor = TopKCompressor(1.0)
        matrix = np.random.default_rng(0).normal(size=(3, 7))
        payloads = compressor.compress_rows(matrix)
        np.testing.assert_array_equal(payloads.reconstruct(), matrix)
        # Sending d (index, value) pairs would cost 2d; the dense vector wins.
        assert compressor.transmitted_elements(7) == 7

    def test_all_zero_rows_reconstruct_to_zero(self):
        payloads = TopKCompressor(0.5).compress_rows(np.zeros((2, 6)))
        np.testing.assert_array_equal(payloads.reconstruct(), 0.0)
        np.testing.assert_array_equal(payloads.mean(), 0.0)

    def test_mean_matches_dense_reconstruction_mean(self):
        matrix = np.random.default_rng(1).normal(size=(5, 40))
        payloads = TopKCompressor(0.2).compress_rows(matrix)
        np.testing.assert_allclose(
            payloads.mean(), payloads.reconstruct().mean(axis=0), rtol=0, atol=1e-15
        )

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            TopKCompressor(0.0)
        with pytest.raises(ConfigurationError):
            TopKCompressor(1.5)


class TestQuantization:
    @pytest.mark.parametrize("bits", [2, 3, 9])
    def test_decompress_compress_is_idempotent(self, bits):
        rng = np.random.default_rng(bits)
        matrix = rng.normal(size=(4, 65)) * rng.choice([1e-6, 1.0, 1e4], size=(4, 1))
        compressor = QuantizationCompressor(bits=bits)
        once = compressor.compress_rows(matrix).reconstruct()
        twice = compressor.compress_rows(once).reconstruct()
        np.testing.assert_array_equal(once, twice)

    def test_all_zero_rows_stay_zero(self):
        recon = QuantizationCompressor(bits=4).compress_rows(np.zeros((3, 9))).reconstruct()
        np.testing.assert_array_equal(recon, 0.0)

    def test_mixed_zero_and_nonzero_rows(self):
        matrix = np.array([[0.0, 0.0, 0.0], [1.0, -0.5, 0.25]])
        recon = QuantizationCompressor(bits=8).compress_rows(matrix).reconstruct()
        np.testing.assert_array_equal(recon[0], 0.0)
        assert np.abs(recon[1] - matrix[1]).max() < 1e-2

    def test_row_maximum_is_exactly_preserved(self):
        matrix = np.array([[0.3, -0.1, 0.05]])
        recon = QuantizationCompressor(bits=3).compress_rows(matrix).reconstruct()
        assert recon[0, 0] == 0.3

    def test_transmitted_elements_count_level_bytes_not_dense(self):
        # 1000 8-bit codes = 250 float32 equivalents, plus one scale.
        assert QuantizationCompressor(bits=8).transmitted_elements(1000) == 251
        assert QuantizationCompressor(bits=8).transmitted_elements(0) == 0

    def test_invalid_configuration(self):
        for bits in (0, 1, 33):
            with pytest.raises(ConfigurationError, match=r"\[2, 32\]"):
                QuantizationCompressor(bits=bits)


class TestRandomK:
    def test_same_seed_same_coordinates(self):
        matrix = np.random.default_rng(3).normal(size=(4, 30))
        recon_a = RandomKCompressor(0.2, seed=7).compress_rows(matrix).reconstruct()
        recon_b = RandomKCompressor(0.2, seed=7).compress_rows(matrix).reconstruct()
        np.testing.assert_array_equal(recon_a, recon_b)

    def test_kept_values_are_exact_input_entries(self):
        matrix = np.random.default_rng(4).normal(size=(3, 20))
        recon = RandomKCompressor(0.25, seed=0).compress_rows(matrix).reconstruct()
        kept = recon != 0.0
        np.testing.assert_array_equal(recon[kept], matrix[kept])

    def test_shared_seed_costs_values_only(self):
        # k values + 1 seed element, not 2k index/value pairs.
        assert RandomKCompressor(0.1, seed=0).transmitted_elements(1000) == 101


class TestSign:
    def test_reconstruction_is_sign_times_row_scale(self):
        matrix = np.array([[1.0, -2.0, 0.0, 3.0]])
        recon = SignCompressor().compress_rows(matrix).reconstruct()
        np.testing.assert_allclose(recon, [[1.5, -1.5, 0.0, 1.5]])

    def test_one_bit_accounting(self):
        assert SignCompressor().transmitted_elements(64) == 3  # 2 words + scale

    def test_all_zero_rows(self):
        recon = SignCompressor().compress_rows(np.zeros((2, 5))).reconstruct()
        np.testing.assert_array_equal(recon, 0.0)


class TestLayerwiseTopK:
    LAYOUT = [SlotLayout(0, 8, (8,)), SlotLayout(8, 2, (2,)), SlotLayout(10, 10, (10,))]

    def bound(self):
        compressor = LayerwiseTopKCompressor(0.5)
        compressor.bind_layout(self.LAYOUT)
        return compressor

    def test_every_layer_keeps_its_own_budget(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(3, 20))
        # Make one layer dominate in magnitude; global top-k would starve the rest.
        matrix[:, :8] *= 100.0
        compressor = self.bound()
        recon = compressor.compress_rows(matrix).reconstruct()
        for slot in self.LAYOUT:
            block = recon[:, slot.offset : slot.offset + slot.size]
            expected_keep = max(1, round(slot.size * 0.5))
            assert np.all((block != 0).sum(axis=1) == expected_keep)

    def test_unbound_layout_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            LayerwiseTopKCompressor(0.5).compress_rows(np.ones((1, 4)))

    def test_mismatched_layout_is_a_shape_error(self):
        compressor = self.bound()
        with pytest.raises(ShapeError):
            compressor.compress_rows(np.ones((1, 4)))

    def test_transmitted_elements_sum_per_layer_budgets(self):
        compressor = self.bound()
        # 8·0.5=4 pairs, 2·0.5=1 pair (capped at size 2), 10·0.5=5 pairs.
        assert compressor.transmitted_elements(20) == 2 * 4 + 2 * 1 + 2 * 5


class TestSingleRowBatches:
    """One vector is a one-row batch (the retired ``compress()`` spelled it so)."""

    def test_one_row_batch_matches_row_kernel(self):
        # A row's payload does not depend on which other rows share the call.
        rng = np.random.default_rng(6)
        vector, other = rng.normal(size=50), rng.normal(size=50)
        for compressor in (QuantizationCompressor(8), TopKCompressor(0.2), SignCompressor()):
            payload = compressor.compress_rows(vector[None])
            rows = compressor.compress_rows(np.stack([vector, other]))
            np.testing.assert_array_equal(payload.reconstruct()[0], rows.reconstruct()[0])
            assert payload.elements_per_row == rows.elements_per_row

    def test_empty_vector(self):
        payload = TopKCompressor(0.5).compress_rows(np.zeros((1, 0)))
        assert payload.elements_per_row == 0
        assert payload.reconstruct().size == 0


# ---------------------------------------------------------------------------
# Row-at-a-time selection (hypothesis over tie-heavy inputs, allocation budget)
# ---------------------------------------------------------------------------

SPARSIFIERS = ("topk", "layerwise-topk", "randomk")


def make_sparsifier(kind, fraction, cuts):
    """A fresh sparsifying kernel; ``cuts`` are the layer-wise slot boundaries."""
    compressor = make_compressor(CompressionConfig(kind, ratio=fraction, seed=11))
    compressor.bind_layout([SlotLayout(a, b - a, (b - a,)) for a, b in zip(cuts, cuts[1:])])
    return compressor


def draw_budget(draw, dimension):
    """``(fraction, cuts)``: keep ∈ {1, half, d − 1, d} and up to three inner slot cuts."""
    keep = draw(st.sampled_from(sorted({1, max(1, dimension - 1), dimension, (dimension + 1) // 2})))
    inner = st.lists(st.integers(1, max(1, dimension - 1)), max_size=3)
    cuts = sorted({0, dimension, *(c for c in draw(inner) if c < dimension)})
    return keep / dimension, cuts


@st.composite
def tie_heavy_cases(draw):
    """Matrices built to tie: few magnitude levels, mostly-zero rows, equal rows."""
    num_rows = draw(st.integers(min_value=1, max_value=5))
    dimension = draw(st.integers(min_value=1, max_value=48))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    levels = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
    matrix = rng.choice(levels, size=(num_rows, dimension))
    for row in range(num_rows):
        shape = draw(st.sampled_from(["levels", "mostly-zero", "all-equal", "distinct"]))
        if shape == "mostly-zero":
            matrix[row, rng.random(dimension) < 0.9] = 0.0
        elif shape == "all-equal":
            matrix[row] = rng.choice(levels)
        elif shape == "distinct":
            matrix[row] = rng.normal(size=dimension)
    return (matrix.astype(dtype), *draw_budget(draw, dimension))


@st.composite
def special_value_cases(draw):
    """Rows of ±inf, NaN, denormals and float64 values that leave float32's range."""
    num_rows = draw(st.integers(min_value=1, max_value=4))
    dimension = draw(st.integers(min_value=1, max_value=32))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    specials = [np.inf, -np.inf, 1e-40, -3e-42, 1e-60, -1e60, 1e60, 0.0, 1.5]
    if draw(st.booleans()):
        specials.append(np.nan)
    matrix = rng.normal(size=(num_rows, dimension))
    special = rng.random(matrix.shape) < draw(st.sampled_from([0.1, 0.5, 1.0]))
    matrix[special] = rng.choice(specials, size=int(special.sum()))
    with np.errstate(over="ignore"):
        return (matrix.astype(dtype), *draw_budget(draw, dimension))


SELECTION_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def select_with_spy(compressor, matrix):
    """``(payloads, [(scores, kth), …])``: the reference-path calls a selection made."""
    calls = []

    def spy(scores, kth):
        calls.append((scores.copy(), kth))
        return argpartition(scores, kth)

    argpartition = np.argpartition
    with mock.patch.object(np, "argpartition", spy), np.errstate(over="ignore"):
        payloads = compressor.compress_rows(matrix)
    return payloads, calls


class TestRowAtATimeSelection:
    @SELECTION_SETTINGS
    @given(case=tie_heavy_cases(), kind=st.sampled_from(SPARSIFIERS))
    def test_a_rows_payload_is_independent_of_its_neighbours(self, case, kind):
        matrix, fraction, cuts = case
        together = make_sparsifier(kind, fraction, cuts).compress_rows(matrix)
        for row in range(matrix.shape[0]):
            alone = make_sparsifier(kind, fraction, cuts)
            # randomk: bring the generator to its state at this row.
            alone.compress_rows(matrix[:row])
            payload = alone.compress_rows(matrix[row : row + 1])
            np.testing.assert_array_equal(payload.indices[0], together.indices[row])
            np.testing.assert_array_equal(payload.values[0], together.values[row])

    @SELECTION_SETTINGS
    @given(case=tie_heavy_cases(), kind=st.sampled_from(SPARSIFIERS))
    def test_kept_set_values_and_residual_fold(self, case, kind):
        matrix, fraction, cuts = case
        compressor = make_sparsifier(kind, fraction, cuts)
        payloads = compressor.compress_rows(matrix)
        if kind != "layerwise-topk":
            cuts = [0, matrix.shape[1]]
        magnitudes = np.abs(matrix).astype(np.float32)
        kept = np.zeros(matrix.shape, dtype=bool)
        for row, indices in enumerate(payloads.indices):
            assert len(set(indices.tolist())) == indices.size  # no coordinate twice
            kept[row, indices] = True
        for start, stop in zip(cuts, cuts[1:]):
            keep = min(stop - start, max(1, int(round((stop - start) * fraction))))
            block = kept[:, start:stop]
            assert np.all(block.sum(axis=1) == keep)
            if kind == "randomk" or keep == stop - start:
                continue
            # A valid top-k: nothing dropped outranks anything kept (in the
            # float32 magnitudes the selection reads).
            block_magnitudes = magnitudes[:, start:stop]
            smallest_kept = np.where(block, block_magnitudes, np.inf).min(axis=1)
            largest_dropped = np.where(block, -np.inf, block_magnitudes).max(axis=1)
            assert np.all(smallest_kept >= largest_dropped)
        # Values are the input's own entries, bit for bit, in its own dtype.
        assert payloads.values.dtype == matrix.dtype
        expected_values = np.take_along_axis(matrix, payloads.indices, axis=1)
        assert payloads.values.tobytes() == expected_values.tobytes()
        # fold_residual zeroes exactly the kept coordinates, nothing else.
        work = matrix.copy()
        payloads.fold_residual(work)
        assert work.tobytes() == np.where(kept, 0.0, matrix).astype(matrix.dtype).tobytes()

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        case=st.one_of(tie_heavy_cases(), special_value_cases()),
        kind=st.sampled_from(["topk", "layerwise-topk"]),
    )
    def test_packed_selection_keeps_the_reference_set(self, case, kind):
        matrix, fraction, cuts = case
        payloads, calls = select_with_spy(make_sparsifier(kind, fraction, cuts), matrix)
        if kind != "layerwise-topk":
            cuts = [0, matrix.shape[1]]
        expected_calls = []
        for row, indices in zip(matrix, payloads.indices):
            kept = []
            for start, stop in zip(cuts, cuts[1:]):
                size = stop - start
                keep = min(size, max(1, int(round(size * fraction))))
                if keep == size:
                    kept.extend(range(start, stop))
                    continue
                with np.errstate(over="ignore"):
                    magnitudes = np.abs(row[start:stop]).astype(np.float32)
                kept.extend(start + np.argpartition(-magnitudes, keep - 1)[:keep])
                ranked = np.sort(magnitudes)  # NaNs last
                if np.isnan(ranked[-1]) or ranked[size - keep - 1] == ranked[size - keep]:
                    expected_calls.append((-magnitudes, keep - 1))
            assert len(indices) == len(kept) and set(indices.tolist()) == set(kept)
        # The reference path ran on the slots with a tie at the cut or a NaN —
        # on those, in order, and on no other.
        assert len(calls) == len(expected_calls)
        for (scores, kth), (expected_scores, expected_kth) in zip(calls, expected_calls):
            assert kth == expected_kth
            np.testing.assert_array_equal(scores, expected_scores)
        expected_values = np.take_along_axis(matrix, payloads.indices, axis=1)
        assert payloads.values.dtype == matrix.dtype
        assert payloads.values.tobytes() == expected_values.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_distinct_magnitudes_never_take_the_reference_path(self, dtype):
        # The benchmark model's row length; integers below 2**24 are distinct
        # float32 magnitudes, so no cut can tie.
        dimension = 114_728
        rng = np.random.default_rng(13)
        matrix = np.stack([rng.permutation(dimension) + 1.0 for _ in range(2)])
        matrix *= rng.choice([-1.0, 1.0], size=matrix.shape)
        payloads, calls = select_with_spy(TopKCompressor(0.05), matrix.astype(dtype))
        assert calls == []
        keep = payloads.indices.shape[1]
        assert keep == 5_736
        for row, indices in zip(matrix, payloads.indices):
            assert set(indices.tolist()) == set(np.flatnonzero(np.abs(row) > dimension - keep))

    @SELECTION_SETTINGS
    @given(case=tie_heavy_cases())
    def test_randomk_selects_by_the_reference_path_alone(self, case):
        matrix, fraction, cuts = case
        draws = np.random.default_rng(11)
        keep = min(matrix.shape[1], max(1, int(round(matrix.shape[1] * fraction))))
        payloads, calls = select_with_spy(make_sparsifier("randomk", fraction, cuts), matrix)
        if keep == matrix.shape[1]:
            assert calls == []
            return
        assert [kth for _, kth in calls] == [keep] * matrix.shape[0]
        for (scores, _), indices in zip(calls, payloads.indices):
            expected = draws.random(matrix.shape[1])
            assert scores.tobytes() == expected.tobytes()
            assert indices.tobytes() == np.argpartition(expected, keep)[:keep].tobytes()

    @pytest.mark.parametrize("kind", ["topk", "layerwise-topk"])
    def test_mostly_zero_row_keeps_every_nonzero(self, kind):
        # The case the negated partition direction exists for (see
        # kernels._select_rows): 95 % zeros, fewer non-zeros than the budget,
        # so the cut lands inside the block of equal zeros.
        rng = np.random.default_rng(8)
        dimension, cuts = 2000, [0, 1200, 2000]
        matrix = np.zeros((3, dimension), dtype=np.float32)
        for row in matrix:
            nonzero = rng.choice(dimension, size=100, replace=False)
            row[nonzero] = rng.uniform(0.5, 2.0, size=100) * rng.choice([-1.0, 1.0], size=100)
        for start, stop in zip(cuts, cuts[1:]):
            budget = round(0.1 * (stop - start))
            assert np.all(np.count_nonzero(matrix[:, start:stop], axis=1) < budget)
        payloads = make_sparsifier(kind, 0.1, cuts).compress_rows(matrix)
        for row, indices in zip(matrix, payloads.indices):
            assert set(np.flatnonzero(row)) <= set(indices.tolist())

    @pytest.mark.parametrize("kind", SPARSIFIERS)
    def test_allocation_budget_is_the_payload_plus_a_few_rows(self, kind, monkeypatch):
        # Selecting all rows in one argpartition(axis=1) call allocated a
        # (K, d) int64 matrix (5.1 MB here) to keep 5 % of it.  Row shards
        # each hold their own row scratch, concurrently, within the same few rows.
        num_rows, dimension, fraction = 32, 20_000, 0.05
        matrix = np.random.default_rng(9).normal(size=(num_rows, dimension)).astype(np.float32)
        compressor = make_sparsifier(kind, fraction, [0, 12_000, 18_000, dimension])
        for sharded in whole_then_sharded(monkeypatch):
            compressor.compress_rows(matrix)
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                payloads = compressor.compress_rows(matrix)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            keep = payloads.indices.shape[1]
            payload_bytes = num_rows * keep * (8 + matrix.itemsize)
            assert peak - before <= payload_bytes + 4 * dimension * 8, (sharded, peak - before)

    @pytest.mark.parametrize("kind", SPARSIFIERS)
    def test_payload_indices_pin_no_larger_array(self, kind):
        # A sliced-but-uncopied partition result keeps the whole (K, d) int64
        # matrix alive for as long as the payload lives.
        matrix = np.random.default_rng(10).normal(size=(4, 500))
        payloads = make_sparsifier(kind, 0.1, [0, 300, 500]).compress_rows(matrix)
        for array in (payloads.indices, payloads.values):
            assert array.base is None or array.base.nbytes == array.nbytes

    @pytest.mark.parametrize("kind", SPARSIFIERS)
    def test_kernels_hold_no_arrays_between_calls(self, kind):
        # A shape-keyed scratch cache is reallocated whenever the participating
        # row count changes (every masked round) and otherwise pins (K, d)
        # floats for the life of the cluster; state_dict's "nothing, unless it
        # draws" is true by construction only if there is no such attribute.
        rng = np.random.default_rng(12)
        state = ClusterCompression(
            CompressionConfig(kind, ratio=0.1, error_feedback=True),
            num_workers=6,
            dimension=40,
            layout=[SlotLayout(0, 30, (30,)), SlotLayout(30, 10, (10,))],
        )
        for _ in range(5):
            state.compress_update(rng.normal(size=(6, 40)))
        held = [
            name
            for name, value in vars(state.compressor).items()
            if isinstance(value, np.ndarray)
        ]
        assert held == []


# ---------------------------------------------------------------------------
# Error feedback over arbitrary rounds (hypothesis)
# ---------------------------------------------------------------------------

EF_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def ef_rounds(draw):
    num_workers = draw(st.integers(min_value=2, max_value=6))
    dimension = draw(st.integers(min_value=3, max_value=24))
    num_rounds = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return [rng.normal(size=(num_workers, dimension)) for _ in range(num_rounds)]


class TestErrorFeedback:
    @EF_SETTINGS
    @given(drifts=ef_rounds())
    def test_payload_and_residual_telescope_every_round(self, drifts):
        num_workers, dimension = drifts[0].shape
        state = ClusterCompression(
            CompressionConfig("topk", ratio=0.34, error_feedback=True),
            num_workers=num_workers,
            dimension=dimension,
        )
        for drift in drifts:
            expected = drift + state.residual_matrix
            payloads = state.compress_update(drift)
            np.testing.assert_array_equal(
                payloads.reconstruct() + state.residual_matrix, expected
            )

    @EF_SETTINGS
    @given(drifts=ef_rounds())
    def test_without_error_feedback_no_state_is_kept(self, drifts):
        num_workers, dimension = drifts[0].shape
        state = ClusterCompression(
            CompressionConfig("topk", ratio=0.34, error_feedback=False),
            num_workers=num_workers,
            dimension=dimension,
        )
        assert state.residual_matrix is None
        payloads = state.compress_update(drifts[0])
        assert payloads.reconstruct().shape == (num_workers, dimension)

    def test_an_empty_payload_is_a_zero_delta(self):
        for compressor in (TopKCompressor(0.5), QuantizationCompressor(8)):
            payloads = compressor.compress_rows(np.empty((0, 5)))
            np.testing.assert_array_equal(payloads.mean(), np.zeros(5))

    def test_full_participation_residual_is_untransmitted_remainder(self):
        state = ClusterCompression(
            CompressionConfig("topk", ratio=0.5, error_feedback=True),
            num_workers=2,
            dimension=4,
        )
        drift = np.array([[1.0, -3.0, 0.5, 2.0], [0.0, 0.1, -0.2, 0.05]])
        payloads = state.compress_update(drift)
        np.testing.assert_array_equal(
            payloads.reconstruct() + state.residual_matrix, drift
        )

    def test_dropped_mass_reenters_the_next_payload(self):
        state = ClusterCompression(
            CompressionConfig("topk", ratio=0.25, error_feedback=True),
            num_workers=1,
            dimension=4,
        )
        first = np.array([[4.0, 3.0, 2.0, 1.0]])
        state.compress_update(first)  # transmits only the 4.0
        second = state.compress_update(np.zeros((1, 4)))
        # With zero new drift, the largest residual entry (3.0) is transmitted.
        np.testing.assert_array_equal(second.reconstruct(), [[0.0, 3.0, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# Compressed byte accounting per topology
# ---------------------------------------------------------------------------


def make_fabric(num_workers: int, topology: str, **kwargs) -> Fabric:
    """A fabric for ``num_workers`` workers on a fresh clock of its own."""
    return Fabric(
        num_workers=num_workers, clock=Timeline(num_workers),
        topology=get_topology(topology), **kwargs,
    )


class TestCompressedCharges:
    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    def test_allreduce_charges_compressed_payload_and_conserves_links(self, name):
        dimension, num_workers = 10_000, 8
        compressor = TopKCompressor(0.1)
        fabric = make_fabric(num_workers, name)
        charge = fabric.allreduce(dimension, "model-sync", compression=compressor)
        transmitted = compressor.transmitted_elements(dimension)
        dense = make_fabric(num_workers, name).allreduce(dimension, "model-sync")
        # Identical to pricing the compressed element count directly ...
        assert charge.num_bytes == make_fabric(num_workers, name).allreduce(
            transmitted, "model-sync"
        ).num_bytes
        # ... strictly below the dense itemsize·d charge, by the kernel's ratio.
        assert charge.num_bytes < dense.num_bytes
        # Conservation: the total equals the per-link ledger sum.
        assert sum(fabric.bytes_by_link.values()) == charge.num_bytes

    @pytest.mark.parametrize("name", ALL_TOPOLOGIES)
    def test_broadcast_and_upload_charge_compressed_payloads(self, name):
        dimension, num_workers = 5_000, 6
        compressor = QuantizationCompressor(bits=8)
        transmitted = compressor.transmitted_elements(dimension)
        fabric = make_fabric(num_workers, name)
        broadcast = fabric.broadcast(dimension, "model-sync", compression=compressor)
        assert broadcast.num_bytes == make_fabric(num_workers, name).broadcast(
            transmitted, "model-sync"
        ).num_bytes
        upload = fabric.upload(
            dimension, "fda-state", worker_id=num_workers - 1, compression=compressor
        )
        assert upload.num_bytes == make_fabric(num_workers, name).upload(
            transmitted, "fda-state", worker_id=num_workers - 1
        ).num_bytes
        assert sum(fabric.bytes_by_link.values()) == broadcast.num_bytes + upload.num_bytes

    def test_star_charges_exactly_k_compressed_uploads(self):
        dimension, num_workers = 1_000, 5
        compressor = TopKCompressor(0.1)
        fabric = make_fabric(num_workers, "star")
        charge = fabric.allreduce(dimension, "model-sync", compression=compressor)
        keep = max(1, round(dimension * 0.1))
        assert charge.num_bytes == num_workers * 2 * keep * fabric.itemsize

    def test_network_seconds_shrink_with_the_payload(self):
        from repro.distributed.network import FL_NETWORK

        dimension, num_workers = 100_000, 4
        plain = make_fabric(num_workers, "star", network=FL_NETWORK)
        compressed = make_fabric(num_workers, "star", network=FL_NETWORK)
        plain_charge = plain.allreduce(dimension, "model-sync")
        compressed_charge = compressed.allreduce(
            dimension, "model-sync", compression=TopKCompressor(0.05)
        )
        assert compressed_charge.seconds < plain_charge.seconds


# ---------------------------------------------------------------------------
# Cluster / strategy / experiment integration
# ---------------------------------------------------------------------------


QUICK_RUN = TrainingRun(accuracy_target=0.99, max_steps=40, eval_every_steps=20)


class TestClusterIntegration:
    def test_compressed_synchronize_equalizes_models(self, blobs_workload):
        cluster, _ = build_cluster(
            replace(
                blobs_workload,
                compression=CompressionConfig("topk", ratio=0.2, error_feedback=True),
            )
        )
        cluster.broadcast_parameters(cluster.workers[0].get_parameters())
        cluster.step_all()
        cluster.synchronize()
        assert model_variance(cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: SynchronousStrategy(),
            lambda: LocalSGDStrategy(tau=2),
            lambda: FDAStrategy(threshold=0.0, variant="exact"),
        ],
        ids=["synchronous", "local-sgd", "fda"],
    )
    def test_every_sync_path_compresses_uniformly(self, blobs_workload, strategy_factory):
        plain_cluster, _ = build_cluster(blobs_workload)
        compressed_cluster, _ = build_cluster(
            replace(
                blobs_workload,
                compression=CompressionConfig("topk", ratio=0.1, error_feedback=True),
            )
        )
        strategy_factory().attach(plain_cluster).run_steps(8)
        strategy_factory().attach(compressed_cluster).run_steps(8)
        assert plain_cluster.synchronization_count == compressed_cluster.synchronization_count
        assert (
            compressed_cluster.tracker.bytes_for("model-sync")
            < plain_cluster.tracker.bytes_for("model-sync")
        )

    def test_constructor_binds_the_model_layout(self, blobs_workload):
        cluster, _ = build_cluster(
            replace(blobs_workload, compression=CompressionConfig("layerwise-topk", ratio=0.25))
        )
        cluster.broadcast_parameters(cluster.workers[0].get_parameters())
        cluster.step_all()
        cluster.synchronize()  # would raise without a bound layout
        assert cluster.compression_label == "layerwise-topk(ratio=0.25)"


class TestConfigThreading:
    def test_workload_normalizes_and_rejects_specs(self, blobs_workload):
        assert replace(blobs_workload, compression="topk").compression == CompressionConfig("topk")
        assert replace(blobs_workload, compression="none").compression is None
        with pytest.raises(ConfigurationError):
            replace(blobs_workload, compression="gzip")
        with pytest.raises(ConfigurationError):
            replace(blobs_workload, compression=CompressionConfig("topk", ratio=2.0))

    def test_config_rejects_bits_without_a_representable_level(self):
        # bits=1 would only fail deep inside make_compressor; the config must
        # reject it eagerly, where the workload is defined.
        with pytest.raises(ConfigurationError):
            CompressionConfig("quantization", bits=1)

    def test_describe_shows_only_the_knob_the_kernel_reads(self):
        assert CompressionConfig("signsgd").describe() == "signsgd"
        assert (
            CompressionConfig("signsgd", error_feedback=True).describe() == "signsgd+ef"
        )
        assert CompressionConfig("quantization", bits=4).describe() == "quantization(bits=4)"

    def test_get_compression_round_trip(self):
        config = CompressionConfig("quantization", bits=4, error_feedback=True)
        assert get_compression(config) is config
        assert make_compressor(config).name == "quantization"

    def test_run_result_records_and_persists_compression(self, blobs_workload):
        workload = replace(
            blobs_workload,
            compression=CompressionConfig("topk", ratio=0.1, error_feedback=True),
        )
        cluster, test_dataset = build_cluster(workload)
        result = QUICK_RUN.execute(
            SynchronousStrategy(), cluster, test_dataset, workload_name="blobs"
        )
        assert result.compression == "topk(ratio=0.1)+ef"
        restored = result_from_dict(result_to_dict(result))
        assert restored.compression == result.compression

    def test_compression_axis_orders_cells_by_savings(self, blobs_workload):
        points = run_grid(
            lower_grid(
                blobs_workload,
                QUICK_RUN,
                lambda: SynchronousStrategy(),
                compression=("none", CompressionConfig("topk", ratio=0.1)),
            )
        )
        assert [p.result.compression for p in points] == ["none", "topk(ratio=0.1)"]
        assert [p.tags["compression"] for p in points] == ["none", "topk(ratio=0.1)"]
        assert points[1].result.model_bytes < points[0].result.model_bytes
