"""Tests for the local optimizers (SGD, Adam, AdamW)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.optim.base as base_module
from helpers.per_worker import solo_step
from helpers.shards import shard_no_pass, whole_then_sharded
from repro import backend
from repro.exceptions import ConfigurationError, ShapeError
from repro.optim.adam import Adam, AdamW
from repro.optim.base import StackedOptimizer, Workspace
from repro.optim.sgd import SGD


def quadratic_minimization(optimizer, start, steps=300):
    """Minimize f(w) = ||w - 3||^2 with the given optimizer; return the final point."""
    params = np.asarray(start, dtype=np.float64)
    target = np.full_like(params, 3.0)
    for _ in range(steps):
        grads = 2.0 * (params - target)
        params = solo_step(optimizer, params, grads)
    return params


class TestSGD:
    def test_plain_sgd_step(self):
        optimizer = SGD(learning_rate=0.1)
        updated = solo_step(optimizer, np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        np.testing.assert_allclose(updated, [0.9, 2.1])

    def test_converges_on_quadratic(self):
        final = quadratic_minimization(SGD(0.05), np.array([10.0, -4.0]))
        np.testing.assert_allclose(final, 3.0, atol=1e-3)

    def test_momentum_accelerates(self):
        plain = quadratic_minimization(SGD(0.01), np.array([10.0]), steps=50)
        momentum = quadratic_minimization(SGD(0.01, momentum=0.9), np.array([10.0]), steps=50)
        assert abs(momentum[0] - 3.0) < abs(plain[0] - 3.0)

    def test_nesterov_converges(self):
        final = quadratic_minimization(
            SGD(0.02, momentum=0.9, nesterov=True), np.array([10.0]), steps=200
        )
        np.testing.assert_allclose(final, 3.0, atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        optimizer = SGD(learning_rate=0.1, weight_decay=0.5)
        updated = solo_step(optimizer, np.array([2.0]), np.array([0.0]))
        assert updated[0] < 2.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ConfigurationError):
            SGD(0.1, momentum=0.0, nesterov=True)

    def test_zero_state_clears_velocity(self):
        optimizer = SGD(0.1, momentum=0.9)
        solo_step(optimizer, np.array([1.0]), np.array([1.0]))
        assert optimizer.state_arrays()["velocity"][0] == -0.1
        optimizer.zero_state()
        assert optimizer.step_count == 0
        assert optimizer.state_arrays()["velocity"][0] == 0.0
        # ... and the next step starts from a zero velocity again.
        solo_step(optimizer, np.array([1.0]), np.array([1.0]))
        np.testing.assert_array_equal(optimizer.state_arrays()["velocity"], [-0.1])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            solo_step(SGD(0.1), np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SGD(0.05, weight_decay=1e-3),
            lambda: SGD(0.05, momentum=0.9, nesterov=True),
            lambda: Adam(0.01),
            lambda: AdamW(0.01, weight_decay=0.01),
        ],
        ids=["sgd-wd", "sgd-nesterov", "adam", "adamw"],
    )
    def test_stacked_rows_match_lone_rows(self, factory):
        # Row k of a stacked (K, d) in-place update must be bit-identical to a
        # lone optimizer's update of that row — the invariant the engine
        # relies on when one stacked update serves the whole cluster.
        rng = np.random.default_rng(3)
        start = rng.normal(size=(4, 64))
        grads = [rng.normal(size=(4, 64)) for _ in range(5)]
        stacked_opt = StackedOptimizer([factory() for _ in range(4)], 64)
        stacked = start.copy()
        for step_grads in grads:
            stacked_opt.step_rows(stacked, step_grads)
        for row in range(start.shape[0]):
            row_opt = factory()
            flat = start[row].copy()
            for step_grads in grads:
                flat = solo_step(row_opt, flat, step_grads[row])
            np.testing.assert_array_equal(stacked[row], flat)


class TestAdam:
    def test_converges_on_quadratic(self):
        final = quadratic_minimization(Adam(0.1), np.array([10.0, -5.0]))
        np.testing.assert_allclose(final, 3.0, atol=1e-2)

    def test_first_step_size_close_to_learning_rate(self):
        optimizer = Adam(learning_rate=0.001)
        updated = solo_step(optimizer, np.array([1.0]), np.array([1e-3]))
        # Bias correction makes the first step approximately the learning rate.
        assert abs(updated[0] - 1.0) == pytest.approx(0.001, rel=0.05)

    def test_step_counts_advance(self):
        optimizer = Adam(0.01)
        solo_step(optimizer, np.zeros(2), np.ones(2))
        solo_step(optimizer, np.zeros(2), np.ones(2))
        assert optimizer.step_count == 2

    def test_invalid_betas(self):
        with pytest.raises(ConfigurationError):
            Adam(0.01, beta1=1.0)
        with pytest.raises(ConfigurationError):
            Adam(0.01, beta2=-0.1)

    def test_state_dict_contains_hyperparameters(self):
        state = Adam(0.01, beta1=0.8).state_dict()
        assert state["beta1"] == 0.8 and "step_count" in state


class TestAdamW:
    def test_decay_shrinks_parameters_without_gradient(self):
        optimizer = AdamW(learning_rate=0.1, weight_decay=0.1)
        updated = solo_step(optimizer, np.array([5.0]), np.array([0.0]))
        assert updated[0] < 5.0

    def test_zero_decay_matches_adam(self):
        params = np.array([1.0, -2.0])
        grads = np.array([0.5, 0.25])
        adam = solo_step(Adam(0.01), params, grads)
        adamw = solo_step(AdamW(0.01, weight_decay=0.0), params, grads)
        np.testing.assert_allclose(adam, adamw)

    def test_negative_decay_rejected(self):
        with pytest.raises(ConfigurationError):
            AdamW(0.01, weight_decay=-1.0)


class TestRowOwnedState:
    """State belongs to the optimizer's row of its stack, whoever steps it."""

    def test_zero_state_keeps_a_stacked_row_bound(self):
        # A cold start (crash rejoin, a fresh client in a slot) zeroes the
        # row in place: the next stacked step of that row writes the stack's
        # memory, and is a fresh optimizer's first step.
        rng = np.random.default_rng(0)
        params, grads = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
        optimizers = [Adam(0.01) for _ in range(3)]
        stacked = StackedOptimizer(optimizers, 8)
        stacked.step_rows(params, grads)
        row = optimizers[1]
        assert row.state_arrays()["m"].any()

        row.zero_state()
        assert row.step_count == 0
        for name, array in row.state_arrays().items():
            assert np.shares_memory(array, stacked._state[name])
            assert not array.any()
            assert not stacked._state[name][1].any()  # the row itself is cleared
            assert stacked._state[name][0].any()  # and only that row

        stacked.step_rows(params[1:2], grads[1:2], np.array([1]))
        for name, array in row.state_arrays().items():
            assert np.shares_memory(array, stacked._state[name])
            np.testing.assert_array_equal(stacked._state[name][1], array)
            assert array.any()
        fresh = Adam(0.01)
        solo_step(fresh, params[1], grads[1])
        np.testing.assert_array_equal(stacked._state["m"][1], fresh.state_arrays()["m"])
        assert [optimizer.step_count for optimizer in stacked.optimizers] == [1, 1, 1]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SGD(0.1),
            lambda: SGD(0.1, momentum=0.9),
            lambda: Adam(0.01),
        ],
        ids=["sgd-stateless", "sgd-momentum", "adam"],
    )
    def test_a_snapshot_resumes_into_a_row_and_nowhere_else(self, factory):
        # An optimizer no stack has bound has nowhere to put saved arrays:
        # loading one used to drop them without a word (momentum-free SGD
        # has none, and is refused alike — its row is still missing).
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(5, 6))
        straight, straight_params = factory(), np.ones(6)
        first, params = factory(), np.ones(6)
        for step in range(3):
            straight_params = solo_step(straight, straight_params, grads[step])
            params = solo_step(first, params, grads[step])
        snapshot = first.state_dict()
        unbound = factory()
        with pytest.raises(ConfigurationError, match="not a row of any stack"):
            unbound.load_state_dict(snapshot)
        assert unbound.step_count == 0 and unbound.state_arrays() == {}

        resumed = factory()
        stacked = StackedOptimizer([resumed], 6)
        resumed.load_state_dict(snapshot)
        for step in range(3, 5):
            straight_params = solo_step(straight, straight_params, grads[step])
            stacked.step_rows(params[None], grads[step][None])
        assert resumed.step_count == 5
        assert params.tobytes() == straight_params.tobytes()

    def test_any_stepped_optimizer_is_refused_by_a_stack(self):
        # Its state would be dropped by the rebinding while its step count
        # (Adam's bias correction) kept counting — with or without arrays.
        for stepped in (SGD(0.1), Adam(0.01)):
            solo_step(stepped, np.zeros(4), np.ones(4))
            with pytest.raises(ConfigurationError, match="already stepped"):
                StackedOptimizer([stepped], 4)
        counted = SGD(0.1)
        counted.step_count = 3
        with pytest.raises(ConfigurationError, match=r"optimizers \[1\] have already stepped"):
            StackedOptimizer([SGD(0.1), counted], 4)


def block_rows(dimension):
    """Rows per block of a stacked update, as ``step_rows`` sizes it."""
    return max(1, base_module.ROW_BLOCK_ELEMENTS // dimension)


class TestRowBlocking:
    """``step_rows`` hands the rule one block of whole rows at a time."""

    @pytest.fixture()
    def seam(self, monkeypatch):
        """Spy on the two things a block passes through: the rule and the scratch.

        ``blocks`` records each block as ``(address of its first row, rows)``,
        so a test can place the blocks of a sharded step in its row order.
        """
        calls, scratch_rows, blocks = [], [], []
        rule, scratch = SGD._update_rows, Workspace.scratch

        def rule_spy(self, workspace, params, grads, state, columns, timesteps):
            calls.append((params.shape[0], columns["weight_decay"][:, 0].tolist()))
            blocks.append((params.__array_interface__["data"][0], params.shape[0]))
            rule(self, workspace, params, grads, state, columns, timesteps)

        def scratch_spy(self, name, count):
            block = scratch(self, name, count)
            scratch_rows.append(block.base.shape[0])
            return block

        monkeypatch.setattr(SGD, "_update_rows", rule_spy)
        monkeypatch.setattr(Workspace, "scratch", scratch_spy)
        shard_no_pass(monkeypatch)  # one shard, unless a test splits the step
        return calls, scratch_rows, blocks

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_weight_decay_rows_match_per_row_steps_block_by_block(
        self, seam, monkeypatch, dtype
    ):
        # At float32 the rule once compared the plane-dtype decay column with
        # a Python float; the bytes below are what guards the column's dtype.
        calls, scratch_rows, _ = seam
        monkeypatch.setattr(base_module, "ROW_BLOCK_ELEMENTS", 32)
        rng = np.random.default_rng(0)
        params = rng.normal(size=(5, 16)).astype(dtype)
        grads = rng.normal(size=(5, 16)).astype(dtype)
        expected = params.copy()
        for row in range(5):
            expected[row] = solo_step(SGD(0.05, weight_decay=1e-4), expected[row], grads[row])
        del calls[:], scratch_rows[:]
        stacked = StackedOptimizer(
            [SGD(0.05, weight_decay=1e-4) for _ in range(5)], 16, dtype=dtype
        )
        stacked.step_rows(params, grads)
        # Blocks of 32 // 16 = 2 rows tile range(5) in order, ragged at the end.
        assert block_rows(16) == 2
        assert [count for count, _ in calls] == [2, 2, 1]
        assert max(scratch_rows) <= 2
        assert params.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_subset_uses_its_own_rows_decay(self, seam, monkeypatch, dtype):
        # Rows 1 and 2 share a decay that differs from worker 0's: the scalar
        # comes from the covered rows' column, not from "worker 0".
        calls, scratch_rows, _ = seam
        monkeypatch.setattr(base_module, "ROW_BLOCK_ELEMENTS", 16)
        decays = [1e-4, 5e-2, 5e-2]
        rng = np.random.default_rng(1)
        params = rng.normal(size=(3, 16)).astype(dtype)
        grads = rng.normal(size=(3, 16)).astype(dtype)
        rows = np.array([1, 2])
        expected = params[rows].copy()
        for slot, row in enumerate(rows):
            expected[slot] = solo_step(SGD(0.05, weight_decay=decays[row]), expected[slot], grads[row])
        del calls[:], scratch_rows[:]
        stacked = StackedOptimizer(
            [SGD(0.05, weight_decay=decay) for decay in decays], 16, dtype=dtype
        )
        block = params[rows].copy()
        stacked.step_rows(block, grads[rows].copy(), rows)
        assert calls == [(1, [float(dtype(5e-2))])] * 2
        assert max(scratch_rows) <= 1
        assert block.tobytes() == expected.tobytes()
        assert [optimizer.step_count for optimizer in stacked.optimizers] == [0, 1, 1]

    @pytest.mark.parametrize("masked", [False, True], ids=["live", "masked"])
    def test_default_blocks_tile_the_rows_in_order(self, seam, masked, monkeypatch):
        # Whole (one shard) and split three ways: blocks tile each row shard
        # in order and no block crosses a shard.
        _, scratch_rows, blocks = seam
        dimension = base_module.ROW_BLOCK_ELEMENTS // 3 + 1  # two rows fit, three do not
        assert block_rows(dimension) == 2
        rows = np.array([6, 0, 3, 4, 1]) if masked else None
        count = 5 if masked else 7
        for sharded in whole_then_sharded(monkeypatch):
            shards = backend.shard_bounds(count, backend.row_shards(count, dimension))
            assert len(shards) == (3 if sharded else 1)
            stacked = StackedOptimizer([SGD(0.1, momentum=0.9) for _ in range(7)], dimension)
            params, grads = np.ones((count, dimension)), np.ones((count, dimension))
            del scratch_rows[:], blocks[:]
            stacked.step_rows(params, grads, rows)
            first_row = params.__array_interface__["data"][0]
            placed = [((address - first_row) // params.strides[0], size) for address, size in blocks]
            for start, stop in shards:
                assert [block for block in placed if start <= block[0] < stop] == [
                    (low, min(2, stop - low)) for low in range(start, stop, 2)
                ]
            assert sum(size for _, size in placed) == count
            assert max(scratch_rows) <= 2
            # Whole rows, stepped once each: every covered row moved by -lr.
            np.testing.assert_array_equal(params, 0.9)
            covered = sorted(rows.tolist()) if masked else list(range(7))
            assert np.flatnonzero(stacked._state["velocity"].any(axis=1)).tolist() == covered

    def test_masked_ragged_last_block_matches_solo_rows(self, monkeypatch):
        # K = 5 on the masked path with blocks of two rows: the last block
        # holds one row, and gather/scatter runs per block.
        dimension = 12
        monkeypatch.setattr(base_module, "ROW_BLOCK_ELEMENTS", 2 * dimension)
        rng = np.random.default_rng(4)
        start = rng.normal(size=(5, dimension))
        rows = np.array([4, 0, 2, 1, 3])
        members = [AdamW(0.01, weight_decay=0.01 * k) for k in range(5)]
        solos = [AdamW(0.01, weight_decay=0.01 * k) for k in range(5)]
        stacked = StackedOptimizer(members, dimension)
        params, solo_params = start.copy(), start.copy()
        for _ in range(3):
            grads = rng.normal(size=(5, dimension))
            block = params[rows]
            stacked.step_rows(block, grads[rows], rows)
            params[rows] = block
            for k in range(5):
                solo_params[k] = solo_step(solos[k], solo_params[k], grads[k])
        assert params.tobytes() == solo_params.tobytes()
        for member, solo in zip(members, solos):
            for name, array in solo.state_arrays().items():
                assert member.state_arrays()[name].tobytes() == array.tobytes()


class TestStepRowsIndexArray:
    """``rows`` is unique worker ids in ``[0, K)`` or the step is refused."""

    @pytest.fixture()
    def stacked(self):
        return StackedOptimizer([Adam(0.01 * (k + 1)) for k in range(3)], 4)

    def refused(self, stacked, rows, match):
        count = len(rows)
        with pytest.raises(ShapeError, match=match):
            stacked.step_rows(np.ones((count, 4)), np.ones((count, 4)), rows)
        # Nothing was stepped: no count moved, no moment written.
        assert [optimizer.step_count for optimizer in stacked.optimizers] == [0, 0, 0]
        assert not any(matrix.any() for matrix in stacked._state.values())

    def test_repeated_row_is_refused(self, stacked):
        # Used to update row 1's state once and bump its step count twice.
        self.refused(stacked, [1, 1], r"repeated: \[1\]")

    def test_negative_row_is_refused(self, stacked):
        # Used to read optimizer K-1's step count, gather state row 0 (clip)
        # and scatter to row K-1.
        self.refused(stacked, [-1], r"repeated: \[-1\]")

    def test_row_past_the_end_is_refused(self, stacked):
        # Used to be a bare IndexError from a list.
        self.refused(stacked, np.array([0, 7]), r"\[0, 3\).*\[7\]")

    def test_every_offender_is_named(self, stacked):
        self.refused(stacked, [2, -4, 2, 9, 0], r"\[-4, 2, 9\]")

    def test_non_index_rows_are_refused(self, stacked):
        self.refused(stacked, np.array([True, False, True]), "integer index")
        self.refused(stacked, np.array([[0, 1]]), "integer index")
        self.refused(stacked, np.array([0.0, 1.0]), "integer index")

    def test_a_permutation_steps_each_row_once(self, stacked):
        stacked.step_rows(np.ones((3, 4)), np.ones((3, 4)), [2, 0, 1])
        assert [optimizer.step_count for optimizer in stacked.optimizers] == [1, 1, 1]


def test_warmed_adamw_step_allocates_no_block_sized_array():
    # Every temporary of the rule — the decoupled decay term included — lives
    # in a workspace block; a warmed step allocates nothing of block size
    # (numpy's own broadcast buffer, 64 KiB whatever the block, is all).
    import tracemalloc

    count, dimension = 6, 8192
    rng = np.random.default_rng(0)
    params = rng.normal(size=(count, dimension))
    grads = rng.normal(size=(count, dimension))
    stacked = StackedOptimizer(
        [AdamW(0.01, weight_decay=0.01 * (k + 1)) for k in range(count)], dimension
    )
    rows = np.array([0, 2, 5])
    block, block_grads = params[rows], grads[rows]
    for _ in range(2):
        stacked.step_rows(params, grads)
        stacked.step_rows(block, block_grads, rows)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        stacked.step_rows(params, grads)
        stacked.step_rows(block, block_grads, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < block.nbytes // 2  # the masked block is the smaller one


# -- the entry-point property -------------------------------------------------------

#: ``kind -> factory(learning_rate, u)``: per-worker heterogeneous hyper-parameters
#: from one unit-interval draw ``u``; the *structure* (momentum or not,
#: Nesterov or not) is fixed per kind, as a stack requires.
ROW_RULE_KINDS = {
    "sgd": lambda lr, u: SGD(lr),
    "sgd-wd": lambda lr, u: SGD(lr, weight_decay=1e-4 + 1e-2 * u),
    "sgd-momentum": lambda lr, u: SGD(lr, momentum=0.5 + 0.45 * u),
    "sgd-nesterov": lambda lr, u: SGD(
        lr, momentum=0.5 + 0.45 * u, nesterov=True, weight_decay=1e-3 * u
    ),
    "adam": lambda lr, u: Adam(
        lr, beta1=0.8 + 0.15 * u, beta2=0.99 + 0.009 * u, epsilon=1e-7 * (1 + u)
    ),
    "adamw": lambda lr, u: AdamW(
        lr, weight_decay=0.05 * u, beta1=0.8 + 0.15 * u, beta2=0.99 + 0.009 * u
    ),
}

worker_draw = st.tuples(
    st.floats(0.0, 1.0, allow_nan=False),  # hyper-parameter position u
    st.floats(1e-3, 0.2, allow_nan=False),  # learning rate
)
worker_draws = st.lists(worker_draw, min_size=1, max_size=4)


@st.composite
def row_rule_cases(draw):
    workers = draw(worker_draws)
    rows = st.integers(0, len(workers) - 1)
    op = st.one_of(
        st.just(("full",)),
        st.tuples(st.just("masked"), st.lists(rows, min_size=1, unique=True).map(sorted)),
        st.tuples(st.just("direct"), rows),
    )
    return workers, draw(st.lists(op, min_size=1, max_size=8)), draw(st.integers(0, 2**16))


def build_rows(kind, workers):
    make = ROW_RULE_KINDS[kind]
    return [make(learning_rate, u) for u, learning_rate in workers]


def covered_rows(op, count):
    return range(count) if op[0] == "full" else op[1] if op[0] == "masked" else [op[1]]


def drive_stack(kind, dtype, workers, ops, seed, dimension):
    """Run ``ops`` on one stack of ``workers``; returns ``(optimizers, params)``.

    Start point and per-op gradients come from ``seed`` alone, so a second
    driver replaying the same draws sees the same inputs.
    """
    count = len(workers)
    rng = np.random.default_rng(seed)
    optimizers = build_rows(kind, workers)
    stacked = StackedOptimizer(optimizers, dimension, dtype=dtype)
    params = rng.normal(size=(count, dimension)).astype(dtype)
    for op in ops:
        grads = rng.normal(size=(count, dimension)).astype(dtype)
        if op[0] == "full":
            stacked.step_rows(params, grads)
        elif op[0] == "masked":
            rows = np.array(op[1])
            block = params[rows]
            stacked.step_rows(block, grads[rows], rows)
            params[rows] = block
        else:
            row = op[1]
            stacked.step_rows(params[row : row + 1], grads[row : row + 1], np.array([row]))
    return optimizers, params


@pytest.mark.parametrize(
    "dtype",
    [np.float64, pytest.param(np.float32, marks=pytest.mark.float32_smoke)],
    ids=["float64", "float32"],
)
@pytest.mark.parametrize("kind", sorted(ROW_RULE_KINDS))
@settings(max_examples=25, deadline=None)
@given(case=row_rule_cases())
def test_every_entry_point_is_the_same_rule_bytewise(kind, dtype, case):
    """Full, masked and one-row ``step_rows`` are one rule.

    For every optimizer, with per-worker heterogeneous hyper-parameters
    (learning rates included), any interleaving of full stacked steps, masked stacked steps
    and one-row steps (so the rows' step counts skew) leaves
    parameters, every ``state_arrays()`` entry and every ``step_count``
    **byte-equal** to K independent one-optimizer runs — at float64 *and* at
    float32.

    Before the row rule became the only spelling of each optimizer's
    arithmetic, the float32 Adam/AdamW cases failed by one ulp: the stacked
    rule formed ``1 − β`` in the plane dtype, the flat in-place rule in
    Python float64, so "which engine stepped the worker" silently changed
    float32 optimizer arithmetic.  That fork is what this property closes.
    """
    workers, ops, seed = case
    count, dimension = len(workers), 37
    stacked_optimizers, params = drive_stack(kind, dtype, workers, ops, seed, dimension)

    rng = np.random.default_rng(seed)
    solo_optimizers = build_rows(kind, workers)
    solo_params = list(rng.normal(size=(count, dimension)).astype(dtype))
    for op in ops:
        grads = rng.normal(size=(count, dimension)).astype(dtype)
        for row in covered_rows(op, count):
            solo_params[row] = solo_step(solo_optimizers[row], solo_params[row], grads[row])

    for row, (member, solo) in enumerate(zip(stacked_optimizers, solo_optimizers)):
        assert member.step_count == solo.step_count
        assert params[row].tobytes() == solo_params[row].tobytes()
        if solo.step_count:
            assert member.state_arrays().keys() == solo.state_arrays().keys()
        for name, array in solo.state_arrays().items():
            assert array.dtype == dtype
            assert member.state_arrays()[name].tobytes() == array.tobytes(), name


@st.composite
def block_size_cases(draw):
    workers = draw(st.lists(worker_draw, min_size=1, max_size=6))
    rows = st.lists(
        st.integers(0, len(workers) - 1), min_size=1, unique=True
    ).flatmap(st.permutations)
    op = st.one_of(st.just(("full",)), st.tuples(st.just("masked"), rows))
    return (
        workers,
        draw(st.lists(op, min_size=3, max_size=3)),
        draw(st.integers(0, 2**16)),
        draw(st.integers(1, 48)),
    )


@pytest.mark.parametrize(
    "dtype",
    [np.float64, pytest.param(np.float32, marks=pytest.mark.float32_smoke)],
    ids=["float64", "float32"],
)
@pytest.mark.parametrize("kind", sorted(ROW_RULE_KINDS))
@settings(max_examples=15, deadline=None)
@given(case=block_size_cases())
def test_block_size_never_shows_in_a_result(kind, dtype, case):
    """``ROW_BLOCK_ELEMENTS`` is a cache policy, not arithmetic.

    Three live or masked stacked steps (masked rows in any order) over
    heterogeneous rows leave parameters, every state matrix and every step
    count byte-equal whether a block holds one row, exactly one, three, or
    the whole stack.
    """
    workers, ops, seed, dimension = case
    outcomes = []
    for elements in (1, dimension, 3 * dimension, 2**40):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(base_module, "ROW_BLOCK_ELEMENTS", elements)
            optimizers, params = drive_stack(kind, dtype, workers, ops, seed, dimension)
        outcomes.append(
            (
                params.tobytes(),
                [optimizer.step_count for optimizer in optimizers],
                [
                    (name, array.tobytes())
                    for optimizer in optimizers
                    for name, array in optimizer.state_arrays().items()
                ],
            )
        )
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


class TestLearningRate:
    @pytest.mark.parametrize("bad", [0, -0.1, "fast", True, None])
    def test_must_be_a_positive_number(self, bad):
        with pytest.raises(ConfigurationError):
            SGD(bad)

    def test_is_a_constant_float_column(self):
        optimizer = SGD(1)
        assert optimizer.learning_rate == 1.0 and isinstance(optimizer.learning_rate, float)
        solo_step(optimizer, np.zeros(1), np.zeros(1))
        assert optimizer.learning_rate == 1.0
        stacked = StackedOptimizer([SGD(0.1), SGD(0.3)], 2)
        np.testing.assert_array_equal(stacked._columns["learning_rate"], [[0.1], [0.3]])
