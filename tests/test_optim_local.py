"""Tests for the local optimizers (SGD, Adam, AdamW)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.optim.base as base_module
from helpers.per_worker import solo_stack, solo_step
from helpers.shards import shard_no_pass, whole_then_sharded
from repro import backend
from repro.exceptions import ConfigurationError, ShapeError
from repro.experiments.cache import canonical_value
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
        stacked_opt = StackedOptimizer(factory(), 4, 64)
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
        assert solo_stack(optimizer, 2).step_counts.tolist() == [2]

    def test_the_configuration_holds_hyperparameters_and_no_step_count(self):
        # What a checkpoint header and a run key record of an optimizer: its
        # hyper-parameters (the moment decays are class constants), nothing
        # that training moves.
        optimizer = Adam(0.01)
        solo_step(optimizer, np.zeros(2), np.ones(2))
        assert canonical_value(optimizer) == {"__class__": "Adam", "learning_rate": 0.01}
        assert (Adam.beta1, Adam.beta2, Adam.epsilon) == (0.9, 0.999, 1e-7)


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


def block_rows(dimension):
    """Rows per block of a stacked update, as ``step_rows`` sizes it."""
    return max(1, base_module.ROW_BLOCK_ELEMENTS // dimension)


#: The optimizers whose state a row carries: none, one matrix, two.
ROW_STATE_FACTORIES = pytest.mark.parametrize(
    "factory",
    [lambda: SGD(0.1), lambda: SGD(0.1, momentum=0.9), lambda: Adam(0.01)],
    ids=["sgd-stateless", "sgd-momentum", "adam"],
)


class TestRowOwnedState:
    """A worker's optimizer state is its row of the one stack, and nothing else."""

    @ROW_STATE_FACTORIES
    def test_a_snapshot_resumes_into_a_row_and_nowhere_else(self, factory):
        # A slot snapshot is the row of every state matrix and its step
        # count.  Written into another stack's row, the run resumes there
        # byte for byte, and the stack's other rows stay cold.
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(5, 1, 6))
        straight, straight_params = StackedOptimizer(factory(), 1, 6), np.ones((1, 6))
        first, params = StackedOptimizer(factory(), 2, 6), np.ones((1, 6))
        for step in range(3):
            straight.step_rows(straight_params, grads[step])
            first.step_rows(params, grads[step], np.array([1]))
        snapshot = {name: matrix[1].copy() for name, matrix in first.state.items()}

        resumed = StackedOptimizer(factory(), 3, 6)
        for name, matrix in resumed.state.items():
            matrix[2] = snapshot[name]
        resumed.step_counts[2] = first.step_counts[1]
        for step in range(3, 5):
            straight.step_rows(straight_params, grads[step])
            resumed.step_rows(params, grads[step], np.array([2]))
        assert resumed.step_counts.tolist() == [0, 0, 5]
        assert params.tobytes() == straight_params.tobytes()
        assert resumed.state.keys() == straight.state.keys()
        for name, matrix in resumed.state.items():
            assert not matrix[:2].any()
            assert matrix[2].tobytes() == straight.state[name][0].tobytes()

    @ROW_STATE_FACTORIES
    def test_a_zeroed_row_steps_as_a_fresh_optimizer(self, factory):
        # A cold start (crash rejoin, a fresh client in a slot) writes zeros
        # into the row's state and step count in place: the row's next step
        # is a fresh optimizer's first, and no other row notices.
        rng = np.random.default_rng(0)
        params, grads = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
        stacked = StackedOptimizer(factory(), 3, 8)
        for _ in range(2):
            stacked.step_rows(params, grads)
        kept = {name: matrix[[0, 2]].copy() for name, matrix in stacked.state.items()}
        for matrix in stacked.state.values():
            matrix[1] = 0
        stacked.step_counts[1] = 0

        row, fresh_row = params[1:2].copy(), params[1:2].copy()
        stacked.step_rows(row, grads[1:2], np.array([1]))
        fresh = StackedOptimizer(factory(), 1, 8)
        fresh.step_rows(fresh_row, grads[1:2])
        assert row.tobytes() == fresh_row.tobytes()
        assert stacked.step_counts.tolist() == [2, 1, 2]
        for name, matrix in stacked.state.items():
            assert matrix[1].tobytes() == fresh.state[name][0].tobytes()
            assert matrix[[0, 2]].tobytes() == kept[name].tobytes()


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

        def rule_spy(self, workspace, params, grads, state, scalars, timesteps):
            calls.append((params.shape[0], scalars["weight_decay"]))
            blocks.append((params.__array_interface__["data"][0], params.shape[0]))
            rule(self, workspace, params, grads, state, scalars, timesteps)

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
        # At float32 the rule once compared the plane-dtype decay with a
        # Python float; the bytes below are what guards the scalar's dtype.
        calls, scratch_rows, _ = seam
        monkeypatch.setattr(base_module, "ROW_BLOCK_ELEMENTS", 32)
        rng = np.random.default_rng(0)
        params = rng.normal(size=(5, 16)).astype(dtype)
        grads = rng.normal(size=(5, 16)).astype(dtype)
        expected = params.copy()
        for row in range(5):
            expected[row] = solo_step(SGD(0.05, weight_decay=1e-4), expected[row], grads[row])
        del calls[:], scratch_rows[:]
        stacked = StackedOptimizer(SGD(0.05, weight_decay=1e-4), 5, 16, dtype=dtype)
        stacked.step_rows(params, grads)
        # Blocks of 32 // 16 = 2 rows tile range(5) in order, ragged at the end.
        assert block_rows(16) == 2
        assert [count for count, _ in calls] == [2, 2, 1]
        assert max(scratch_rows) <= 2
        assert params.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_subset_steps_block_by_block(self, seam, monkeypatch, dtype):
        # Rows 1 and 2 of three, one row per block; the rule reads the
        # stack's decay as a plane-dtype scalar.
        calls, scratch_rows, _ = seam
        monkeypatch.setattr(base_module, "ROW_BLOCK_ELEMENTS", 16)
        rng = np.random.default_rng(1)
        params = rng.normal(size=(3, 16)).astype(dtype)
        grads = rng.normal(size=(3, 16)).astype(dtype)
        rows = np.array([1, 2])
        expected = params[rows].copy()
        for slot, row in enumerate(rows):
            expected[slot] = solo_step(SGD(0.05, weight_decay=5e-2), expected[slot], grads[row])
        del calls[:], scratch_rows[:]
        stacked = StackedOptimizer(SGD(0.05, weight_decay=5e-2), 3, 16, dtype=dtype)
        block = params[rows].copy()
        stacked.step_rows(block, grads[rows].copy(), rows)
        assert calls == [(1, dtype(5e-2))] * 2
        assert all(type(decay) is dtype for _, decay in calls)
        assert max(scratch_rows) <= 1
        assert block.tobytes() == expected.tobytes()
        assert stacked.step_counts.tolist() == [0, 1, 1]

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
            stacked = StackedOptimizer(SGD(0.1, momentum=0.9), 7, dimension)
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
            assert np.flatnonzero(stacked.state["velocity"].any(axis=1)).tolist() == covered

    def test_masked_ragged_last_block_matches_solo_rows(self, monkeypatch):
        # K = 5 on the masked path with blocks of two rows: the last block
        # holds one row, and gather/scatter runs per block.
        dimension = 12
        monkeypatch.setattr(base_module, "ROW_BLOCK_ELEMENTS", 2 * dimension)
        rng = np.random.default_rng(4)
        start = rng.normal(size=(5, dimension))
        rows = np.array([4, 0, 2, 1, 3])
        solos = [AdamW(0.01, weight_decay=0.01) for _ in range(5)]
        stacked = StackedOptimizer(AdamW(0.01, weight_decay=0.01), 5, dimension)
        params, solo_params = start.copy(), start.copy()
        for _ in range(3):
            grads = rng.normal(size=(5, dimension))
            block = params[rows]
            stacked.step_rows(block, grads[rows], rows)
            params[rows] = block
            for k in range(5):
                solo_params[k] = solo_step(solos[k], solo_params[k], grads[k])
        assert params.tobytes() == solo_params.tobytes()
        for row, solo in enumerate(solos):
            for name, matrix in solo_stack(solo, dimension).state.items():
                assert stacked.state[name][row].tobytes() == matrix[0].tobytes()


class TestStepRowsIndexArray:
    """``rows`` is unique worker ids in ``[0, K)`` or the step is refused."""

    @pytest.fixture()
    def stacked(self):
        return StackedOptimizer(Adam(0.01), 3, 4)

    def refused(self, stacked, rows, match):
        count = len(rows)
        with pytest.raises(ShapeError, match=match):
            stacked.step_rows(np.ones((count, 4)), np.ones((count, 4)), rows)
        # Nothing was stepped: no count moved, no moment written.
        assert stacked.step_counts.tolist() == [0, 0, 0]
        assert not any(matrix.any() for matrix in stacked.state.values())

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
        assert stacked.step_counts.tolist() == [1, 1, 1]


def test_warmed_adamw_step_allocates_no_block_sized_array():
    # Every temporary of the rule — the decoupled decay term included — lives
    # in a workspace block; a warmed step allocates nothing of block size
    # (numpy's own broadcast buffer, 64 KiB whatever the block, is all).
    import tracemalloc

    count, dimension = 6, 8192
    rng = np.random.default_rng(0)
    params = rng.normal(size=(count, dimension))
    grads = rng.normal(size=(count, dimension))
    stacked = StackedOptimizer(AdamW(0.01, weight_decay=0.01), count, dimension)
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

#: ``kind -> factory(learning_rate, u)``: hyper-parameters from one
#: unit-interval draw ``u``; the *structure* (momentum or not, Nesterov or
#: not) is fixed per kind.  A stack trains one configuration, so every row of
#: a stack is built from the same draw.
ROW_RULE_KINDS = {
    "sgd": lambda lr, u: SGD(lr),
    "sgd-wd": lambda lr, u: SGD(lr, weight_decay=1e-4 + 1e-2 * u),
    "sgd-momentum": lambda lr, u: SGD(lr, momentum=0.5 + 0.45 * u),
    "sgd-nesterov": lambda lr, u: SGD(
        lr, momentum=0.5 + 0.45 * u, nesterov=True, weight_decay=1e-3 * u
    ),
    "adam": lambda lr, u: Adam(lr),
    "adamw": lambda lr, u: AdamW(lr, weight_decay=0.05 * u),
}

worker_draw = st.tuples(
    st.floats(0.0, 1.0, allow_nan=False),  # hyper-parameter position u
    st.floats(1e-3, 0.2, allow_nan=False),  # learning rate
)


def stack_draws(max_size):
    """One ``(u, learning_rate)`` draw repeated for 1 to ``max_size`` workers."""
    return st.tuples(worker_draw, st.integers(1, max_size)).map(lambda pair: [pair[0]] * pair[1])


@st.composite
def row_rule_cases(draw):
    workers = draw(stack_draws(4))
    rows = st.integers(0, len(workers) - 1)
    op = st.one_of(
        st.just(("full",)),
        st.tuples(st.just("masked"), st.lists(rows, min_size=1, unique=True).map(sorted)),
        st.tuples(st.just("direct"), rows),
    )
    return workers, draw(st.lists(op, min_size=1, max_size=8)), draw(st.integers(0, 2**16))


def build_optimizer(kind, workers):
    """The one optimizer a stack over ``workers`` trains (they share one draw)."""
    u, learning_rate = workers[0]
    return ROW_RULE_KINDS[kind](learning_rate, u)


def covered_rows(op, count):
    return range(count) if op[0] == "full" else op[1] if op[0] == "masked" else [op[1]]


def drive_stack(kind, dtype, workers, ops, seed, dimension):
    """Run ``ops`` on one stack over ``workers``; returns ``(stack, params)``.

    Start point and per-op gradients come from ``seed`` alone, so a second
    driver replaying the same draws sees the same inputs.
    """
    count = len(workers)
    rng = np.random.default_rng(seed)
    stacked = StackedOptimizer(build_optimizer(kind, workers), count, dimension, dtype=dtype)
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
    return stacked, params


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

    For every optimizer, with hyper-parameters (learning rate included) drawn
    per stack, any interleaving of full stacked steps, masked stacked steps
    and one-row steps (so the rows' step counts skew) leaves every row's
    parameters, state and step count **byte-equal** to K lone optimizers,
    each a one-row stack — at float64 *and* at float32.

    Before the row rule became the only spelling of each optimizer's
    arithmetic, the float32 Adam/AdamW cases failed by one ulp: the stacked
    rule formed ``1 − β`` in the plane dtype, the flat in-place rule in
    Python float64, so "which engine stepped the worker" silently changed
    float32 optimizer arithmetic.  That fork is what this property closes.
    """
    workers, ops, seed = case
    count, dimension = len(workers), 37
    stacked, params = drive_stack(kind, dtype, workers, ops, seed, dimension)

    rng = np.random.default_rng(seed)
    solos = [
        StackedOptimizer(build_optimizer(kind, workers), 1, dimension, dtype=dtype)
        for _ in range(count)
    ]
    solo_params = rng.normal(size=(count, dimension)).astype(dtype)
    for op in ops:
        grads = rng.normal(size=(count, dimension)).astype(dtype)
        for row in covered_rows(op, count):
            solos[row].step_rows(solo_params[row : row + 1], grads[row : row + 1])

    for row, solo in enumerate(solos):
        assert stacked.step_counts[row] == solo.step_counts[0]
        assert params[row].tobytes() == solo_params[row].tobytes()
        assert stacked.state.keys() == solo.state.keys()
        for name, matrix in solo.state.items():
            assert matrix.dtype == dtype
            assert stacked.state[name][row].tobytes() == matrix[0].tobytes(), name


@st.composite
def block_size_cases(draw):
    workers = draw(stack_draws(6))
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

    Three live or masked stacked steps (masked rows in any order) leave
    parameters, every state matrix and every step
    count byte-equal whether a block holds one row, exactly one, three, or
    the whole stack.
    """
    workers, ops, seed, dimension = case
    outcomes = []
    for elements in (1, dimension, 3 * dimension, 2**40):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(base_module, "ROW_BLOCK_ELEMENTS", elements)
            stacked, params = drive_stack(kind, dtype, workers, ops, seed, dimension)
        outcomes.append(
            (
                params.tobytes(),
                stacked.step_counts.tolist(),
                [(name, matrix.tobytes()) for name, matrix in stacked.state.items()],
            )
        )
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


class TestLearningRate:
    @pytest.mark.parametrize("bad", [0, -0.1, "fast", True, None])
    def test_must_be_a_positive_number(self, bad):
        with pytest.raises(ConfigurationError):
            SGD(bad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_is_a_constant_plane_dtype_scalar(self, dtype):
        optimizer = SGD(1)
        assert optimizer.learning_rate == 1.0 and isinstance(optimizer.learning_rate, float)
        solo_step(optimizer, np.zeros(1), np.zeros(1))
        assert optimizer.learning_rate == 1.0
        stacked = StackedOptimizer(SGD(0.1), 2, 2, dtype=dtype)
        learning_rate = stacked._scalars["learning_rate"]
        assert type(learning_rate) is dtype and learning_rate == dtype(0.1)
