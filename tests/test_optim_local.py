"""Tests for the local optimizers (SGD, Adam, AdamW) and learning-rate schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.optim.sgd as sgd_module
from repro.exceptions import ConfigurationError, ShapeError
from repro.optim.adam import Adam, AdamW
from repro.optim.base import StackedOptimizer
from repro.optim.schedules import (
    ConstantSchedule,
    CosineDecaySchedule,
    ExponentialDecaySchedule,
    StepDecaySchedule,
    resolve_schedule,
)
from repro.optim.sgd import SGD


def quadratic_minimization(optimizer, start, steps=300):
    """Minimize f(w) = ||w - 3||^2 with the given optimizer; return the final point."""
    params = np.asarray(start, dtype=np.float64)
    target = np.full_like(params, 3.0)
    for _ in range(steps):
        grads = 2.0 * (params - target)
        params = optimizer.step(params, grads)
    return params


class TestSGD:
    def test_plain_sgd_step(self):
        optimizer = SGD(learning_rate=0.1)
        updated = optimizer.step(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
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
        updated = optimizer.step(np.array([2.0]), np.array([0.0]))
        assert updated[0] < 2.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ConfigurationError):
            SGD(0.1, momentum=0.0, nesterov=True)

    def test_reset_clears_velocity(self):
        optimizer = SGD(0.1, momentum=0.9)
        optimizer.step(np.array([1.0]), np.array([1.0]))
        assert optimizer.state_arrays()["velocity"][0] == -0.1
        optimizer.reset()
        assert optimizer.step_count == 0
        # A solo optimizer forgets its row along with its layout ...
        assert optimizer.state_arrays() == {}
        # ... and the next step starts from a zero velocity again.
        optimizer.step(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(optimizer.state_arrays()["velocity"], [-0.1, -0.1])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            SGD(0.1).step(np.zeros(3), np.zeros(4))

    def test_accepts_flat_vectors_only(self):
        # An optimizer steps its own row: one flat (d,) vector.  A (K, d)
        # matrix is K optimizers' rows (StackedOptimizer.step_rows' layout).
        flat = SGD(0.1).step(np.ones(3), np.ones(3))
        np.testing.assert_array_equal(flat, np.full(3, 0.9))
        with pytest.raises(ShapeError, match="step_rows"):
            SGD(0.1).step(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ShapeError):
            SGD(0.1).step(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

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
    def test_stacked_step_inplace_matches_per_row_steps(self, factory):
        # Row k of a stacked (K, d) in-place update must be bit-identical to a
        # flat update of that row alone — the invariant the batched engine
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
                row_opt.step_inplace(flat, step_grads[row])
            np.testing.assert_array_equal(stacked[row], flat)

    def test_shape_switch_after_stepping_requires_reset(self):
        # Reusing a stepped optimizer with a different parameter layout would
        # silently zero its moments while step_count kept counting; both
        # stepping entry points enforce the bound layout, in either order.
        optimizer = Adam(0.01)
        optimizer.step_inplace(np.zeros(8), np.ones(8))
        with pytest.raises(ShapeError, match="reset"):
            optimizer.step_inplace(np.zeros(16), np.ones(16))
        with pytest.raises(ShapeError, match="reset"):
            optimizer.step(np.zeros(16), np.ones(16))
        with pytest.raises(ShapeError, match="reset"):  # the dtype is layout too
            optimizer.step_inplace(np.zeros(8, np.float32), np.ones(8, np.float32))
        optimizer.reset()
        optimizer.step_inplace(np.zeros(16), np.ones(16))  # now fine

        copy_path = Adam(0.01)
        copy_path.step(np.zeros(8), np.ones(8))
        with pytest.raises(ShapeError, match="reset"):
            copy_path.step_inplace(np.zeros(16), np.ones(16))


class TestAdam:
    def test_converges_on_quadratic(self):
        final = quadratic_minimization(Adam(0.1), np.array([10.0, -5.0]))
        np.testing.assert_allclose(final, 3.0, atol=1e-2)

    def test_first_step_size_close_to_learning_rate(self):
        optimizer = Adam(learning_rate=0.001)
        updated = optimizer.step(np.array([1.0]), np.array([1e-3]))
        # Bias correction makes the first step approximately the learning rate.
        assert abs(updated[0] - 1.0) == pytest.approx(0.001, rel=0.05)

    def test_step_counts_advance(self):
        optimizer = Adam(0.01)
        optimizer.step(np.zeros(2), np.ones(2))
        optimizer.step(np.zeros(2), np.ones(2))
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
        updated = optimizer.step(np.array([5.0]), np.array([0.0]))
        assert updated[0] < 5.0

    def test_zero_decay_matches_adam(self):
        params = np.array([1.0, -2.0])
        grads = np.array([0.5, 0.25])
        adam = Adam(0.01).step(params, grads)
        adamw = AdamW(0.01, weight_decay=0.0).step(params, grads)
        np.testing.assert_allclose(adam, adamw)

    def test_negative_decay_rejected(self):
        with pytest.raises(ConfigurationError):
            AdamW(0.01, weight_decay=-1.0)


class TestRowOwnedState:
    """State belongs to the optimizer's row of its stack, whoever steps it."""

    def test_reset_keeps_a_stacked_row_bound(self):
        # reset() used to drop the arrays, which silently detached a stacked
        # optimizer from its row: the worker's direct steps (how FedProx and
        # SCAFFOLD drive workers) then wrote a private array the next
        # step_rows never saw, while the row kept the stale moments.
        rng = np.random.default_rng(0)
        params, grads = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
        optimizers = [Adam(0.01) for _ in range(3)]
        stacked = StackedOptimizer(optimizers, 8)
        stacked.step_rows(params, grads)
        row = optimizers[1]
        assert row.state_arrays()["m"].any()

        row.reset()
        assert row.step_count == 0
        for name, array in row.state_arrays().items():
            assert np.shares_memory(array, stacked._state[name])
            assert not array.any()
            assert not stacked._state[name][1].any()  # the row itself is cleared
            assert stacked._state[name][0].any()  # and only that row

        row.step_inplace(params[1], grads[1])
        for name, array in row.state_arrays().items():
            assert np.shares_memory(array, stacked._state[name])
            np.testing.assert_array_equal(stacked._state[name][1], array)
            assert array.any()
        # The direct step is the fresh optimizer's first step, seen by the stack.
        fresh = Adam(0.01)
        fresh.step_inplace(params[1].copy(), grads[1])
        np.testing.assert_array_equal(stacked._state["m"][1], fresh.state_arrays()["m"])
        assert stacked.step_counts.tolist() == [1, 1, 1]

    def test_zero_state_and_reset_agree_on_a_stacked_row(self):
        optimizers = [SGD(0.1, momentum=0.9) for _ in range(2)]
        stacked = StackedOptimizer(optimizers, 4)
        stacked.step_rows(np.ones((2, 4)), np.ones((2, 4)))
        optimizers[0].reset()
        optimizers[1].zero_state()
        assert stacked.step_counts.tolist() == [0, 0]
        assert not stacked._state["velocity"].any()

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: SGD(StepDecaySchedule(0.1, every=2, decay=0.5)),
            lambda: SGD(0.1, momentum=0.9),
            lambda: Adam(0.01),
        ],
        ids=["sgd-stateless", "sgd-momentum", "adam"],
    )
    def test_restored_unbound_optimizer_steps_on(self, factory):
        # A fresh optimizer that resumes a snapshot is stepped but unbound
        # (momentum-free SGD saves no array to take a layout from); its first
        # step binds the private row without mistaking it for a stacked
        # optimizer whose state would be lost.
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(5, 6))
        straight, straight_params = factory(), np.ones(6)
        first, params = factory(), np.ones(6)
        for step in range(3):
            straight.step_inplace(straight_params, grads[step])
            first.step_inplace(params, grads[step])
        resumed = factory()
        resumed.load_state_dict(first.state_dict())
        for step in range(3, 5):
            straight.step_inplace(straight_params, grads[step])
            resumed.step_inplace(params, grads[step])
        assert resumed.step_count == 5
        assert params.tobytes() == straight_params.tobytes()


class TestCacheBlockedSGD:
    """Uniform momentum-free SGD takes the cache-blocked pass at both dtypes."""

    @pytest.fixture()
    def chunked_calls(self, monkeypatch):
        calls = []
        chunked = sgd_module._plain_update_chunked

        def spy(params, grads, learning_rate, weight_decay, scratch):
            calls.append(weight_decay)
            chunked(params, grads, learning_rate, weight_decay, scratch)

        monkeypatch.setattr(sgd_module, "_plain_update_chunked", spy)
        return calls

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_weight_decay_rows_take_the_chunked_path(self, chunked_calls, dtype):
        # The rule used to compare the plane-dtype column with a Python
        # float, so at float32 1e-4 never equalled itself and the fast path
        # was silently skipped (results identical, one extra DRAM pass).
        rng = np.random.default_rng(0)
        params = rng.normal(size=(3, 16)).astype(dtype)
        grads = rng.normal(size=(3, 16)).astype(dtype)
        expected = params.copy()
        for row in range(3):
            SGD(0.05, weight_decay=1e-4).step_inplace(expected[row], grads[row])
        del chunked_calls[:]
        stacked = StackedOptimizer(
            [SGD(0.05, weight_decay=1e-4) for _ in range(3)], 16, dtype=dtype
        )
        stacked.step_rows(params, grads)
        assert chunked_calls == [float(dtype(1e-4))]
        assert params.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_subset_uses_its_own_uniform_decay(self, chunked_calls, dtype):
        # Rows 1 and 2 are internally uniform but differ from worker 0: the
        # scalar comes from the covered rows' column, not from "worker 0".
        decays = [1e-4, 5e-2, 5e-2]
        rng = np.random.default_rng(1)
        params = rng.normal(size=(3, 16)).astype(dtype)
        grads = rng.normal(size=(3, 16)).astype(dtype)
        rows = np.array([1, 2])
        expected = params[rows].copy()
        for slot, row in enumerate(rows):
            SGD(0.05, weight_decay=decays[row]).step_inplace(expected[slot], grads[row])
        del chunked_calls[:]
        stacked = StackedOptimizer(
            [SGD(0.05, weight_decay=decay) for decay in decays], 16, dtype=dtype
        )
        block = params[rows].copy()
        stacked.step_rows(block, grads[rows].copy(), rows)
        assert chunked_calls == [float(dtype(5e-2))]
        assert block.tobytes() == expected.tobytes()
        assert stacked.step_counts.tolist() == [0, 1, 1]


# -- the entry-point property -------------------------------------------------------

#: ``kind -> factory(schedule, u)``: per-worker heterogeneous hyper-parameters
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

SCHEDULES = (
    lambda base: base,
    lambda base: StepDecaySchedule(base, every=2, decay=0.5),
    lambda base: ExponentialDecaySchedule(base, rate=0.9, scale=3),
    lambda base: CosineDecaySchedule(base, total_steps=6, minimum=base / 10),
)

worker_draws = st.lists(
    st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),  # hyper-parameter position u
        st.floats(1e-3, 0.2, allow_nan=False),  # base learning rate
        st.integers(0, len(SCHEDULES) - 1),
    ),
    min_size=1,
    max_size=4,
)


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


@pytest.mark.parametrize(
    "dtype",
    [np.float64, pytest.param(np.float32, marks=pytest.mark.float32_smoke)],
    ids=["float64", "float32"],
)
@pytest.mark.parametrize("kind", sorted(ROW_RULE_KINDS))
@settings(max_examples=25, deadline=None)
@given(case=row_rule_cases())
def test_every_entry_point_is_the_same_rule_bytewise(kind, dtype, case):
    """``step_rows``, masked ``step_rows`` and ``step_inplace`` are one rule.

    For every optimizer, with per-worker heterogeneous hyper-parameters and
    schedules, any interleaving of full stacked steps, masked stacked steps
    and direct per-optimizer steps (so the rows' step counts skew) leaves
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
    make = ROW_RULE_KINDS[kind]

    def build():
        return [make(SCHEDULES[s](base), u) for u, base, s in workers]

    count, dimension = len(workers), 37
    rng = np.random.default_rng(seed)
    start = rng.normal(size=(count, dimension)).astype(dtype)

    stacked_optimizers = build()
    stacked = StackedOptimizer(stacked_optimizers, dimension, dtype=dtype)
    params = start.copy()
    solo_optimizers = build()
    solo_params = [row.copy() for row in start]

    for op in ops:
        grads = rng.normal(size=(count, dimension)).astype(dtype)
        if op[0] == "full":
            covered = range(count)
            stacked.step_rows(params, grads)
        elif op[0] == "masked":
            covered = op[1]
            rows = np.array(covered)
            block = params[rows]
            stacked.step_rows(block, grads[rows], rows)
            params[rows] = block
        else:
            covered = [op[1]]
            stacked_optimizers[op[1]].step_inplace(params[op[1]], grads[op[1]])
        for row in covered:
            solo_optimizers[row].step_inplace(solo_params[row], grads[row])

    for row, (member, solo) in enumerate(zip(stacked_optimizers, solo_optimizers)):
        assert member.step_count == solo.step_count
        assert params[row].tobytes() == solo_params[row].tobytes()
        if solo.step_count:
            assert member.state_arrays().keys() == solo.state_arrays().keys()
        for name, array in solo.state_arrays().items():
            assert array.dtype == dtype
            assert member.state_arrays()[name].tobytes() == array.tobytes(), name


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(0.5)
        assert schedule(0) == schedule(1000) == 0.5

    def test_step_decay(self):
        schedule = StepDecaySchedule(1.0, every=10, decay=0.5)
        assert schedule(0) == 1.0
        assert schedule(10) == 0.5
        assert schedule(25) == 0.25

    def test_exponential_decay_monotone(self):
        schedule = ExponentialDecaySchedule(1.0, rate=0.9, scale=10)
        values = [schedule(step) for step in range(0, 100, 10)]
        assert values == sorted(values, reverse=True)

    def test_cosine_decay_endpoints(self):
        schedule = CosineDecaySchedule(1.0, total_steps=100, minimum=0.1)
        assert schedule(0) == pytest.approx(1.0)
        assert schedule(100) == pytest.approx(0.1)
        assert schedule(1000) == pytest.approx(0.1)

    def test_resolve_schedule(self):
        assert isinstance(resolve_schedule(0.1), ConstantSchedule)
        schedule = CosineDecaySchedule(1.0, 10)
        assert resolve_schedule(schedule) is schedule
        with pytest.raises(ConfigurationError):
            resolve_schedule("fast")

    def test_optimizer_follows_schedule(self):
        optimizer = SGD(StepDecaySchedule(1.0, every=1, decay=0.5))
        assert optimizer.learning_rate == 1.0
        optimizer.step(np.zeros(1), np.zeros(1))
        assert optimizer.learning_rate == 0.5
