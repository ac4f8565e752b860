"""Row shards: the K rows of a pass run on every core, and it never shows.

``repro.backend`` splits a wide ``(rows × d)`` pass into contiguous row
shards, one per core, for ``StackedOptimizer.step_rows``,
``BatchedModel.train_batch``, ``SimulatedCluster.drift_matrix``, the
monitor's row pass (``VarianceMonitor.squared_norms``),
``AmsSketch.sketch_rows`` and the compressed synchronization: the magnitude
kernels' selection (``Compressor.compress_rows``), the error-feedback
accumulate, ``SparseRowPayloads.fold_residual`` and the lockstep install.
Random-k selects whole: its one generator draws the rows in order.  Held here:

* **The shard count never shows in a result.**  One Hypothesis property per
  loop runs it under every core count in {1, 2, 3, 7} with every pass split
  as far as it goes and with none split, and compares bytes (every kernel at
  K = 1, 2, 3, 32 with a tie at the cut, a NaN and an all-zero row planted
  in the last shards; ``ClusterCompression.synchronize`` with and without
  error feedback on a lockstep, a masked and a weighted cohort, then
  ``gather_models``); and every frozen fixture the batched engine, the
  trajectories, the one-owner cells and the serving plane were pinned with
  is re-run with every pass sharded.
* **The thread boundary.**  numpy's ``errstate`` crosses it, an error is
  re-raised only once every shard has finished (and a divergence in any
  shard fails the whole step atomically, see ``test_faults.py``), and every
  public method of the sharded classes runs on the calling thread — which is
  what keeps the benchmark's one span stack coherent.  So does every public
  method of the population plane, whose spill writer runs private code on the
  background thread; a shard pass never waits behind a background job.
* **Fork safety.**  A forked sweep cell runs one shard and never submits to
  the parent's pool; its results are the in-process ones.  A forked child
  starts a background thread of its own.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_batched_engine
import test_golden_trajectory
import test_one_owner
import test_population
import test_serving_parity
from helpers.parity import MODELS, make_cluster
from helpers.per_worker import SIDES
from helpers.shards import shard_every_pass, state_bytes, under_every_shard_setting
from repro import backend
from repro.compression import ClusterCompression, CompressionConfig, kernels
from repro.compression.kernels import Compressor
from repro.core.monitor import VarianceMonitor, make_monitor
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.participation import Participation
from repro.experiments.executor import SweepCell, SweepExecutor, fork_parallelism_available
from repro.experiments.persistence import result_to_dict
from repro.experiments.run import TrainingRun
from repro.nn.architectures import mlp
from repro.nn.batched import BatchedModel
from repro.optim.adam import Adam
from repro.optim.base import StackedOptimizer
from repro.population import ClientDirectory, ClientPopulation, ClientStateStore
from repro.sketch.ams import AmsSketch
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import fedavgm_strategy
from repro.strategies.local_sgd import LocalSGDStrategy
from test_compression import make_sparsifier
from test_optim_local import ROW_RULE_KINDS, block_size_cases, drive_stack

DTYPES = [np.float64, pytest.param(np.float32, marks=pytest.mark.float32_smoke)]


def all_equal(outcomes) -> bool:
    return all(outcome == outcomes[0] for outcome in outcomes[1:])


# -- the shard count never shows in a result ---------------------------------------


@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
@pytest.mark.parametrize("kind", sorted(ROW_RULE_KINDS))
@settings(max_examples=8, deadline=None)
@given(case=block_size_cases())
def test_optimizer_steps_do_not_see_the_shards(kind, dtype, case):
    """Live and masked stacked steps of every optimizer: params, moments, step counts."""
    workers, ops, seed, dimension = case

    def run():
        stacked, params = drive_stack(kind, dtype, workers, ops, seed, dimension)
        return params.tobytes(), stacked.step_counts.tolist(), state_bytes(stacked.state)

    assert all_equal(under_every_shard_setting(run))


@st.composite
def engine_cases(draw):
    workers = draw(st.integers(1, 5))
    mask = st.lists(st.booleans(), min_size=workers, max_size=workers).map(np.array)
    steps = draw(st.lists(st.one_of(st.none(), mask), min_size=1, max_size=3))
    return workers, draw(st.sampled_from(["float64", "float32"])), steps


@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=5, deadline=None)
@given(case=engine_cases())
def test_batched_engine_steps_do_not_see_the_shards(model, case):
    """``train_batch`` then ``step_rows``, live (``None``) and masked: every byte
    of the cluster — parameters, gradients, buffers, moments, step counts,
    Dropout and sampler streams, per-worker losses — and the returned means."""
    workers, dtype, steps = case
    factory, shape, classes = MODELS[model]

    def run():
        cluster = make_cluster(
            "batched", model_factory=factory, sample_shape=shape,
            num_classes=classes, num_workers=workers, dtype=dtype,
        )
        means = [repr(cluster.engine.step_all(active=mask)) for mask in steps]
        return means, state_bytes(cluster.state_dict()), cluster.engine._grad_matrix.tobytes()

    assert all_equal(under_every_shard_setting(run))


@settings(max_examples=10, deadline=None)
@given(
    workers=st.integers(1, 9),
    dtype=st.sampled_from(["float64", "float32"]),
    seed=st.integers(0, 2**16),
    into_scratch=st.booleans(),
)
def test_drift_matrix_does_not_see_the_shards(workers, dtype, seed, into_scratch):
    cluster = make_cluster("batched", num_workers=workers, dtype=dtype)
    rng = np.random.default_rng(seed)
    cluster.parameter_matrix[...] = rng.normal(size=cluster.parameter_matrix.shape)
    reference = rng.normal(size=cluster.model_dimension)

    def run():
        scratch = np.full_like(cluster.parameter_matrix, np.nan) if into_scratch else None
        drifts = cluster.drift_matrix(reference, out=scratch)
        assert scratch is None or drifts is scratch
        return drifts.dtype.str, drifts.tobytes()

    assert all_equal(under_every_shard_setting(run))


@pytest.mark.parametrize("workers", [1, 2, 32])
@settings(max_examples=6, deadline=None)
@given(
    dimension=st.integers(1, 400),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
def test_sketch_rows_does_not_see_the_shards(workers, dimension, dtype, seed):
    """A fresh operator each time: a sharded pass prepares it before fanning out."""
    matrix = np.random.default_rng(seed).normal(size=(workers, dimension)).astype(dtype)
    outcomes = under_every_shard_setting(
        lambda: AmsSketch(5, 40, seed=seed % 5).sketch_rows(matrix).tobytes()
    )
    assert all_equal(outcomes)
    per_row = AmsSketch(5, 40, seed=seed % 5)
    assert outcomes[0] == np.stack([per_row.sketch(row) for row in matrix]).tobytes()


@pytest.mark.parametrize("variant", ["linear", "sketch", "exact"])
@settings(max_examples=6, deadline=None)
@given(
    workers=st.integers(1, 9),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
    masked=st.booleans(),
)
def test_the_monitor_row_pass_does_not_see_the_shards(variant, workers, dtype, seed, masked):
    """Norms and rows built from ``parameters[rows] − reference`` equal those of
    the drift plane, whole or split, at every shard setting."""
    rng = np.random.default_rng(seed)
    parameters = rng.normal(size=(workers, 37)).astype(dtype)
    reference = rng.normal(size=37).astype(dtype)
    rows = np.flatnonzero(rng.random(workers) < 0.6) if masked else None
    monitor = make_monitor(variant, 37, sketch_depth=3, sketch_width=8, seed=seed % 5)

    def run():
        norms = monitor.squared_norms(parameters, reference, rows)
        states = monitor.local_states(parameters, None, reference, rows)
        handed = monitor.local_states(parameters, norms, reference, rows)
        assert handed.tobytes() == states.tobytes()
        return states.tobytes()

    outcomes = under_every_shard_setting(run)
    assert all_equal(outcomes)
    plane = (parameters - reference)[slice(None) if rows is None else rows]
    assert outcomes[0] == monitor.local_states(plane).tobytes()


KERNELS = ("topk", "layerwise-topk", "randomk", "quantization", "signsgd")


def planted_rows(workers, dimension, dtype, seed):
    """Normal rows whose last ones are, from the back: a tie at every cut, a NaN, all zeros.

    Each of the three sends a magnitude kernel's slot down the reference path,
    so that path runs inside a non-first shard (a shard of its own at K = 3).
    """
    matrix = np.random.default_rng(seed).normal(size=(workers, dimension))
    with_nan = matrix[0].copy()
    with_nan[dimension // 2] = np.nan
    specials = [np.ones(dimension), with_nan, np.zeros(dimension)]
    for row, special in zip(range(workers - 1, -1, -1), specials):
        matrix[row] = special
    return matrix.astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
@pytest.mark.parametrize("workers", [1, 2, 3, 32])
@pytest.mark.parametrize("kind", KERNELS)
@settings(max_examples=6, deadline=None)
@given(
    dimension=st.integers(2, 200),
    fraction=st.sampled_from([0.05, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_compress_rows_does_not_see_the_shards(kind, workers, dtype, dimension, fraction, seed):
    """Every payload array, its size and the kernel's state (random-k's stream)."""
    matrix = planted_rows(workers, dimension, dtype, seed)
    cuts = sorted({0, dimension // 3, dimension})

    def run():
        compressor = make_sparsifier(kind, fraction, cuts)
        payloads = compressor.compress_rows(matrix)
        return state_bytes(vars(payloads)), state_bytes(compressor.state_dict())

    assert all_equal(under_every_shard_setting(run))


COHORTS = {
    "lockstep": Participation(),
    "masked": Participation(mask=np.arange(5) % 3 != 1),
    "weighted": Participation(weights=np.arange(1.0, 6.0)),
}


@pytest.mark.parametrize("cohort", sorted(COHORTS))
@pytest.mark.parametrize("error_feedback", [False, True], ids=["no-ef", "ef"])
@settings(max_examples=8, deadline=None)
@given(
    kind=st.sampled_from(KERNELS),
    dtype=st.sampled_from(["float64", "float32"]),
    seed=st.integers(0, 2**16),
)
def test_compressed_synchronize_does_not_see_the_shards(cohort, error_feedback, kind, dtype, seed):
    """Two synchronizations, then a ``gather_models``: the returned averages and
    models, and every byte of the cluster — rows, residuals, kernel stream,
    shared model, fabric ledgers.  A synchronization installs the average in
    exactly the cohort's rows."""
    members = COHORTS[cohort]
    config = CompressionConfig(kind, ratio=0.2, error_feedback=error_feedback, seed=3)
    installed = np.zeros(5, dtype=bool)
    installed[members.rows] = True

    def run():
        cluster = make_cluster("batched", num_workers=5, dtype=dtype, compression=config)
        cluster.bind_members(members)
        rng = np.random.default_rng(seed)
        averages = []
        for _ in range(2):
            cluster.parameter_matrix[...] += rng.normal(size=cluster.parameter_matrix.shape)
            before = cluster.parameter_matrix.copy()
            average = cluster.synchronize()
            assert (cluster.parameter_matrix[installed] == average).all()
            assert (cluster.parameter_matrix[~installed] == before[~installed]).all()
            averages.append(average.tobytes())
        cluster.parameter_matrix[...] += rng.normal(size=cluster.parameter_matrix.shape)
        gathered = cluster.gather_models().tobytes()
        return averages, gathered, state_bytes(cluster.state_dict())

    assert all_equal(under_every_shard_setting(run))


@pytest.mark.parametrize(
    "hidden, shards", [((90,), 2), ((8,) * 12, 1)], ids=["wide", "deep-narrow"]
)
def test_train_batch_shards_by_its_mean_kernel_width(monkeypatch, hidden, shards):
    """A ``train_batch`` shard must outweigh a hand-off on every kernel call:
    of two models with planes of one width, the deep, narrow one is
    dispatch-bound and trains whole."""
    monkeypatch.setattr(backend, "_cores", 2)
    monkeypatch.setattr(backend, "SHARD_MIN_ELEMENTS", 500)
    cluster = make_cluster(
        "batched", model_factory=lambda: mlp(6, 3, hidden_units=hidden, seed=11), num_workers=4
    )
    assert 870 <= cluster.model_dimension <= 910
    assert backend.row_shards(4, cluster.model_dimension) == 2
    calls = []
    train = BatchedModel._train
    monkeypatch.setattr(BatchedModel, "_train", lambda *args: calls.append(1) or train(*args))
    cluster.engine.step_all()
    assert len(calls) == shards


@pytest.mark.usefixtures("every_pass_sharded")
class TestFrozenKernelsSharded(test_batched_engine.TestFrozenKernels):
    """``FROZEN_FDA_DIGESTS`` and ``FROZEN_LAYOUTS``, every pass sharded."""


@pytest.mark.usefixtures("every_pass_sharded")
class TestGoldenTrajectorySharded(test_golden_trajectory.TestGoldenTrajectory):
    """``GOLDEN`` (the retired copy path's trajectories), every pass sharded."""


@pytest.mark.usefixtures("every_pass_sharded")
class TestGoldenMaskedTrajectorySharded(test_golden_trajectory.TestGoldenMaskedTrajectory):
    pass


@pytest.mark.usefixtures("every_pass_sharded")
class TestGoldenCompressedTrajectorySharded(
    test_golden_trajectory.TestGoldenCompressedTrajectory
):
    pass


@pytest.mark.usefixtures("every_pass_sharded")
class TestGoldenPoissonFixtureSharded(test_serving_parity.TestGoldenPoissonFixture):
    """The serving ``GOLDEN`` and ``OPEN_GOLDEN``, every pass sharded."""


@pytest.mark.usefixtures("every_pass_sharded")
class TestClosedGoldenSharded(test_serving_parity.TestDegenerateModeBitExactness):
    """``CLOSED_GOLDEN``, every pass sharded."""


@pytest.mark.usefixtures("every_pass_sharded")
@pytest.mark.parametrize("cell", list(test_one_owner._cells()))
def test_one_owner_runs_stay_frozen_sharded(blobs_workload, cell):
    assert test_one_owner.run_record(blobs_workload, cell) == test_one_owner.FROZEN[cell]


@pytest.mark.usefixtures("every_pass_sharded")
@pytest.mark.parametrize("cell", test_one_owner.SERVED)
def test_one_owner_served_runs_stay_frozen_sharded(blobs_workload, cell):
    assert test_one_owner.served_record(blobs_workload, cell) == test_one_owner.FROZEN[cell]


# -- the thread boundary ----------------------------------------------------------


@pytest.mark.parametrize("sharded", [False, True], ids=["whole", "sharded"])
@pytest.mark.parametrize("row", [0, 2], ids=["first-shard", "last-shard"])
def test_an_overflow_raises_in_any_shard_under_errstate(sharded, row):
    # A plain pool thread starts from numpy's default errstate (warn), so an
    # overflow in a shard it ran would come back as inf and a warning.
    with pytest.MonkeyPatch.context() as patch:
        if sharded:
            shard_every_pass(patch)
        cluster = make_cluster("batched", num_workers=3, dtype="float32")
        cluster.parameter_matrix[row, 0] = 3e38
        reference = np.zeros(cluster.model_dimension, dtype=np.float32)
        reference[0] = -3e38
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            cluster.drift_matrix(reference)


@pytest.mark.parametrize(
    "failing, raised", [((0, 1, 2), "shard 0"), ((1, 2), "shard 1"), ((2,), "shard 2")]
)
def test_every_shard_finishes_before_the_first_failure_is_raised(failing, raised):
    finished = []

    def shard(index, delay):
        time.sleep(delay)
        finished.append(index)
        if index in failing:
            raise ValueError(f"shard {index}")

    # The slowest shard is a pool shard, and shard 2 fails first: the error
    # raised is still the first failing shard's, in shard order.
    with pytest.raises(ValueError, match=raised):
        backend.run_shards(shard, [(0, 0.05), (1, 0.2), (2, 0.0)])
    assert sorted(finished) == [0, 1, 2]


def test_concurrent_masked_steps_lose_no_update():
    """Seven shards on fewer cores, a thread switch every microsecond: each
    shard scatters its state rows into the same moment matrices, and not one
    update may go missing."""

    def run():
        stacked = StackedOptimizer(Adam(0.01), 16, 64)
        params, rows = np.ones((16, 64)), np.arange(16)[::-1].copy()
        for step in range(30):
            block = params[rows]
            stacked.step_rows(block, np.full((16, 64), step + 1.0), rows)
            params[rows] = block
        return params.tobytes(), state_bytes(stacked.state)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as patch:
            shard_every_pass(patch, cores=7)
            assert backend.row_shards(16, 64) == 7
            sharded = run()
    finally:
        sys.setswitchinterval(interval)
    assert sharded == run()


def test_concurrent_compressed_syncs_lose_no_update():
    """Seven shards on fewer cores, a thread switch every microsecond: each
    shard selects into, zeroes and installs its own rows of the shared payload,
    residual and parameter matrices, and not one write may go missing."""
    compression = CompressionConfig("layerwise-topk", ratio=0.1, error_feedback=True)

    def run():
        cluster = make_cluster("batched", num_workers=16, compression=compression)
        rng = np.random.default_rng(0)
        for _ in range(10):
            cluster.parameter_matrix[...] += rng.normal(size=cluster.parameter_matrix.shape)
            cluster.synchronize()
        return state_bytes(cluster.state_dict())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as patch:
            shard_every_pass(patch, cores=7)
            sharded = run()
    finally:
        sys.setswitchinterval(interval)
    assert sharded == run()


def _public_callables(cls):
    for owner in (cls, *_subclasses(cls)):
        for name, attribute in list(vars(owner).items()):
            if name.startswith("_"):
                continue
            if isinstance(attribute, (property, staticmethod, classmethod)) or (
                callable(attribute) and not isinstance(attribute, type)
            ):
                yield owner, name, attribute


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("side", SIDES)
def test_public_methods_run_on_the_calling_thread(every_pass_sharded, monkeypatch, side):
    threads = {}

    def spied(function, name):
        @functools.wraps(function)
        def spy(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return function(*args, **kwargs)

        return spy

    spied_classes = (
        StackedOptimizer, BatchedModel, SimulatedCluster, VarianceMonitor, AmsSketch,
        ClusterCompression, Compressor, ClientPopulation, ClientStateStore, ClientDirectory,
    )
    for cls in spied_classes:
        for owner, name, attribute in _public_callables(cls):
            label = f"{owner.__name__}.{name}"
            if isinstance(attribute, property):
                spy = property(spied(attribute.fget, label), attribute.fset)
            elif isinstance(attribute, (staticmethod, classmethod)):
                spy = type(attribute)(spied(attribute.__func__, label))
            else:
                spy = spied(attribute, label)
            monkeypatch.setattr(owner, name, spy)
    shard_threads = set()
    train = BatchedModel._train

    def shard_spy(*args):
        shard_threads.add(threading.get_ident())
        return train(*args)

    monkeypatch.setattr(BatchedModel, "_train", shard_spy)
    norm_threads = set()
    norms_into = VarianceMonitor._norms_into

    def norms_spy(*args):
        norm_threads.add(threading.get_ident())
        return norms_into(*args)

    monkeypatch.setattr(VarianceMonitor, "_norms_into", norms_spy)
    select_threads = set()
    select = kernels._select_rows

    def select_spy(*args, **kwargs):
        select_threads.add(threading.get_ident())
        return select(*args, **kwargs)

    monkeypatch.setattr(kernels, "_select_rows", select_spy)
    writer_threads = set()
    write = ClientStateStore._write

    def writer_spy(*args):
        writer_threads.add(threading.get_ident())
        return write(*args)

    monkeypatch.setattr(ClientStateStore, "_write", writer_spy)
    # A population whose every eviction is written ahead, on the background thread.
    test_population._run_population(rounds=4, budget=2, num_clients=6, cohort=2)
    cluster = make_cluster(side, num_workers=6, dropout_rate=0.3)
    strategy = FDAStrategy(threshold=0.05, variant="sketch").attach(cluster)
    for _ in range(4):
        strategy.run_round()
    # A compressed run: synchronizations (Local-SGD) and a server round's upload.
    compression = CompressionConfig("topk", ratio=0.1, error_feedback=True)
    for strategy in (LocalSGDStrategy(tau=1), fedavgm_strategy()):
        strategy.attach(make_cluster(side, num_workers=6, compression=compression))
        for _ in range(2):
            strategy.run_round()

    calling = {threading.get_ident()}
    assert {"SimulatedCluster.drift_matrix", "AmsSketch.sketch_rows"} <= set(threads)
    assert {"VarianceMonitor.squared_norms", "VarianceMonitor.local_states"} <= set(threads)
    assert {
        "ClusterCompression.synchronize", "ClusterCompression.gather_models",
        "TopKCompressor.compress_rows",
    } <= set(threads)
    assert {"ClientPopulation.bind_cohort", "ClientStateStore.save"} <= set(threads)
    assert {name: seen for name, seen in threads.items() if seen != calling} == {}
    assert len(select_threads) >= 2, "the top-k selection was not sharded"
    assert len(norm_threads) >= 2, "the monitor's row pass was not sharded"
    assert writer_threads and calling.isdisjoint(writer_threads), "no spill was written ahead"
    if side == "batched":
        assert {"BatchedModel.train_batch", "StackedOptimizer.step_rows"} <= set(threads)
        assert len(shard_threads) >= 2, "the passes were not sharded"


def test_a_shard_pass_runs_while_a_background_job_waits(monkeypatch):
    shard_every_pass(monkeypatch)
    gate = threading.Event()
    job = backend.run_in_background(gate.wait, 10)
    try:
        assert backend.run_shards(lambda value: 2 * value, [(1,), (2,), (3,)]) == [2, 4, 6]
        assert not job.done(), "the shard pass waited behind the background job"
    finally:
        gate.set()
    assert job.result(timeout=10) is True


# -- fork safety ---------------------------------------------------------------------


@pytest.mark.skipif(
    not fork_parallelism_available() or not hasattr(os, "sched_setaffinity"),
    reason="needs fork and CPU affinity",
)
def test_a_forked_cell_runs_one_shard_off_the_parents_pool(
    every_pass_sharded, monkeypatch, blobs_workload
):
    parent = os.getpid()
    submissions = []
    submit = ThreadPoolExecutor.submit

    def parent_only_submit(self, *args, **kwargs):
        # A child submitting to the pool it inherited would wait forever on
        # threads that do not exist there: fail the cell instead.
        if os.getpid() != parent:
            raise RuntimeError("a forked cell submitted work to a thread pool")
        submissions.append(self)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", parent_only_submit)
    workload = blobs_workload
    run = TrainingRun(accuracy_target=0.99, max_steps=6, eval_every_steps=3)
    cells = [
        SweepCell(workload, lambda theta=theta: FDAStrategy(theta, "sketch", seed=0), run)
        for theta in (0.05, 0.5, 5.0)
    ]
    in_process = SweepExecutor(jobs=1).execute(cells)
    assert submissions, "the in-process cells did not shard"
    forked = SweepExecutor(jobs=2).execute(cells)
    assert [result_to_dict(r) for r in forked] == [result_to_dict(r) for r in in_process]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_forgets_the_parents_background_thread():
    assert backend.run_in_background(threading.get_ident).result(timeout=10) != threading.get_ident()
    child = os.fork()
    if child == 0:
        try:
            forgot = backend._background is None
            ran = backend.run_in_background(os.getpid).result(timeout=10) == os.getpid()
            os._exit(0 if forgot and ran else 1)
        finally:
            os._exit(2)
    _, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0
