"""Population-plane benchmark: round throughput must not scale with N.

The tentpole claim of the population plane is that simulating ``N`` logical
clients costs O(cohort) per round, not O(N): registration is O(1) descriptors,
per-round work touches only the sampled cohort, and resident client state is
bounded by the store budget (a function of the cohort size).  This benchmark
grows ``N`` 100× at a fixed cohort and asserts rounds/s stays flat (≤ 1.2×
degradation; the timed rounds of every N take turns, best of three passes)
while the resident high-water mark stays at ``2·cohort``.  A cohort=all
parity cell rides along because it is cheap to assert with clusters in hand:
population mode over the workers' own shards must be *bit-identical* to the
fully materialized cluster.

Env knobs (CI uses both for the smoke leg):

* ``REPRO_BENCH_SMALL=1`` — shrink the N grid to [10⁴, 10⁵] and halve rounds.
* ``REPRO_BENCH_STRICT=0`` — downgrade the wall-clock ratio assertion to a
  warning (shared CI runners time noisily); the memory-bound and parity
  assertions stay hard everywhere.

Emits ``BENCH_population.json`` (sections ``scaling`` and ``parity``) for the
CI artifact trail.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.bench_json import emit_bench_section
from repro.data.datasets import Dataset
from repro.data.synthetic import gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.nn.architectures import mlp
from repro.optim.adam import Adam
from repro.population import ClientPopulation, PopulationConfig
from repro.strategies.local_sgd import LocalSGDStrategy

SMALL = os.environ.get("REPRO_BENCH_SMALL", "0") == "1"
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

#: Population sizes; 100× growth between the endpoints in either mode.
N_GRID = [10_000, 100_000] if SMALL else [10_000, 100_000, 1_000_000]
COHORT = 16
WARMUP_ROUNDS = 2
TIMED_ROUNDS = 5 if SMALL else 10
#: Allowed rounds/s degradation from the smallest to the largest N.
MAX_DEGRADATION = 1.2
#: Timing passes over the whole N grid; each N keeps its fastest pass.
TIMING_PASSES = 3


def _make_cluster(num_workers: int) -> SimulatedCluster:
    rng = np.random.default_rng(7)
    workers = []
    for worker_id in range(num_workers):
        x = rng.normal(size=(40, 6))
        y = rng.integers(0, 3, size=40)
        workers.append(
            Worker(
                worker_id,
                mlp(6, 3, hidden_units=(10, 8), seed=11),
                Dataset(x, y, 3),
                batch_size=8,
                seed=worker_id,
            )
        )
    return SimulatedCluster(workers, Adam(0.01))


def _population(num_clients: int) -> ClientPopulation:
    """A warmed-up population of ``num_clients`` over a ``COHORT``-slot cluster."""
    train = gaussian_blobs(600, feature_dim=6, num_classes=3, seed=0)
    cluster = _make_cluster(COHORT)
    strategy = LocalSGDStrategy(tau=2).attach(cluster)
    population = ClientPopulation(
        PopulationConfig(
            num_clients=num_clients,
            cohort_size=COHORT,
            weighting="data-size",
            min_client_samples=24,
            max_client_samples=48,
        ),
        train_dataset=train,
        seed=2026,
    )
    population.attach(cluster, strategy)
    for _ in range(WARMUP_ROUNDS):
        population.run_round()
    return population


def _row(population: ClientPopulation, elapsed: float) -> dict:
    return {
        "num_clients": population.config.num_clients,
        "cohort_size": COHORT,
        "timed_rounds": TIMED_ROUNDS,
        "elapsed_s": elapsed,
        "rounds_per_s": TIMED_ROUNDS / elapsed,
        "peak_resident": population.peak_resident_clients,
        "resident_budget": population.config.effective_memory_budget,
        "stateful_clients": population.store.stateful_count,
        "evictions": population.store.evictions,
        "spill_loads": population.store.spill_loads,
    }


def _timing_pass() -> list:
    """One row per N: fresh populations whose timed rounds take turns.

    Round ``r`` of every N runs before round ``r + 1`` of any, so a change in
    the host's speed mid-pass slows every N alike.
    """
    populations = [_population(n) for n in N_GRID]
    elapsed = [0.0] * len(populations)
    for _ in range(TIMED_ROUNDS):
        for index, population in enumerate(populations):
            start = time.perf_counter()
            population.run_round()
            elapsed[index] += time.perf_counter() - start
    return [_row(population, seconds) for population, seconds in zip(populations, elapsed)]


def test_rounds_per_second_is_flat_in_population_size(benchmark):
    passes = benchmark.pedantic(
        lambda: [_timing_pass() for _ in range(TIMING_PASSES)], rounds=1, iterations=1
    )
    rows = [max(cells, key=lambda row: row["rounds_per_s"]) for cells in zip(*passes)]

    header = (
        f"{'N':>10}{'rounds/s':>12}{'peak-res':>10}{'budget':>8}"
        f"{'stateful':>10}{'evictions':>11}"
    )
    print(
        f"\n=== Population scaling: cohort={COHORT}, {TIMED_ROUNDS} timed rounds, "
        f"best of {TIMING_PASSES} passes ==="
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['num_clients']:>10}{row['rounds_per_s']:>12.2f}"
            f"{row['peak_resident']:>10}{row['resident_budget']:>8}"
            f"{row['stateful_clients']:>10}{row['evictions']:>11}"
        )
    emit_bench_section("population", "scaling", rows)

    # Memory bound is hard everywhere: resident state tracks the cohort (the
    # default budget is 2·C), never N, and only ever-sampled clients hold any
    # state at all.
    for row in (row for cells in passes for row in cells):
        assert row["peak_resident"] <= row["resident_budget"] == 2 * COHORT
        assert row["stateful_clients"] <= (WARMUP_ROUNDS + TIMED_ROUNDS) * COHORT

    ratio = rows[0]["rounds_per_s"] / rows[-1]["rounds_per_s"]
    message = (
        f"rounds/s degraded {ratio:.3f}x from N={rows[0]['num_clients']} to "
        f"N={rows[-1]['num_clients']} (bar: {MAX_DEGRADATION}x)"
    )
    if not STRICT and ratio > MAX_DEGRADATION:
        print(f"WARNING (REPRO_BENCH_STRICT=0): {message}")
        return
    assert ratio <= MAX_DEGRADATION, message


def test_cohort_all_population_is_bit_exact(benchmark):
    def _pair():
        plain = _make_cluster(4)
        plain_strategy = LocalSGDStrategy(tau=2).attach(plain)
        plain_losses = [plain_strategy.run_round().mean_loss for _ in range(6)]

        populated = _make_cluster(4)
        pop_strategy = LocalSGDStrategy(tau=2).attach(populated)
        population = ClientPopulation(
            PopulationConfig(num_clients=4, cohort_size=4, weighting="uniform"),
            shards=[worker.dataset for worker in populated.workers],
            client_seed_fn=lambda client_id: client_id,
        )
        population.attach(populated, pop_strategy)
        pop_losses = [population.run_round().mean_loss for _ in range(6)]
        return plain, plain_losses, populated, pop_losses

    plain, plain_losses, populated, pop_losses = benchmark.pedantic(
        _pair, rounds=1, iterations=1
    )
    exact = bool(
        np.array_equal(plain.parameter_matrix, populated.parameter_matrix)
        and plain_losses == pop_losses
        and plain.total_bytes == populated.total_bytes
    )
    print("\n=== Cohort=all parity ===")
    print(f"  losses equal : {plain_losses == pop_losses}")
    print(f"  bytes        : {plain.total_bytes} == {populated.total_bytes}")
    emit_bench_section(
        "population",
        "parity",
        [
            {
                "num_workers": 4,
                "rounds": 6,
                "bit_exact": exact,
                "total_bytes": plain.total_bytes,
            }
        ],
    )
    # The parity contract is hard in every mode: cohort=all + uniform
    # weighting executes identical arithmetic to the materialized cluster.
    np.testing.assert_array_equal(plain.parameter_matrix, populated.parameter_matrix)
    assert plain_losses == pop_losses
    assert plain.total_bytes == populated.total_bytes
