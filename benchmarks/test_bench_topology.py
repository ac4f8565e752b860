"""Micro-benchmark of the communication fabric: topology × network wall-clock.

Pure fabric-level simulation — no models, no training — so the full grid runs
in milliseconds: per (topology, network) cell it replays an FDA-style round
pattern (one tiny state AllReduce per step, one full-model AllReduce every
``SYNC_PERIOD`` steps) against the BSP pattern (full-model AllReduce every
step) and compares virtual wall-clock.  The shape assertions encode the
paper's headline: the byte savings translate into large wall-clock wins on
the shared 0.5 Gbps federated channel and nearly vanish on InfiniBand.

A second benchmark measures the accounting overhead itself (charges per
second), which is the fabric's hot path inside every training loop.

``REPRO_BENCH_SMALL=1`` (set by the CI smoke job) trims the round counts;
``REPRO_BENCH_STRICT=0`` downgrades the throughput floor to a warning on
runners whose wall-clock cannot be trusted.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.bench_json import emit_bench_section
from repro.core.timeline import Timeline
from repro.distributed.network import get_network
from repro.distributed.topology import Fabric, NAMED_TOPOLOGIES, get_topology

SMALL = os.environ.get("REPRO_BENCH_SMALL", "0") == "1"
STRICT = os.environ.get("REPRO_BENCH_STRICT", "1") != "0"

MODEL_DIMENSION = 1_000_000       # accounting is O(1) in d, so keep it paper-sized
STATE_ELEMENTS = 2                # LinearFDA local state
NUM_WORKERS = 16
SYNC_PERIOD = 10                  # FDA synchronizes every 10th step here
ROUNDS = 60 if SMALL else 300
COMPUTE_SECONDS_PER_STEP = 0.1


def make_fabric(topology_name: str, network_name: str) -> Fabric:
    """A fabric for the K workers above, on a fresh clock of its own."""
    return Fabric(
        num_workers=NUM_WORKERS,
        clock=Timeline(NUM_WORKERS),
        topology=get_topology(topology_name),
        network=get_network(network_name),
    )


def simulate(topology_name: str, network_name: str, fda: bool, rounds: int = ROUNDS):
    """Replay one protocol's round pattern; returns (total_seconds, total_bytes)."""
    fabric = make_fabric(topology_name, network_name)
    seconds = rounds * COMPUTE_SECONDS_PER_STEP
    for round_index in range(rounds):
        if fda:
            seconds += fabric.allreduce(STATE_ELEMENTS, "fda-state").seconds
            if (round_index + 1) % SYNC_PERIOD == 0:
                seconds += fabric.allreduce(MODEL_DIMENSION, "model-sync").seconds
        else:
            seconds += fabric.allreduce(MODEL_DIMENSION, "model-sync").seconds
    return seconds, fabric.tracker.total_bytes


@pytest.mark.benchmark(group="topology")
def test_bench_topology_wallclock_grid():
    print(
        f"\n=== fabric wall-clock: FDA (sync every {SYNC_PERIOD}) vs BSP, "
        f"K={NUM_WORKERS}, d={MODEL_DIMENSION:,}, {ROUNDS} rounds ===")
    header = (
        f"{'topology':<14}{'network':<10}{'BSP s':>10}{'FDA s':>10}"
        f"{'speedup':>9}{'BSP bytes':>14}{'FDA bytes':>14}"
    )
    print(header)
    print("-" * len(header))
    speedups = {}
    rows = []
    for topology in sorted(NAMED_TOPOLOGIES):
        for network in ("fl", "balanced", "hpc"):
            bsp_seconds, bsp_bytes = simulate(topology, network, fda=False)
            fda_seconds, fda_bytes = simulate(topology, network, fda=True)
            speedups[(topology, network)] = bsp_seconds / fda_seconds
            rows.append(
                {
                    "topology": topology,
                    "network": network,
                    "bsp_seconds": round(bsp_seconds, 4),
                    "fda_seconds": round(fda_seconds, 4),
                    "speedup": round(bsp_seconds / fda_seconds, 3),
                    "bsp_bytes": int(bsp_bytes),
                    "fda_bytes": int(fda_bytes),
                }
            )
            print(
                f"{topology:<14}{network:<10}{bsp_seconds:>10.2f}{fda_seconds:>10.2f}"
                f"{bsp_seconds / fda_seconds:>8.2f}x{bsp_bytes:>14,}{fda_bytes:>14,}"
            )
    emit_bench_section("topology", "fda-vs-bsp-wallclock", rows)

    # The paper's claim holds on the few-hop topologies (star, two-level
    # hierarchy, gossip with its log K rounds): the byte savings buy real
    # wall-clock on the federated channel and nearly nothing on InfiniBand.
    for topology in ("star", "hierarchical", "gossip"):
        fl_speedup = speedups[(topology, "fl")]
        hpc_speedup = speedups[(topology, "hpc")]
        assert fl_speedup > 1.2, (
            f"{topology}: expected FDA to beat BSP by >1.2x on the FL network, "
            f"got {fl_speedup:.2f}x"
        )
        assert fl_speedup > hpc_speedup, (
            f"{topology}: expected the FL speedup ({fl_speedup:.2f}x) to exceed "
            f"the HPC speedup ({hpc_speedup:.2f}x)"
        )
        assert hpc_speedup < 1.2, (
            f"{topology}: on HPC the win should be marginal, got {hpc_speedup:.2f}x"
        )
    # The ring is the fabric's cautionary tale: FDA's *per-step* state
    # AllReduce pays the full 2(K-1) sequential latency hops, so on the
    # latency-heavy FL channel the advantage collapses to ~parity — exactly
    # the kind of interconnect effect the fabric exists to expose.
    ring_fl = speedups[("ring", "fl")]
    assert 0.8 < ring_fl < 1.2, (
        f"ring/fl: expected the latency-bound ring to erase FDA's advantage "
        f"(~1.0x), got {ring_fl:.2f}x"
    )


@pytest.mark.benchmark(group="topology")
def test_bench_sync_wallclock_by_topology():
    """One full-model synchronization: how each topology prices it per network."""
    print(f"\n=== one model sync (d={MODEL_DIMENSION:,}, K={NUM_WORKERS}) ===")
    print(f"{'topology':<14}{'fl s':>10}{'hpc s':>10}{'bytes':>14}")
    times = {}
    rows = []
    for topology in sorted(NAMED_TOPOLOGIES):
        row = {}
        num_bytes = 0
        for network in ("fl", "hpc"):
            charge = make_fabric(topology, network).allreduce(MODEL_DIMENSION, "model-sync")
            row[network] = charge.seconds
            num_bytes = charge.num_bytes
        times[topology] = row
        rows.append(
            {
                "topology": topology,
                "fl_seconds": round(row["fl"], 6),
                "hpc_seconds": round(row["hpc"], 6),
                "bytes": int(num_bytes),
            }
        )
        print(f"{topology:<14}{row['fl']:>10.3f}{row['hpc']:>10.5f}{num_bytes:>14,}")
    emit_bench_section("topology", "sync-wallclock-by-topology", rows)
    # Every topology is slower on the federated channel than on InfiniBand,
    # and the ring's 2(K-1) latency hops cost more than the star's 2 on the
    # latency-heavy FL network.
    for topology, row in times.items():
        assert row["fl"] > row["hpc"]
    assert times["ring"]["fl"] > times["star"]["fl"]


@pytest.mark.benchmark(group="topology")
def test_bench_fabric_accounting_overhead():
    """The fabric charge itself must stay off the training hot path's budget."""
    iterations = 2_000 if SMALL else 20_000
    fabric = make_fabric("star", "fl")
    start = time.perf_counter()
    for _ in range(iterations):
        fabric.allreduce(STATE_ELEMENTS, "fda-state")
    elapsed = time.perf_counter() - start
    rate = iterations / elapsed
    print(f"\nfabric.allreduce accounting: {rate:,.0f} charges/s")
    emit_bench_section(
        "topology",
        "accounting-overhead",
        [{"iterations": iterations, "charges_per_sec": round(rate, 1)}],
    )
    floor = 20_000.0
    if rate < floor and not STRICT:
        print(f"  WARNING: {rate:,.0f} charges/s < {floor:,.0f} (REPRO_BENCH_STRICT=0)")
        return
    assert rate > floor, f"fabric accounting too slow: {rate:,.0f} charges/s"
