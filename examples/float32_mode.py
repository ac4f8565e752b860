"""float32 as a first-class compute mode: half the bytes, faster steps.

The paper reports communication in float32 terms — real FL deployments train
and ship single-precision models.  This reproduction keeps float64 as the
bit-exact reference mode (every golden trajectory is pinned against it) and
offers float32 as a supported fast mode behind the backend seam
(:mod:`repro.backend`), selected with one knob: ``WorkloadConfig.dtype`` /
``SimulatedCluster(dtype=...)``.

Two claims, demonstrated end-to-end and *asserted*:

1. **Conservation** — the fabric prices collectives at the plane dtype's
   itemsize, so the float32 run of the same protocol charges *exactly* half
   the sync bytes of the float64 run, on the ledger total and on every
   individual link of the topology.

2. **Throughput** — on a bandwidth-bound model (wide stacked GEMMs, a
   ``(K, d)`` optimizer update measured in megabytes), halving the element
   size buys a measurable steps/s improvement on the batched engine.

Run with::

    python examples/float32_mode.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.datasets import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.nn.architectures import mlp
from repro.optim.sgd import SGD
from repro.utils.formatting import format_bytes

#: The workload: K=8 workers on a wide d≈1e5 MLP (9 hidden layers of width
#: 100) — stacked GEMMs big enough that memory traffic, not Python dispatch,
#: carries the step.  Deliberately the same regime as the BENCH dtype cell.
NUM_WORKERS = 8
FEATURES, WIDTH, DEPTH, CLASSES = 150, 100, 9, 40
BATCH_SIZE = 16
STEPS = 10


def build_cluster(dtype: str) -> SimulatedCluster:
    rng = np.random.default_rng(0)
    workers = []
    for worker_id in range(NUM_WORKERS):
        model = mlp(FEATURES, CLASSES, hidden_units=(WIDTH,) * DEPTH, seed=1)
        x = rng.normal(size=(2 * BATCH_SIZE, FEATURES))
        y = rng.integers(0, CLASSES, size=2 * BATCH_SIZE)
        workers.append(
            Worker(
                worker_id,
                model,
                Dataset(x, y, CLASSES),
                batch_size=BATCH_SIZE,
                seed=worker_id,
            )
        )
    # A ring topology so the per-link ledger has several edges to compare;
    # the fabric prices every link at the dtype's itemsize (8 vs 4 B).
    return SimulatedCluster(workers, SGD(0.05), topology="ring", dtype=dtype)


def run_mode(dtype: str):
    """Train STEPS steps (sync every other step); return (cluster, steps/s)."""
    cluster = build_cluster(dtype)
    cluster.step_all()  # warmup: optimizer state, layer scratch, BLAS threads
    start = time.perf_counter()
    for step in range(STEPS):
        loss = cluster.step_all()
        if step % 2 == 1:
            cluster.synchronize()
    elapsed = time.perf_counter() - start
    assert np.isfinite(loss), f"{dtype} training must stay finite"
    return cluster, STEPS / elapsed


def main() -> None:
    print("float32 fast mode vs the float64 reference, same protocol")
    print("=" * 64)
    clusters, rates = {}, {}
    for dtype in ("float64", "float32"):
        clusters[dtype], rates[dtype] = run_mode(dtype)
        assert clusters[dtype].parameter_matrix.dtype == np.dtype(dtype)

    d = clusters["float64"].model_dimension
    print(f"\nmodel dimension d = {d:,}; K = {NUM_WORKERS} workers, ring topology")
    print(f"\n{'mode':<10}{'steps/s':>10}{'sync bytes':>14}{'B/element':>11}")
    print("-" * 45)
    for dtype in ("float64", "float32"):
        cluster = clusters[dtype]
        per_element = cluster.fabric.itemsize
        print(
            f"{dtype:<10}{rates[dtype]:>10.1f}"
            f"{format_bytes(cluster.total_bytes):>14}{per_element:>11}"
        )

    # -- claim 1: exact byte conservation, total and per link -----------------
    total64 = clusters["float64"].total_bytes
    total32 = clusters["float32"].total_bytes
    assert total64 == 2 * total32, (
        f"float32 must charge exactly half the sync bytes: {total32} vs {total64}"
    )
    links64 = clusters["float64"].fabric.bytes_by_link
    links32 = clusters["float32"].fabric.bytes_by_link
    assert links32, "the ring must have recorded per-link traffic"
    assert set(links64) == set(links32), "both runs must use the same links"
    for link in links64:
        assert links64[link] == 2 * links32[link], f"link {link} must carry half"

    print("\nper-link ledger (ring, each worker to its neighbour):")
    print(f"{'link':>8}{'float64':>12}{'float32':>12}{'ratio':>7}")
    for (src, dst), bytes64 in sorted(links64.items())[:4]:
        print(
            f"{f'{src}->{dst}':>8}{format_bytes(bytes64):>12}"
            f"{format_bytes(links32[(src, dst)]):>12}"
            f"{bytes64 / links32[(src, dst)]:>6.1f}x"
        )
    print(f"   ... every one of the {len(links64)} links carries exactly half.")

    # -- claim 2: the measured steps/s delta ----------------------------------
    speedup = rates["float32"] / rates["float64"]
    print(
        f"\nmeasured throughput: {rates['float64']:.1f} steps/s at float64 vs "
        f"{rates['float32']:.1f} at float32 — {speedup:.2f}x from halving the "
        "element size on a bandwidth-bound model."
    )
    assert speedup > 1.1, (
        f"expected a measurable float32 speedup on this model, got {speedup:.2f}x "
        "(a loaded machine can blur the ratio; re-run on a quiet one)"
    )
    print(
        "\nfloat64 stays the bit-exact reference: golden trajectories and parity "
        "suites pin it; float32 is the deployment-realistic fast mode, one "
        "`dtype=\"float32\"` away."
    )


if __name__ == "__main__":
    main()
