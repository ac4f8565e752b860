"""One owner per fact: the shared model, the communication seconds, the churn.

The model shared at the last synchronization (the paper's ``w_{t0}``) was
once kept three times — by FDA as its drift reference, by the compression
state as the reference drifts are taken against, and by the server round as
its global model — and rotated in step by three owners.  The communication
seconds were booked twice (the fabric's ledger and the timeline's), and so
was churn (the fault log and a timeline list).  Each fact has one owner now:
``SimulatedCluster.shared_parameters``, ``Fabric.comm_seconds`` and the
:class:`~repro.faults.injector.FaultLog`.

``FROZEN`` was recorded while the copies still existed, over FDA, Local-SGD
with top-k + error feedback, FedAdam, FedProx and SCAFFOLD on a star and a
two-level fabric, with and without a crash + loss plan, on both
engines (the per-worker one is the test oracle now,
``tests/helpers/per_worker.py``); FedAdam and SCAFFOLD on a float32 plane; and the served coordinator
open- and closed-loop on a lossy two-level fabric.  Per cell: the ``repr`` of
the virtual, compute and communication seconds, a digest of the fault log and
the evaluation history (or served records), and a digest of the final
parameter matrix.  Deleting the copies moved none of it.  When the lockstep
FDA trainer stopped sending the states of quiet steps, the four clean FDA
cells per engine (plain and top-k, star and two-level) were re-recorded:
their communication and virtual seconds and history digests moved, their
parameter digests did not; the chaos cells (worker churn keeps the exchange
on every step) did not move at all.  When straggler spikes and payload
corruption left the fault plane, the chaos plan lost its spike rate and the
fault log its spike and corruption entries: each chaos cell's virtual and
compute seconds and log digest moved (no spike stalls the clock), its
communication seconds and parameter digest did not, and each served cell
moved its log digest alone.
"""

import hashlib
from dataclasses import replace

import pytest

from helpers.per_worker import SIDES, on_side
from helpers.serving import serve_next
from repro.compression import CompressionConfig
from repro.core.monitor import make_monitor
from repro.distributed.topology import HierarchicalTopology
from repro.experiments.run import TrainingRun
from repro.experiments.setup import build_cluster
from repro.faults import FaultPlan
from repro.serving import ServedFDATrainer, ServingConfig
from repro.strategies.drift_control import FedProxStrategy, ScaffoldStrategy
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import fedadam_strategy
from repro.strategies.local_sgd import LocalSGDStrategy

STRATEGIES = {
    "fda": lambda: FDAStrategy(threshold=0.01),
    "fda-topk": lambda: FDAStrategy(threshold=0.01),
    "local-sgd-topk": lambda: LocalSGDStrategy(tau=2),
    "fedadam": fedadam_strategy,
    "fedadam-topk": fedadam_strategy,
    "fedprox": lambda: FedProxStrategy(mu=0.5),
    "scaffold": lambda: ScaffoldStrategy(local_learning_rate_hint=0.01),
}
TOPK_EF = CompressionConfig("topk", ratio=0.1, error_feedback=True)
class PairedHierarchy(HierarchicalTopology):
    """Groups of two, so the four workers here sit under two heads."""

    group_size = 2


FABRICS = {"star": "star", "hier": PairedHierarchy()}
PLANS = {
    "clean": None,
    "chaos": FaultPlan(crash_rate=0.2, recovery_rounds=3, loss_rate=0.1, seed=7),
}
LOSSY = FaultPlan(loss_rate=0.2, seed=5)


def _digest(*parts) -> str:
    return hashlib.sha256("|".join(map(repr, parts)).encode()).hexdigest()[:16]


def _params_digest(cluster) -> str:
    return hashlib.sha256(cluster.parameter_matrix.tobytes()).hexdigest()[:16]


def _workload(base, fabric, plan, dtype="float64"):
    return replace(
        base,
        topology=FABRICS[fabric],
        network="balanced",
        faults=PLANS[plan],
        dtype=dtype,
    )


def run_record(base, cell: str) -> tuple:
    """``strategy/fabric/plan/engine[/float32]`` -> its frozen record."""
    strategy, fabric, plan, engine, *dtype = cell.split("/")
    workload = _workload(base, fabric, plan, *dtype)
    if strategy.endswith("-topk"):
        workload = replace(workload, compression=TOPK_EF)
    cluster, test_dataset = build_cluster(workload)
    on_side(engine, cluster)
    result = TrainingRun(accuracy_target=0.995, max_steps=24, eval_every_steps=12).execute(
        STRATEGIES[strategy](), cluster, test_dataset, workload_name=workload.name
    )
    return (
        repr(result.virtual_seconds),
        repr(result.compute_seconds),
        repr(result.comm_seconds),
        _digest(result.fault_log, result.history.entries),
        _params_digest(cluster),
    )


def served_record(base, cell: str) -> tuple:
    """``served/arrival/engine`` -> its frozen record (60 served updates)."""
    _, arrival, engine = cell.split("/")
    workload = replace(_workload(base, "hier", "clean"), faults=LOSSY)
    cluster = on_side(engine, build_cluster(workload)[0])
    config = ServingConfig(
        arrival=arrival,
        arrival_rate=0.5,
        queue_capacity=None if arrival == "closed" else 8,
        service_seconds=0.0 if arrival == "closed" else 0.2,
        arrival_seed=3,
    )
    monitor = make_monitor("linear", cluster.model_dimension, seed=0)
    served = ServedFDATrainer(cluster, monitor, 0.01, config)
    records = [tuple(map(repr, serve_next(served))) for _ in range(60)]
    return (
        repr(served.timeline.now),
        repr(served.timeline.compute_seconds),
        repr(cluster.fabric.comm_seconds),
        _digest(cluster.faults.log.to_dict(), records, cluster.total_bytes),
        _params_digest(cluster),
    )


def _cells():
    for strategy in STRATEGIES:
        for fabric in FABRICS:
            for plan in PLANS:
                if strategy.endswith("-topk") and plan != "clean":
                    continue  # faults x compression is refused
                for engine in SIDES:
                    yield f"{strategy}/{fabric}/{plan}/{engine}"
    for strategy in ("fedadam", "scaffold"):
        for plan in PLANS:
            for engine in SIDES:
                yield f"{strategy}/star/{plan}/{engine}/float32"


SERVED = [
    f"served/{arrival}/{engine}"
    for arrival in ("poisson", "closed")
    for engine in SIDES
]

FROZEN = {
    "fda/star/clean/per-worker": (
        "24.27003596799999", "24.0", "0.270035968",
        "627f81b6efbba026", "1dd73381f590440d",
    ),
    "fda/star/clean/batched": (
        "24.27003596799999", "24.0", "0.270035968",
        "627f81b6efbba026", "1dd73381f590440d",
    ),
    "fda/star/chaos/per-worker": (
        "36.965131865599986", "34.0", "3.275186777599997",
        "530216447d7cbd6d", "5dde3b4850af7af3",
    ),
    "fda/star/chaos/batched": (
        "36.965131865599986", "34.0", "3.275186777599997",
        "530216447d7cbd6d", "5dde3b4850af7af3",
    ),
    "fda/hier/clean/per-worker": (
        "24.540071936000004", "24.0", "0.540071936",
        "bd838dfb7048f7f3", "1dd73381f590440d",
    ),
    "fda/hier/clean/batched": (
        "24.540071936000004", "24.0", "0.540071936",
        "bd838dfb7048f7f3", "1dd73381f590440d",
    ),
    "fda/hier/chaos/per-worker": (
        "40.340276134400014", "34.0", "6.490351014399998",
        "855f4d6dd8fa304e", "5dde3b4850af7af3",
    ),
    "fda/hier/chaos/batched": (
        "40.340276134400014", "34.0", "6.490351014399998",
        "855f4d6dd8fa304e", "5dde3b4850af7af3",
    ),
    "fda-topk/star/clean/per-worker": (
        "24.310013260799995", "24.0", "0.31001326080000013",
        "ceef4b3bed3ff8eb", "95934b4b7798e4ee",
    ),
    "fda-topk/star/clean/batched": (
        "24.310013260799995", "24.0", "0.31001326080000013",
        "ceef4b3bed3ff8eb", "95934b4b7798e4ee",
    ),
    "fda-topk/hier/clean/per-worker": (
        "24.620026521599993", "24.0", "0.6200265216000003",
        "85093f82aab548bd", "95934b4b7798e4ee",
    ),
    "fda-topk/hier/clean/batched": (
        "24.620026521599993", "24.0", "0.6200265216000003",
        "85093f82aab548bd", "95934b4b7798e4ee",
    ),
    "local-sgd-topk/star/clean/per-worker": (
        "24.120012288", "24.0", "0.12001228799999998",
        "46d28a0b327e1b2e", "2baeba0bc4f15948",
    ),
    "local-sgd-topk/star/clean/batched": (
        "24.120012288", "24.0", "0.12001228799999998",
        "46d28a0b327e1b2e", "2baeba0bc4f15948",
    ),
    "local-sgd-topk/hier/clean/per-worker": (
        "24.240024575999993", "24.0", "0.24002457599999996",
        "dbb58710fd0a0196", "2baeba0bc4f15948",
    ),
    "local-sgd-topk/hier/clean/batched": (
        "24.240024575999993", "24.0", "0.24002457599999996",
        "dbb58710fd0a0196", "2baeba0bc4f15948",
    ),
    "fedadam/star/clean/per-worker": (
        "24.040019967999996", "24.0", "0.040019968",
        "b17da5303bf4c853", "d6f53effca8b1a30",
    ),
    "fedadam/star/clean/batched": (
        "24.040019967999996", "24.0", "0.040019968",
        "b17da5303bf4c853", "d6f53effca8b1a30",
    ),
    "fedadam/star/chaos/per-worker": (
        "30.365032447999997", "30.0", "0.48504243199999997",
        "7ba5d6f644cfa472", "0edec012982b74c0",
    ),
    "fedadam/star/chaos/batched": (
        "30.365032447999997", "30.0", "0.48504243199999997",
        "7ba5d6f644cfa472", "0edec012982b74c0",
    ),
    "fedadam/hier/clean/per-worker": (
        "24.080039936000002", "24.0", "0.080039936",
        "32c3619d1d457e01", "d6f53effca8b1a30",
    ),
    "fedadam/hier/clean/batched": (
        "24.080039936000002", "24.0", "0.080039936",
        "32c3619d1d457e01", "d6f53effca8b1a30",
    ),
    "fedadam/hier/chaos/per-worker": (
        "30.730064895999995", "30.0", "0.755077376",
        "a7ca6e0f4adcecb0", "0edec012982b74c0",
    ),
    "fedadam/hier/chaos/batched": (
        "30.730064895999995", "30.0", "0.755077376",
        "a7ca6e0f4adcecb0", "0edec012982b74c0",
    ),
    "fedadam-topk/star/clean/per-worker": (
        "24.040004096000004", "24.0", "0.040004096",
        "45991701f5d41b9b", "65130ac3eb3b6fc6",
    ),
    "fedadam-topk/star/clean/batched": (
        "24.040004096000004", "24.0", "0.040004096",
        "45991701f5d41b9b", "65130ac3eb3b6fc6",
    ),
    "fedadam-topk/hier/clean/per-worker": (
        "24.080008191999998", "24.0", "0.080008192",
        "86e8d93b146bd043", "65130ac3eb3b6fc6",
    ),
    "fedadam-topk/hier/clean/batched": (
        "24.080008191999998", "24.0", "0.080008192",
        "86e8d93b146bd043", "65130ac3eb3b6fc6",
    ),
    "fedprox/star/clean/per-worker": (
        "24.040019967999996", "24.0", "0.040019968",
        "37594f2e1c3ac532", "d836aaa5e595a4b9",
    ),
    "fedprox/star/clean/batched": (
        "24.040019967999996", "24.0", "0.040019968",
        "37594f2e1c3ac532", "d836aaa5e595a4b9",
    ),
    "fedprox/star/chaos/per-worker": (
        "30.365032447999997", "30.0", "0.48504243199999997",
        "dd936849f00d8035", "d24eefe70426073a",
    ),
    "fedprox/star/chaos/batched": (
        "30.365032447999997", "30.0", "0.48504243199999997",
        "dd936849f00d8035", "d24eefe70426073a",
    ),
    "fedprox/hier/clean/per-worker": (
        "24.080039936000002", "24.0", "0.080039936",
        "3c2cb534c5f3dc80", "d836aaa5e595a4b9",
    ),
    "fedprox/hier/clean/batched": (
        "24.080039936000002", "24.0", "0.080039936",
        "3c2cb534c5f3dc80", "d836aaa5e595a4b9",
    ),
    "fedprox/hier/chaos/per-worker": (
        "30.730064895999995", "30.0", "0.755077376",
        "e231c9013c5b2efc", "d24eefe70426073a",
    ),
    "fedprox/hier/chaos/batched": (
        "30.730064895999995", "30.0", "0.755077376",
        "e231c9013c5b2efc", "d24eefe70426073a",
    ),
    "scaffold/star/clean/per-worker": (
        "24.040039936", "24.0", "0.040039936",
        "8a61e360d4531d16", "347790f10bd7c99a",
    ),
    "scaffold/star/clean/batched": (
        "24.040039936", "24.0", "0.040039936",
        "8a61e360d4531d16", "347790f10bd7c99a",
    ),
    "scaffold/star/chaos/per-worker": (
        "30.365064896", "30.0", "0.48507488",
        "bc2ef638f1021228", "1de48fc666af5743",
    ),
    "scaffold/star/chaos/batched": (
        "30.365064896", "30.0", "0.48507488",
        "bc2ef638f1021228", "1de48fc666af5743",
    ),
    "scaffold/hier/clean/per-worker": (
        "24.080079872", "24.0", "0.080079872",
        "202073840ee87815", "347790f10bd7c99a",
    ),
    "scaffold/hier/clean/batched": (
        "24.080079872", "24.0", "0.080079872",
        "202073840ee87815", "347790f10bd7c99a",
    ),
    "scaffold/hier/chaos/per-worker": (
        "30.730129792000003", "30.0", "0.7551422720000001",
        "9e250572a4f05a45", "1de48fc666af5743",
    ),
    "scaffold/hier/chaos/batched": (
        "30.730129792000003", "30.0", "0.7551422720000001",
        "9e250572a4f05a45", "1de48fc666af5743",
    ),
    "fedadam/star/clean/per-worker/float32": (
        "24.040009983999997", "24.0", "0.040009984",
        "4bf68ce2be676f5c", "b64ab2cc46c4d2a6",
    ),
    "fedadam/star/clean/batched/float32": (
        "24.040009983999997", "24.0", "0.040009984",
        "4bf68ce2be676f5c", "b64ab2cc46c4d2a6",
    ),
    "fedadam/star/chaos/per-worker/float32": (
        "30.365016223999994", "30.0", "0.48502121600000003",
        "b952c276976103f7", "bb5a33310eface60",
    ),
    "fedadam/star/chaos/batched/float32": (
        "30.365016223999994", "30.0", "0.48502121600000003",
        "b952c276976103f7", "bb5a33310eface60",
    ),
    "scaffold/star/clean/per-worker/float32": (
        "24.040019967999996", "24.0", "0.040019968",
        "f9e11d4156d4581b", "90d1e7f05dc4a320",
    ),
    "scaffold/star/clean/batched/float32": (
        "24.040019967999996", "24.0", "0.040019968",
        "f9e11d4156d4581b", "90d1e7f05dc4a320",
    ),
    "scaffold/star/chaos/per-worker/float32": (
        "30.365032447999997", "30.0", "0.48503744",
        "5fedc603188a4c4d", "c5756ddbb706cd58",
    ),
    "scaffold/star/chaos/batched/float32": (
        "30.365032447999997", "30.0", "0.48503744",
        "5fedc603188a4c4d", "c5756ddbb706cd58",
    ),
    "served/poisson/per-worker": (
        "41.84212952491768", "0.0", "5.230082790399999",
        "a2f65f8080f0df54", "06f529c11c4b3016",
    ),
    "served/poisson/batched": (
        "41.84212952491768", "0.0", "5.230082790399999",
        "a2f65f8080f0df54", "06f529c11c4b3016",
    ),
    "served/closed/per-worker": (
        "17.8650853504", "16.5950004864", "5.6600878847999985",
        "b611cf6774f3e16d", "fa65ad917ee0086a",
    ),
    "served/closed/batched": (
        "17.8650853504", "16.5950004864", "5.6600878847999985",
        "b611cf6774f3e16d", "fa65ad917ee0086a",
    ),
}


@pytest.mark.parametrize("cell", list(_cells()))
def test_run_is_frozen(blobs_workload, cell):
    assert run_record(blobs_workload, cell) == FROZEN[cell]


@pytest.mark.parametrize("cell", SERVED)
def test_served_run_is_frozen(blobs_workload, cell):
    assert served_record(blobs_workload, cell) == FROZEN[cell]
