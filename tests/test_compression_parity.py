"""Cross-engine parity for compressed runs (ISSUE-5 acceptance criterion).

Compression lives at the cluster's collective layer, *above* the engine: the
engine and the per-worker oracle feed the same ``(K, d)`` parameter matrix
into the same row-wise kernels at the same protocol points.  These tests pin
that claim for every server-based strategy — FDA, Local-SGD, FedOpt, FedProx,
SCAFFOLD, and the BSP baseline — running with error-feedback top-k on both
sides through the reusable harness in :mod:`tests.helpers.parity`: SGD
trajectories must be value-exact and the byte ledgers exactly equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.distributed.engine import BatchedEngine
from repro.optim.sgd import SGD
from repro.optim.server import FedAvgM
from repro.strategies.drift_control import FedProxStrategy, ScaffoldStrategy
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import FedOptStrategy
from repro.strategies.local_sgd import LocalSGDStrategy
from repro.strategies.synchronous import SynchronousStrategy

from helpers.parity import make_cluster, run_fda_parity, run_strategy_parity
from helpers.per_worker import SIDES

#: The compression setting the acceptance criterion names: top-k + error
#: feedback, uniform across strategies.
TOPK_EF = CompressionConfig("topk", ratio=0.25, error_feedback=True)

#: Value-exact scenarios need SGD (the engines' bit-identical stacked rule).
SGD_FACTORY = lambda: SGD(0.05)  # noqa: E731 - a tiny test fixture

#: step-cadence strategies: several rounds are cheap.
STEP_STRATEGIES = {
    "synchronous": lambda: SynchronousStrategy(),
    "local-sgd": lambda: LocalSGDStrategy(tau=3),
    "fda": lambda: FDAStrategy(threshold=0.05, variant="linear"),
}

#: epoch-cadence strategies: fewer rounds keep the grid fast.
EPOCH_STRATEGIES = {
    "fedopt": lambda: FedOptStrategy(FedAvgM(learning_rate=0.5, momentum=0.9), local_epochs=1),
    "fedprox": lambda: FedProxStrategy(mu=0.05, local_epochs=1),
    "scaffold": lambda: ScaffoldStrategy(local_epochs=1, local_learning_rate_hint=0.05),
}


@pytest.mark.parametrize("name", sorted(STEP_STRATEGIES))
def test_step_strategies_compressed_parity_value_exact(name):
    run_strategy_parity(
        STEP_STRATEGIES[name],
        rounds=8,
        exact=True,
        num_workers=4,
        optimizer_factory=SGD_FACTORY,
        compression=TOPK_EF,
    )


@pytest.mark.parametrize("name", sorted(EPOCH_STRATEGIES))
def test_epoch_strategies_compressed_parity_value_exact(name, monkeypatch):
    # Every local epoch is an engine epoch: the batched run steps through the
    # stacked kernels, gradient transform included, and the per-worker side
    # never does.  (FedProx and SCAFFOLD used to drive ``worker.local_epoch``
    # themselves, so their cells compared the per-worker arithmetic with
    # itself.)
    stacked_steps = []
    train_rows = BatchedEngine._train_rows

    def spy(self, rows, x, y, transform=None):
        stacked_steps.append(transform is not None)
        return train_rows(self, rows, x, y, transform)

    monkeypatch.setattr(BatchedEngine, "_train_rows", spy)
    _, batched = run_strategy_parity(
        EPOCH_STRATEGIES[name],
        rounds=3,
        exact=True,
        num_workers=4,
        optimizer_factory=SGD_FACTORY,
        compression=TOPK_EF,
    )
    assert len(stacked_steps) == sum(w.steps_performed for w in batched.workers) > 0
    assert set(stacked_steps) == {name != "fedopt"}


@pytest.mark.float32_smoke
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_fda_trainer_compressed_parity_under_dropout(dtype):
    """FDA's triggered syncs compress identically on both sides, masked included.

    The grid cell runs at both plane dtypes: float64 is held to value-exact
    parity; float32 uses the harness's eps-derived tolerance (the kernels are
    shared, but single-precision GEMMs re-associate more visibly) while the
    error-feedback residual, sync decisions, and ledgers stay exact.
    """
    run_fda_parity(
        variant="linear",
        threshold=0.05,
        steps=16,
        exact=dtype == "float64",
        dtype=dtype,
        num_workers=4,
        optimizer_factory=SGD_FACTORY,
        dropout_rate=0.3,
        compression=TOPK_EF,
    )


def test_compression_reduces_bytes_identically_on_both_sides():
    """The savings themselves — not just the trajectories — are engine-independent."""
    totals = {}
    for compression in (None, TOPK_EF):
        for side in SIDES:
            cluster = make_cluster(
                side,
                num_workers=4,
                optimizer_factory=SGD_FACTORY,
                compression=compression,
            )
            SynchronousStrategy().attach(cluster).run_steps(6)
            totals[(compression is not None, side)] = cluster.total_bytes
    assert totals[(True, "per-worker")] == totals[(True, "batched")]
    assert totals[(False, "per-worker")] == totals[(False, "batched")]
    assert totals[(True, "batched")] < totals[(False, "batched")]


def test_error_feedback_residuals_match_the_per_worker_loop():
    """The (K, d) residual memory itself must be engine-independent, bit for bit."""
    residuals = {}
    for side in SIDES:
        cluster = make_cluster(
            side,
            num_workers=4,
            optimizer_factory=SGD_FACTORY,
            compression=TOPK_EF,
        )
        FDAStrategy(threshold=0.05, variant="linear").attach(cluster).run_steps(10)
        residuals[side] = cluster.compression.residual_matrix.copy()
    np.testing.assert_array_equal(residuals["per-worker"], residuals["batched"])
