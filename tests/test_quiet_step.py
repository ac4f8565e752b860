"""A quiet step sends nothing, and decides exactly what the exchange decides.

The lockstep FDA trainer skips the state AllReduce, the payload and ``H``
when every stepped row's ‖u‖² sits inside Θ·(1 − 4A·2⁻⁵³) (Kamp et al.'s
local condition with a rounding guard).  The property runs the gated trainer
beside the ungated oracle (``helpers.ungated``) on identical clusters and
demands the same sync steps, the same parameter bytes after every step and,
on every step the gated trainer exchanged, the same estimate bit for bit.

To reach the boundary the parameter rows a step reads are rewritten on
chosen steps: every stepped row's drift becomes ±v for one real drift v (so
the payloads cancel exactly and ``H`` equals the averaged ‖u‖² column), and
Θ is moved onto ‖v‖² or one ulp to either side of it.  For six or more equal rows the
column's floating-point mean exceeds ‖v‖² for about one Θ in five, which is
exactly the case an unguarded ``max ≤ Θ`` gets wrong.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers.parity import make_cluster
from helpers.ungated import UngatedFDATrainer
from repro.core.fda import FDATrainer
from repro.core.monitor import ExactMonitor, LinearMonitor, SketchMonitor
from repro.faults.plan import FaultPlan

MONITORS = {
    "sketch": lambda dimension: SketchMonitor(depth=3, width=16, seed=3),
    "linear": lambda dimension: LinearMonitor(dimension, seed=1),
    "exact": lambda dimension: ExactMonitor(),
}
STEPS = 12


class Placement:
    """Rewrites the stepped rows a step decides on and moves Θ onto them.

    ``plan[t % len(plan)]`` is step ``t + 1``'s placement: ``None`` leaves the
    drifts real and Θ at its base (``theta_scale`` × the first step's largest
    ‖u‖²); an integer ``n`` makes every stepped row's drift ±v and puts Θ
    ``n`` ulps from ‖v‖² as the monitor reduces it.  The rewrite follows the
    step's local updates and writes what both trainers read, the parameter
    rows: v is the first stepped row's real drift, kept on the coordinates
    where the mirrored row ``w_t0 − v`` subtracts back to exactly −v and zero
    (the row set to ``w_t0``) on the others.
    """

    def __init__(self, trainer, plan, theta_scale) -> None:
        self.trainer, self.plan, self.theta_scale = trainer, plan, theta_scale
        self.base = None
        self.step_all = trainer.cluster.step_all
        trainer.cluster.step_all = self

    def __call__(self, *args, **kwargs):
        loss = self.step_all(*args, **kwargs)
        trainer, cluster = self.trainer, self.trainer.cluster
        monitor, stepped = trainer.monitor, cluster.participants.mask
        rows = np.arange(cluster.num_workers) if stepped is None else np.flatnonzero(stepped)
        parameters, reference = cluster.parameter_matrix, cluster.shared_parameters
        if self.base is None and len(rows):
            norms = monitor.squared_norms(parameters, reference, rows)
            self.base = self.theta_scale * float(np.max(norms))
        offset = self.plan[trainer.step_count % len(self.plan)]
        trainer.threshold = self.base or 0.0
        if offset is None or not len(rows):
            return loss
        mirrored = reference - (parameters[rows[0]] - reference)
        exact = mirrored - reference == reference - parameters[rows[0]]
        parameters[rows[0::2]] = np.where(exact, parameters[rows[0]], reference)
        parameters[rows[1::2]] = np.where(exact, mirrored, reference)
        v = parameters[rows[0]] - reference
        assert np.array_equal(parameters[rows[-1]] - reference, v if len(rows) % 2 else -v)
        theta = monitor.squared_norms(v[None])[0]
        for _ in range(abs(offset)):
            theta = np.nextafter(theta, np.sign(offset) * np.inf)
        trainer.threshold = float(theta)
        return loss


def run(trainer_class, variant, dtype, num_workers, dropout, churn, seed, plan, theta_scale):
    cluster = make_cluster(
        "batched",
        num_workers=num_workers,
        dtype=dtype,
        dropout_rate=0.3 if dropout else 0.0,
        timeline_seed=seed,
        faults=FaultPlan(crash_rate=0.2, recovery_rounds=2, seed=seed) if churn else None,
    )
    trainer = trainer_class(cluster, MONITORS[variant](cluster.model_dimension), 1.0)
    Placement(trainer, plan, theta_scale)
    results, digests = [], []
    for _ in range(STEPS):
        results.append(trainer.step())
        digests.append(hashlib.sha256(cluster.parameter_matrix.tobytes()).hexdigest())
    return trainer, results, digests


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(sorted(MONITORS)),
    dtype=st.sampled_from(["float64", "float32"]),
    num_workers=st.sampled_from([6, 7, 12]),
    dropout=st.booleans(),
    churn=st.booleans(),
    seed=st.integers(min_value=0, max_value=1_000),
    plan=st.lists(st.sampled_from([None, -1, 0, 1]), min_size=1, max_size=5),
    theta_scale=st.sampled_from([0.5, 2.0, 8.0, 1e9]),
)
@example(variant="exact", dtype="float64", num_workers=6, dropout=False, churn=False,
         seed=0, plan=[0], theta_scale=8.0)
@example(variant="linear", dtype="float64", num_workers=12, dropout=False, churn=False,
         seed=0, plan=[None, 0], theta_scale=8.0)
@example(variant="sketch", dtype="float32", num_workers=7, dropout=True, churn=True,
         seed=3, plan=[None], theta_scale=2.0)
def test_a_gated_run_is_the_ungated_run_bit_for_bit(
    variant, dtype, num_workers, dropout, churn, seed, plan, theta_scale
):
    args = (variant, dtype, num_workers, dropout, churn, seed, plan, theta_scale)
    gated, results, digests = run(FDATrainer, *args)
    oracle, expected, expected_digests = run(UngatedFDATrainer, *args)

    assert [r.step for r in results if r.synchronized] == [
        r.step for r in expected if r.synchronized
    ]
    assert digests == expected_digests
    for got, want, norms, mean_norm in zip(results, expected, oracle.norms, oracle.mean_norms):
        assert got.threshold == want.threshold
        if got.exchanged:
            assert got.variance_estimate == want.variance_estimate, got.step
            continue
        if want.exchanged:
            # Quiet: every counted worker could tell from its own ‖u‖² alone
            # (Kamp's local condition, so silence costs nothing), the
            # oracle's exchange could not sync, and the reported estimate is
            # its averaged ‖u‖² column — the bound on its H.
            guard = 1.0 - 4 * len(norms) * 2.0**-53
            assert all(norm <= got.threshold * guard for norm in norms)
            assert not churn and not want.synchronized
            assert got.variance_estimate == mean_norm >= want.variance_estimate
            assert got.communication_bytes == 0
    if churn:
        assert [r.exchanged for r in results] == [r.exchanged for r in expected]

    # A quiet step charges nothing; an exchanged one the oracle's one AllReduce.
    exchanged = sum(r.exchanged for r in results)
    tracker, reference = gated.cluster.tracker, oracle.cluster.tracker
    per_exchange = reference.bytes_for("fda-state") // max(1, sum(r.exchanged for r in expected))
    assert tracker.bytes_for("fda-state") == exchanged * per_exchange
    assert tracker.operations_for("fda-state") == exchanged
    assert tracker.bytes_for("model-sync") == reference.bytes_for("model-sync")
    assert gated.cluster.virtual_time <= oracle.cluster.virtual_time


def run_fixed(trainer_class, variant, dtype, theta, steps=24):
    """``steps`` plain FDA steps at one Θ, with each step's parameter digest."""
    cluster = make_cluster("batched", num_workers=6, dtype=dtype)
    trainer = trainer_class(cluster, MONITORS[variant](cluster.model_dimension), theta)
    results, digests = [], []
    for _ in range(steps):
        results.append(trainer.step())
        digests.append(hashlib.sha256(cluster.parameter_matrix.tobytes()).hexdigest())
    return cluster, results, digests


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("variant", sorted(MONITORS))
def test_theta_is_a_constant_of_the_run(variant, dtype):
    # Θ is set once, so every step of either trainer decides against it, and
    # the gate changes nothing but the exchanges a quiet step skips.
    gated_cluster, gated, digests = run_fixed(FDATrainer, variant, dtype, 0.05)
    oracle_cluster, ungated, expected_digests = run_fixed(UngatedFDATrainer, variant, dtype, 0.05)

    assert {r.threshold for r in gated} == {r.threshold for r in ungated} == {0.05}
    assert digests == expected_digests
    assert [r.synchronized for r in gated] == [r.synchronized for r in ungated]
    for got, want in zip(gated, ungated):
        if got.exchanged:
            assert got.variance_estimate == want.variance_estimate, got.step
    quiet = [r for r in gated if not r.exchanged]
    assert quiet and all(r.communication_bytes == 0 for r in quiet)
    tracker, reference = gated_cluster.tracker, oracle_cluster.tracker
    assert tracker.bytes_for("model-sync") == reference.bytes_for("model-sync")
    per_exchange = reference.bytes_for("fda-state") // len(ungated)
    assert tracker.bytes_for("fda-state") == (len(gated) - len(quiet)) * per_exchange


def test_a_fixed_theta_run_syncs_where_the_ungated_run_does():
    _, gated, _ = run_fixed(FDATrainer, "linear", "float64", 0.05)
    _, ungated, _ = run_fixed(UngatedFDATrainer, "linear", "float64", 0.05)
    assert [r.step for r in gated if r.synchronized] == [3, 7, 11, 15, 20]
    assert [r.step for r in ungated if r.synchronized] == [3, 7, 11, 15, 20]
    # 16 of the 24 steps are quiet: each saves one 96-byte state AllReduce.
    assert sum(not r.exchanged for r in gated) == 16
    assert sum(r.communication_bytes for r in gated) == 45_168
    assert sum(r.communication_bytes for r in ungated) == 46_704
