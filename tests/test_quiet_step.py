"""A quiet step sends nothing, and decides exactly what the exchange decides.

The lockstep FDA trainer skips the state AllReduce, the payload and ``H``
when every stepped row's ‖u‖² sits inside Θ·(1 − 4A·2⁻⁵³) (Kamp et al.'s
local condition with a rounding guard).  The property runs the gated trainer
beside the ungated oracle (``helpers.ungated``) on identical clusters and
demands the same sync steps, the same parameter bytes after every step and,
on every step the gated trainer exchanged, the same estimate bit for bit.

To reach the boundary the drift matrix a step reads is rewritten on chosen
steps: every stepped row becomes ±v for one real drift v (so the payloads
cancel exactly and ``H`` equals the averaged ‖u‖² column), and Θ is moved
onto ‖v‖² or one ulp to either side of it.  For six or more equal rows the
column's floating-point mean exceeds ‖v‖² for about one Θ in five, which is
exactly the case an unguarded ``max ≤ Θ`` gets wrong.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers.parity import make_cluster
from helpers.ungated import UngatedFDATrainer
from repro.core.fda import FDATrainer
from repro.core.monitor import ExactMonitor, LinearMonitor, SketchMonitor
from repro.core.theta import DynamicThetaController
from repro.faults.plan import FaultPlan

MONITORS = {
    "sketch": lambda dimension: SketchMonitor(depth=3, width=16, seed=3),
    "linear": lambda dimension: LinearMonitor(dimension, seed=1),
    "exact": lambda dimension: ExactMonitor(),
}
STEPS = 12


class Placement:
    """Rewrites the drift rows a step decides on and moves Θ onto them.

    ``plan[t % len(plan)]`` is step ``t + 1``'s placement: ``None`` leaves the
    drifts real and Θ at its base (``theta_scale`` × the first step's largest
    ‖u‖²); an integer ``n`` makes every stepped row ±v and puts Θ ``n`` ulps
    from ‖v‖² as the monitor reduces it.
    """

    def __init__(self, trainer, plan, theta_scale) -> None:
        self.trainer, self.plan, self.theta_scale = trainer, plan, theta_scale
        self.base = None
        self.drift_matrix = trainer.cluster.drift_matrix
        trainer.cluster.drift_matrix = self

    def __call__(self, reference, out=None):
        drifts = self.drift_matrix(reference, out=out)
        trainer = self.trainer
        monitor, stepped = trainer.monitor, trainer.cluster.participants.mask
        rows = np.arange(len(drifts)) if stepped is None else np.flatnonzero(stepped)
        if self.base is None and len(rows):
            self.base = self.theta_scale * float(np.max(monitor.squared_norms(drifts[rows])))
        offset = self.plan[trainer.step_count % len(self.plan)]
        trainer.threshold = self.base or 0.0
        if offset is None or not len(rows):
            return drifts
        v = drifts[rows[0]].copy()
        drifts[rows[0::2]] = v
        drifts[rows[1::2]] = -v
        theta = monitor.squared_norms(v[None])[0]
        for _ in range(abs(offset)):
            theta = np.nextafter(theta, np.sign(offset) * np.inf)
        trainer.threshold = float(theta)
        return drifts


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


class QuietWitness:
    """On every quiet step, builds the exchange the gate skipped and keeps its ``H``.

    Wraps the trainer's monitor: ``squared_norms`` keeps the drift rows it
    is handed, and a ``quiet_bound`` that calls the step quiet appends
    ``(Θ, largest ‖u‖², H, column-0 mean, bound)`` of those rows' full states.
    """

    def __init__(self, monitor) -> None:
        self.witnessed = []
        squared_norms, quiet_bound = monitor.squared_norms, monitor.quiet_bound

        def keep_rows(drifts):
            self.drifts = drifts.copy()
            return squared_norms(drifts)

        def witness(norms, threshold):
            bound = quiet_bound(norms, threshold)
            if bound is not None:
                average = monitor.average(monitor.local_states(self.drifts))
                self.witnessed.append(
                    (threshold, max(norms), monitor.estimate(average), float(average[0]), bound)
                )
            return bound

        monitor.squared_norms, monitor.quiet_bound = keep_rows, witness


@settings(max_examples=15, deadline=None)
@given(
    variant=st.sampled_from(sorted(MONITORS)),
    dtype=st.sampled_from(["float64", "float32"]),
    dropout=st.booleans(),
    seed=st.integers(min_value=0, max_value=1_000),
    theta=st.sampled_from([0.005, 0.05, 0.5]),
    target=st.sampled_from([1.0, 300.0, 1e6]),
)
def test_under_a_theta_controller_a_quiet_step_still_could_not_have_synced(
    variant, dtype, dropout, seed, theta, target
):
    # A controller's Θ follows the bytes the gate lets through, so its run is
    # not the ungated run (see the test below); what holds step by step is
    # that a quiet step's skipped exchange could not have synced at the Θ
    # in force, and that it cost nothing.
    cluster = make_cluster(
        "batched", num_workers=6, dtype=dtype,
        dropout_rate=0.3 if dropout else 0.0, timeline_seed=seed,
    )
    controller = DynamicThetaController(target_bytes_per_step=target, window=2, adjustment=4.0)
    trainer = FDATrainer(cluster, MONITORS[variant](cluster.model_dimension), theta, controller)
    witness = QuietWitness(trainer.monitor)
    results = trainer.run_steps(STEPS)

    quiet = [r for r in results if not r.exchanged and r.active_workers]
    assert len(quiet) == len(witness.witnessed)
    for result, (threshold, largest, estimate, mean_norm, bound) in zip(quiet, witness.witnessed):
        assert largest <= threshold and estimate <= threshold and not result.synchronized
        assert result.variance_estimate == bound == mean_norm >= estimate
        assert result.communication_bytes == 0
    exchanged = sum(r.exchanged for r in results)
    assert cluster.tracker.operations_for("fda-state") == exchanged


def test_a_theta_controller_steers_by_the_bytes_the_gate_sends():
    def run(trainer_class):
        cluster = make_cluster("batched", num_workers=6)
        controller = DynamicThetaController(target_bytes_per_step=50, window=4, adjustment=2.0)
        trainer = trainer_class(cluster, LinearMonitor(cluster.model_dimension, seed=1), 0.05,
                                controller)
        return trainer.run_steps(24)

    gated, ungated = run(FDATrainer), run(UngatedFDATrainer)
    # The controller read each step's real bytes: replaying them through a
    # fresh controller gives the gated run's Θ schedule.
    replay, theta = DynamicThetaController(50, window=4, adjustment=2.0), 0.05
    for result in gated:
        theta = replay.update(theta, result.communication_bytes, result.synchronized)
        assert result.threshold == theta
    # Quiet windows read as under budget, so Θ shrinks where the ungated run
    # grew it, and the two runs sync on different steps: the gated one more
    # often, so with a controller it sends more in all.
    assert [r.threshold for r in gated][:7] == [r.threshold for r in ungated][:7]
    assert gated[7].threshold < ungated[7].threshold
    assert [r.step for r in gated if r.synchronized] == [3, 9, 15, 21]
    assert [r.step for r in ungated if r.synchronized] == [3, 11]
    assert sum(r.communication_bytes for r in gated) == 36_096
    assert sum(r.communication_bytes for r in ungated) == 20_064
