"""Ablation benchmarks for the design choices called out in DESIGN.md (§6).

These go beyond the paper's figures and quantify:

1. monitor tightness — exact vs sketch vs linear variance estimation;
2. AMS sketch size — estimation error and synchronization count vs (l, m);
3. the LinearFDA heuristic ξ (last global-drift direction) vs a random ξ;
4. communication accounting — the paper's star (worker uploads) vs a ring AllReduce;
5. the dynamic-Θ controller (the paper's future-work extension) vs a static Θ.
"""

from dataclasses import replace

import numpy as np

from benchmarks.conftest import run_workload
from repro.core.monitor import ExactMonitor, LinearMonitor, SketchMonitor
from repro.core.theta import DynamicThetaController
from repro.core.variance import variance_from_drifts
from repro.distributed.topology import RingTopology, StarTopology
from repro.experiments.registry import lenet_mnist_workload
from repro.experiments.run import TrainingRun
from repro.experiments.setup import build_cluster
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.synchronous import SynchronousStrategy

RUN = TrainingRun(accuracy_target=0.9, max_steps=200, eval_every_steps=20)


def _monitor_tightness():
    """Relative looseness of each monitor's H estimate on random drifts."""
    rng = np.random.default_rng(0)
    drifts = [rng.normal(size=800) for _ in range(8)]
    true_variance = variance_from_drifts(drifts)
    looseness = {}
    for name, monitor in (
        ("exact", ExactMonitor()),
        ("sketch(5x250)", SketchMonitor(depth=5, width=250, seed=1)),
        ("sketch(3x32)", SketchMonitor(depth=3, width=32, seed=1)),
        ("linear(random xi)", LinearMonitor(dimension=800, seed=1)),
    ):
        estimate = monitor.estimate(monitor.average(monitor.local_states(np.array(drifts))))
        looseness[name] = estimate / true_variance
    return true_variance, looseness


def test_ablation_monitor_tightness(benchmark):
    true_variance, looseness = benchmark.pedantic(_monitor_tightness, rounds=1, iterations=1)
    print("\n=== Ablation: variance-estimate tightness (H / Var) ===")
    for name, ratio in looseness.items():
        print(f"  {name:<20} H/Var = {ratio:.3f}")
    assert looseness["exact"] == np.float64(1.0) or abs(looseness["exact"] - 1.0) < 1e-9
    # Every monitor over-estimates (ratio >= 1 up to sketch noise), and the
    # large sketch is tighter than the random-direction linear estimate.
    for name, ratio in looseness.items():
        assert ratio > 0.85
    assert looseness["sketch(5x250)"] <= looseness["linear(random xi)"] + 1e-9


def _sketch_size_ablation():
    workload = lenet_mnist_workload(num_workers=4)
    results = {}
    for depth, width in ((3, 16), (5, 64), (5, 250)):
        result = run_workload(
            workload,
            lambda d=depth, w=width: FDAStrategy(
                threshold=8.0, variant="sketch", sketch_depth=d, sketch_width=w
            ),
            RUN,
        )
        results[f"{depth}x{width}"] = result
    return results


def test_ablation_sketch_size(benchmark):
    results = benchmark.pedantic(_sketch_size_ablation, rounds=1, iterations=1)
    print("\n=== Ablation: AMS sketch size ===")
    for geometry, result in results.items():
        print(
            f"  sketch {geometry:<8} comm={result.communication_bytes:>10} B  "
            f"state={result.state_bytes:>10} B  syncs={result.synchronizations}  "
            f"reached={result.reached_target}"
        )
    # Larger sketches transmit more state bytes per step.
    assert results["5x250"].state_bytes > results["3x16"].state_bytes
    # All geometries still deliver the accuracy target on this easy workload.
    assert all(result.reached_target for result in results.values())


def _xi_heuristic_ablation():
    """LinearFDA with the paper's ξ heuristic vs a frozen random ξ."""
    workload = lenet_mnist_workload(num_workers=4)

    heuristic = run_workload(workload, lambda: FDAStrategy(threshold=8.0, variant="linear"), RUN)

    class FrozenLinearMonitor(LinearMonitor):
        """LinearFDA without the heuristic: ξ stays a random unit vector."""

        def on_synchronization(self, new_global, previous_global):
            return None

    dimension = workload.model_factory().num_parameters
    frozen = run_workload(
        workload,
        lambda: FDAStrategy(
            threshold=8.0, variant="linear", monitor=FrozenLinearMonitor(dimension, seed=3)
        ),
        RUN,
    )
    return heuristic, frozen


def test_ablation_linear_xi_heuristic(benchmark):
    heuristic, frozen = benchmark.pedantic(_xi_heuristic_ablation, rounds=1, iterations=1)
    print("\n=== Ablation: LinearFDA xi heuristic vs frozen random xi ===")
    for name, result in (("heuristic xi", heuristic), ("random xi", frozen)):
        print(
            f"  {name:<14} syncs={result.synchronizations:>3}  "
            f"comm={result.communication_bytes:>10} B  reached={result.reached_target}"
        )
    # A frozen random direction cannot trigger *fewer* synchronizations than the
    # paper's heuristic by more than noise (it only loosens the estimate).
    assert heuristic.synchronizations <= frozen.synchronizations + 2


def _accounting_ablation():
    workload = lenet_mnist_workload(num_workers=4)
    return {
        name: run_workload(replace(workload, topology=topology), SynchronousStrategy, RUN)
        for name, topology in (("paper-upload", StarTopology()), ("ring-allreduce", RingTopology()))
    }


def test_ablation_communication_accounting(benchmark):
    results = benchmark.pedantic(_accounting_ablation, rounds=1, iterations=1)
    print("\n=== Ablation: communication accounting, star vs ring (Synchronous) ===")
    for name, result in results.items():
        print(f"  {name:<16} comm={result.communication_bytes:>12} B  steps={result.parallel_steps}")
    # A ring AllReduce moves 2(K-1)/K of the vector per worker vs 1 per worker
    # on the paper's star: for K=4 that is a 1.5x ratio.
    ratio = results["ring-allreduce"].communication_bytes / max(
        results["paper-upload"].communication_bytes, 1
    )
    print(f"  ratio ring/paper = {ratio:.2f}")
    assert 1.2 < ratio < 1.9


def _dynamic_theta_ablation():
    workload = lenet_mnist_workload(num_workers=4)
    static = run_workload(workload, lambda: FDAStrategy(threshold=2.0, variant="linear"), RUN)
    target_bytes = 2000.0  # per-step budget, far below what Theta=2 consumes here
    dynamic = run_workload(
        workload,
        lambda: FDAStrategy(
            threshold=2.0,
            variant="linear",
            theta_controller=DynamicThetaController(
                target_bytes_per_step=target_bytes, window=10, adjustment=1.5
            ),
        ),
        RUN,
    )
    return static, dynamic


def test_ablation_dynamic_theta(benchmark):
    static, dynamic = benchmark.pedantic(_dynamic_theta_ablation, rounds=1, iterations=1)
    print("\n=== Ablation: dynamic Theta controller (future work) vs static Theta ===")
    for name, result in (("static", static), ("dynamic", dynamic)):
        per_step = result.communication_bytes / max(result.parallel_steps, 1)
        print(
            f"  {name:<8} comm={result.communication_bytes:>10} B  "
            f"bytes/step={per_step:>8.1f}  syncs={result.synchronizations}  "
            f"reached={result.reached_target}"
        )
    # The controller trades accuracy progress for bandwidth: it must not use
    # more communication per step than the static configuration it adapts.
    static_rate = static.communication_bytes / max(static.parallel_steps, 1)
    dynamic_rate = dynamic.communication_bytes / max(dynamic.parallel_steps, 1)
    assert dynamic_rate <= static_rate * 1.5
