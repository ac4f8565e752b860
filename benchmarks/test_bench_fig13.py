"""Figure 13 — Transfer learning: fine-tuning on CIFAR-100 features.

The paper fine-tunes ImageNet-pretrained ConvNeXtLarge on CIFAR-100 with AdamW
and reports communication versus Θ for K = 3 and K = 5 workers; the notable
finding is that SketchFDA needs about 1.5× less communication than LinearFDA
in this harder scenario (its variance estimate is tighter, so it synchronizes
less often).  This benchmark runs the strategy line-up on the frozen-backbone
workload for both worker counts and sweeps Θ for both FDA variants.
"""

from benchmarks.conftest import (
    assert_fda_communication_advantage,
    print_grouped_results,
    print_sweep,
    run_spec,
    strategies_by_name,
)
from repro.experiments.executor import SweepExecutor
from repro.experiments.registry import figure13
from repro.experiments.sweep import lower_spec, run_grid, select


def _run(quick):
    spec = figure13(quick=quick)
    grouped = run_spec(spec)
    executor = SweepExecutor()
    points = run_grid(select(lower_spec(spec, "theta"), workload="K=3"), executor)
    assert executor.stats.cells == 2 * len(spec.fda_thetas)
    theta_sweeps = {
        name: select(points, strategy=name) for name in ("LinearFDA", "SketchFDA")
    }
    return grouped, theta_sweeps


def test_figure13_transfer_learning(benchmark, quick):
    grouped, theta_sweeps = benchmark.pedantic(_run, args=(quick,), rounds=1, iterations=1)
    print_grouped_results("Figure 13: ConvNeXt-head fine-tuning on CIFAR-100 features", grouped)
    for variant, points in theta_sweeps.items():
        print_sweep(f"Theta sweep ({variant}, K=3)", points)

    for results in grouped.values():
        assert_fda_communication_advantage(results, factor_vs_sync=3.0)

    # Synchronization counts: SketchFDA's tighter estimator should not trigger
    # more synchronizations than LinearFDA (the mechanism behind the paper's
    # 1.5x communication gap in this scenario).
    for label, results in grouped.items():
        by_name = strategies_by_name(results)
        assert by_name["SketchFDA"].synchronizations <= by_name["LinearFDA"].synchronizations + 2, (
            f"{label}: SketchFDA synchronized {by_name['SketchFDA'].synchronizations} times vs "
            f"LinearFDA {by_name['LinearFDA'].synchronizations}"
        )

    # Communication decreases (weakly) with Theta for both variants.
    for variant, points in theta_sweeps.items():
        ordered = sorted(points, key=lambda p: p.tags["theta"])
        model_bytes = [p.result.model_bytes for p in ordered]
        assert model_bytes[-1] <= model_bytes[0] + 1
