"""Tests for the experiment harness: setup, runs, results, sweeps, KDE, reporting."""

from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments.kde import log_kde_summary
from repro.experiments.registry import table2
from repro.experiments.reporting import (
    format_comparison,
    format_results_table,
    format_run_history,
)
from repro.experiments.results import ResultsTable, compare_strategies
from repro.experiments.run import RunResult, TrainingRun
from repro.experiments.setup import WorkloadConfig, build_cluster, make_optimizer
from repro.experiments.registry import fda
from repro.experiments.sweep import lower_grid, run_grid
from repro.optim.adam import Adam, AdamW
from repro.optim.sgd import SGD
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.synchronous import SynchronousStrategy
from repro.utils.runlog import RunLogger


def quick_run(**kwargs):
    defaults = dict(accuracy_target=0.85, max_steps=60, eval_every_steps=15)
    defaults.update(kwargs)
    return TrainingRun(**defaults)


def fake_result(strategy="A", comm=1000, steps=100, reached=True, accuracy=0.9):
    return RunResult(
        strategy=strategy,
        workload="w",
        reached_target=reached,
        accuracy_target=0.9,
        final_accuracy=accuracy,
        best_accuracy=accuracy,
        communication_bytes=comm,
        parallel_steps=steps,
        synchronizations=steps // 10,
        evaluations=3,
    )


class TestMakeOptimizer:
    def test_known_optimizers(self):
        assert isinstance(make_optimizer("adam")(), Adam)
        assert isinstance(make_optimizer("adamw")(), AdamW)
        assert isinstance(make_optimizer("sgd")(), SGD)
        nesterov = make_optimizer("sgd-nm")()
        assert isinstance(nesterov, SGD) and nesterov.nesterov

    def test_kwargs_override_defaults(self):
        optimizer = make_optimizer("adam", learning_rate=0.5)()
        assert optimizer.learning_rate == 0.5

    def test_unknown_optimizer(self):
        with pytest.raises(ConfigurationError):
            make_optimizer("lion")


class TestBuildCluster:
    def test_builds_requested_workers(self, blobs_workload):
        cluster, test_dataset = build_cluster(blobs_workload)
        assert cluster.num_workers == blobs_workload.num_workers
        assert len(test_dataset) == len(blobs_workload.test_dataset)
        total = sum(len(worker.dataset) for worker in cluster.workers)
        assert total == len(blobs_workload.train_dataset)

    def test_the_optimizer_factory_is_called_once(self, blobs_workload):
        # Every worker runs the one Optimize(w, B): the cluster's optimizer,
        # whose stack holds each worker's state as a row.
        built = []

        def factory():
            built.append(Adam(0.01))
            return built[-1]

        cluster, _ = build_cluster(replace(blobs_workload, optimizer_factory=factory))
        assert len(built) == 1 and cluster.optimizer is built[0]
        stack = cluster.engine.stacked_optimizer
        assert stack.optimizer is built[0]
        assert stack.state["m"].shape == (blobs_workload.num_workers, cluster.model_dimension)
        assert stack.step_counts.shape == (blobs_workload.num_workers,)
        assert not hasattr(cluster.workers[0], "optimizer")

    def test_invalid_configuration(self, blobs_workload):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(
                name="bad",
                model_factory=blobs_workload.model_factory,
                train_dataset=blobs_workload.train_dataset,
                test_dataset=blobs_workload.test_dataset,
                optimizer_factory=blobs_workload.optimizer_factory,
                num_workers=0,
            )


class TestTrainingRun:
    def test_reaches_target_on_easy_problem(self, blobs_workload):
        cluster, test_dataset = build_cluster(blobs_workload)
        result = quick_run().execute(
            SynchronousStrategy(), cluster, test_dataset, workload_name="blobs"
        )
        assert result.reached_target
        assert result.final_accuracy >= 0.85
        assert result.communication_bytes > 0
        assert len(result.history) == result.evaluations

    def test_respects_step_budget(self, blobs_workload):
        cluster, test_dataset = build_cluster(blobs_workload)
        result = TrainingRun(accuracy_target=0.999999, max_steps=30, eval_every_steps=10).execute(
            SynchronousStrategy(), cluster, test_dataset
        )
        assert not result.reached_target
        assert result.parallel_steps <= 30 + 10

    def test_tracks_train_accuracy_when_requested(self, blobs_workload):
        cluster, test_dataset = build_cluster(blobs_workload)
        result = quick_run(track_train_accuracy=True).execute(
            SynchronousStrategy(), cluster, test_dataset,
            train_dataset=blobs_workload.train_dataset,
        )
        assert result.final_train_accuracy is not None
        assert result.generalization_gap is not None

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            TrainingRun(accuracy_target=0.0)
        with pytest.raises(ConfigurationError):
            TrainingRun(max_steps=0)
        with pytest.raises(ConfigurationError):
            TrainingRun(eval_every_steps=0)


class TestResultsAggregation:
    def test_summaries_and_reach_rate(self):
        table = ResultsTable(
            [
                fake_result("FDA", comm=100, steps=50),
                fake_result("FDA", comm=300, steps=70),
                fake_result("Sync", comm=10_000, steps=40),
                fake_result("Sync", comm=12_000, steps=45, reached=False),
            ]
        )
        fda = table.summarize("FDA")
        sync = table.summarize("Sync")
        assert fda.median_communication_bytes == 200
        assert sync.reach_rate == 0.5
        assert {s.strategy for s in table.summaries()} == {"FDA", "Sync"}

    def test_compare_strategies_ratios(self):
        results = [
            fake_result("FDA", comm=100, steps=50),
            fake_result("Sync", comm=10_000, steps=100),
        ]
        ratios = compare_strategies(results, "FDA", "Sync")
        assert ratios["communication_ratio"] == pytest.approx(100.0)
        assert ratios["computation_ratio"] == pytest.approx(2.0)

    def test_unknown_strategy_raises(self):
        with pytest.raises(ExperimentError):
            ResultsTable([fake_result("A")]).summarize("B")


class TestKdeAndReporting:
    def test_log_kde_summary_centroids(self):
        results = [
            fake_result("FDA", comm=1_000, steps=100),
            fake_result("Sync", comm=1_000_000, steps=100),
        ]
        summaries = {s.strategy: s for s in log_kde_summary(results)}
        assert summaries["FDA"].centroid_log_comm < summaries["Sync"].centroid_log_comm

    def test_format_results_table_contains_strategies(self):
        text = format_results_table([fake_result("FDA"), fake_result("Sync", comm=99999)])
        assert "FDA" in text and "Sync" in text

    def test_format_comparison_mentions_ratio(self):
        text = format_comparison(
            [fake_result("FDA", comm=100), fake_result("Sync", comm=10_000)], "FDA", "Sync"
        )
        assert "100.0x" in text

    def test_format_comparison_of_a_silent_candidate_prints_bytes_not_a_ratio(self):
        text = format_comparison(
            [fake_result("FDA", comm=0), fake_result("Sync", comm=10_000)], "FDA", "Sync"
        )
        assert text.startswith("FDA vs Sync: 0.00 B vs 10.00 KB of communication, ")
        assert "x less communication" not in text

    def test_format_run_history(self):
        result = fake_result("FDA")
        result.history = RunLogger()
        result.history.log(steps=10, communication_bytes=100, test_accuracy=0.5)
        text = format_run_history(result)
        assert "steps=" in text and "test_acc=0.500" in text


class TestSweeps:
    def test_theta_axis_returns_point_per_value(self, blobs_workload):
        points = run_grid(lower_grid(blobs_workload, quick_run(max_steps=40), fda, theta=[0.5, 5.0]))
        assert [p.tags["theta"] for p in points] == [0.5, 5.0]
        assert all(list(p.tags) == ["theta"] for p in points)

    def test_num_workers_axis(self, blobs_workload):
        points = run_grid(
            lower_grid(
                blobs_workload, quick_run(max_steps=40), SynchronousStrategy, num_workers=[2, 3]
            )
        )
        assert [p.tags["num_workers"] for p in points] == [2, 3]

    def test_strategy_mapping_runs_each_on_the_same_workload(self, blobs_workload):
        points = run_grid(
            lower_grid(
                blobs_workload,
                quick_run(max_steps=40),
                {"bsp": SynchronousStrategy, "fda": lambda: FDAStrategy(threshold=2.0)},
            )
        )
        assert {p.result.strategy for p in points} == {"Synchronous", "LinearFDA"}
        assert [p.tags for p in points] == [{"strategy": "bsp"}, {"strategy": "fda"}]

    def test_empty_grids_rejected(self, blobs_workload):
        with pytest.raises(ConfigurationError):
            lower_grid(blobs_workload, quick_run(), fda, theta=[])
        with pytest.raises(ConfigurationError):
            lower_grid(blobs_workload, quick_run(), SynchronousStrategy, num_workers=[])


class TestRegistry:
    def test_table2_lists_all_learning_tasks(self):
        rows = table2()
        assert len(rows) == 5
        models = [row["model"] for row in rows]
        assert any("LeNet" in m for m in models)
        assert any("ConvNeXt" in m for m in models)
        # Model dimensions follow the paper's ordering within the CNN families.
        by_model = {row["model"]: row["d"] for row in rows}
        assert by_model["VGG16* (mini)"] > by_model["LeNet-5 (mini)"]
        assert by_model["DenseNet201 (mini)"] > by_model["DenseNet121 (mini)"]
