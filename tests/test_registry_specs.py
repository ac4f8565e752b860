"""Validation of every experiment-registry entry (the figure/table configurations)."""

import pytest

from repro.experiments import registry
from repro.experiments.registry import ExperimentSpec
from repro.experiments.setup import build_cluster


ALL_SPEC_NAMES = sorted(registry.ALL_FIGURES)


@pytest.fixture(scope="module")
def specs():
    """Build every figure spec once (quick mode) for the whole module."""
    return {name: registry.ALL_FIGURES[name](quick=True) for name in ALL_SPEC_NAMES}


class TestFigureSpecs:
    def test_every_figure_has_a_registry_entry(self):
        # Figures 3-11 and 13 are strategy comparisons; Figure 12 has its own builder.
        expected = {f"figure{i}" for i in (3, 4, 5, 6, 7, 8, 9, 10, 11, 13)}
        assert set(ALL_SPEC_NAMES) == expected
        assert callable(registry.figure12)

    @pytest.mark.parametrize("name", ALL_SPEC_NAMES)
    def test_spec_structure(self, specs, name):
        spec = specs[name]
        assert isinstance(spec, ExperimentSpec)
        assert spec.experiment_id == name
        assert spec.title
        assert spec.workloads, f"{name} must define at least one workload"
        assert spec.strategy_factories, f"{name} must define at least one strategy"
        assert 0.0 < spec.run.accuracy_target <= 1.0
        assert spec.run.max_steps >= spec.run.eval_every_steps

    @pytest.mark.parametrize("name", ALL_SPEC_NAMES)
    def test_spec_includes_fda_and_synchronous(self, specs, name):
        spec = specs[name]
        names = set(spec.strategy_factories)
        assert "LinearFDA" in names and "SketchFDA" in names and "Synchronous" in names

    @pytest.mark.parametrize("name", ALL_SPEC_NAMES)
    def test_workloads_are_buildable(self, specs, name):
        spec = specs[name]
        label, workload = next(iter(spec.workloads.items()))
        cluster, test_dataset = build_cluster(workload)
        assert cluster.num_workers == workload.num_workers
        assert len(test_dataset) > 0
        assert cluster.model_dimension > 0

    @pytest.mark.parametrize("name", ALL_SPEC_NAMES)
    def test_strategies_are_constructible(self, specs, name):
        spec = specs[name]
        for factory in spec.strategy_factories.values():
            strategy = factory()
            assert strategy.name

    def test_theta_grids_where_required(self, specs):
        for name in ("figure8", "figure9", "figure10", "figure11", "figure13"):
            assert len(specs[name].fda_thetas) >= 2, f"{name} needs a Theta grid"

    def test_worker_grids_where_required(self, specs):
        for name in ("figure8", "figure9", "figure10", "figure11"):
            assert len(specs[name].worker_counts) >= 2, f"{name} needs a K grid"

    def test_heterogeneity_settings_for_figures_3_and_4(self, specs):
        assert set(specs["figure3"].workloads) == {"iid", "noniid-label", "noniid-60"}
        assert set(specs["figure4"].workloads) == {"iid", "noniid-label0", "noniid-label8"}

    def test_figure7_tracks_training_accuracy(self, specs):
        assert specs["figure7"].run.track_train_accuracy

    def test_figure12_builder(self):
        payload = registry.figure12(quick=True)
        assert len(payload["workloads"]) == 3
        dimensions = [w.model_factory().num_parameters for _, w in payload["workloads"]]
        assert dimensions == sorted(dimensions)
        assert set(payload["paper_slopes"]) == {"fl", "balanced", "hpc"}

    def test_full_mode_grids_are_larger(self):
        quick = registry.figure8(quick=True)
        full = registry.figure8(quick=False)
        assert len(full.fda_thetas) > len(quick.fda_thetas)
        assert full.run.max_steps > quick.run.max_steps


class TestCompressionSweepSpec:
    def test_compression_sweep_structure(self):
        spec = registry.compression_sweep(quick=True)
        assert spec.experiment_id == "compression"
        assert {"LinearFDA", "Synchronous"} <= set(spec.strategy_factories)
        assert "none" in spec.compressions
        assert len(spec.compressions) >= 3

    def test_full_grid_adds_kernels(self):
        quick = registry.compression_sweep(quick=True)
        full = registry.compression_sweep(quick=False)
        assert len(full.compressions) > len(quick.compressions)

    def test_compression_cells_are_buildable(self):
        from dataclasses import replace

        from repro.experiments.run import TrainingRun
        from repro.experiments.sweep import lower_spec, run_grid, select

        spec = replace(
            registry.compression_sweep(quick=True),
            run=TrainingRun(accuracy_target=0.99, max_steps=8, eval_every_steps=8),
        )
        cells = select(lower_spec(spec, "compression"), strategy="Synchronous")
        assert len(cells) == len(spec.compressions)
        points = run_grid(cells)
        labels = [point.result.compression for point in points]
        assert labels[0] == "none"
        assert all(point.result.parallel_steps >= 8 for point in points)
