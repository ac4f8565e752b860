"""Tests for the public API surface: exports exist, are documented, and are stable."""

import importlib

import pytest

import repro


PUBLIC_SUBPACKAGES = [
    "repro.nn",
    "repro.optim",
    "repro.sketch",
    "repro.data",
    "repro.distributed",
    "repro.compression",
    "repro.core",
    "repro.strategies",
    "repro.experiments",
    "repro.serving",
    "repro.utils",
    "repro.cli",
]


class TestTopLevelExports:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            assert hasattr(repro, name), f"repro.__all__ lists {name} but it is not importable"

    def test_all_public_objects_are_documented(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            obj = getattr(repro, name)
            assert getattr(obj, "__doc__", None), f"repro.{name} has no docstring"

    def test_key_entry_points_present(self):
        for name in (
            "FDAStrategy",
            "SynchronousStrategy",
            "FedOptStrategy",
            "TrainingRun",
            "build_cluster",
            "AmsSketch",
            "SimulatedCluster",
            "theta_guideline",
        ):
            assert name in repro.__all__


class TestSubpackages:
    @pytest.mark.parametrize("module_name", PUBLIC_SUBPACKAGES)
    def test_subpackage_imports_and_is_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    @pytest.mark.parametrize(
        "module_name",
        [name for name in PUBLIC_SUBPACKAGES if name not in ("repro.cli",)],
    )
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        assert exported, f"{module_name} should declare __all__"
        for name in exported:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing name {name}"

    def test_one_event_driven_trainer_is_exported(self):
        import repro.core as core
        import repro.serving as serving

        # Asynchronous FDA is ServedFDATrainer with arrival="closed".
        assert not {"AsynchronousFDATrainer", "AsyncEvent", "ComputeProfile"} & set(core.__all__)
        assert {"ServedFDATrainer", "ServedUpdate", "ServingConfig"} <= set(serving.__all__)

    def test_strategies_cover_all_paper_algorithms(self):
        import repro.strategies as strategies

        for name in (
            "SynchronousStrategy",
            "LocalSGDStrategy",
            "FedOptStrategy",
            "FDAStrategy",
            "FedProxStrategy",
            "ScaffoldStrategy",
        ):
            assert name in strategies.__all__
