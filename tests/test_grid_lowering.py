"""The one grid lowering: axes → cells → points.

Two kinds of test:

* **Frozen literals.**  What the five retired sweep helpers (``sweep_theta``,
  ``sweep_workers``, ``sweep_fabric``, ``sweep_compression``, the run table)
  produced on the blobs workload was recorded at the last commit that had
  them (``dc748c1``); :func:`repro.experiments.sweep.lower_grid` must
  reproduce every digit.  The CLI's frozen tables live in ``test_cli.py``.
* **Properties of the lowering itself**: row-major order, workloads equal to
  ``dataclasses.replace`` of the base, unique labels, JSON-plain tags,
  pairwise distinct run keys, named errors for unknown or empty axes.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import fields, replace
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.strategies
from repro.compression import CompressionConfig
from repro.core.fda import FDATrainer
from repro.core.monitor import SketchMonitor, make_monitor
from repro.data.synthetic import gaussian_blobs
from repro.exceptions import ConfigurationError
from repro.experiments import registry
from repro.experiments.cache import canonical_value
from repro.experiments.executor import SweepExecutor
from repro.experiments.registry import fda
from repro.experiments.run import TrainingRun
from repro.experiments.setup import WorkloadConfig, make_optimizer
from repro.experiments.sweep import SweepPoint, lower_grid, lower_spec, run_grid, select
from repro.nn.architectures import mlp
from repro.optim.server import FedAdam, FedAvgM
from repro.strategies import (
    FDAStrategy,
    FedOptStrategy,
    FedProxStrategy,
    LocalSGDStrategy,
    ScaffoldStrategy,
    Strategy,
    SynchronousStrategy,
)

RUN = TrainingRun(accuracy_target=0.99, max_steps=24, eval_every_steps=8)
LINEAR = partial(fda, theta=2.0)


def digits(result):
    return (
        result.communication_bytes,
        result.model_bytes,
        result.state_bytes,
        result.parallel_steps,
        result.synchronizations,
        repr(result.virtual_seconds),
        repr(result.final_accuracy),
    )


# -- recorded at dc748c1 from the retired helpers ---------------------------------
#
# The FDA literals' state bytes, communication bytes and virtual seconds were
# re-recorded when quiet steps stopped sending their states; model bytes,
# steps, syncs and accuracies did not move.

#: ``sweep_theta(blobs, [0.5, 5.0], RUN)`` (LinearFDA).
FROZEN_THETA = [
    (6944, 6240, 704, 24, 1, "24.0", "0.9666666666666667"),
    (0, 0, 0, 24, 0, "24.0", "0.9666666666666667"),
]
#: ``sweep_workers(blobs, [2, 3], RUN, LinearFDA Θ=2)``.
FROZEN_WORKERS = [
    (3152, 3120, 32, 24, 1, "24.0", "0.96"),
    (4728, 4680, 48, 24, 1, "24.0", "0.9733333333333334"),
]
#: ``sweep_fabric(blobs, RUN, LinearFDA Θ=2, ("star", "ring"), ("fl", "hpc"))``.
FROZEN_FABRIC = [
    (6304, 6240, 64, 24, 1, "24.200050431999998", "0.9666666666666667"),
    (6304, 6240, 64, 24, 1, "24.000400450285717", "0.9666666666666667"),
    (9456, 9360, 96, 24, 1, "24.600037824", "0.9666666666666667"),
    (9456, 9360, 96, 24, 1, "24.001200337714288", "0.9666666666666667"),
]
#: ``sweep_compression(blobs, RUN, Synchronous, COMPRESSIONS)``: the point's
#: ``compression`` attribute (the cluster's label), then the digits.
COMPRESSIONS = ("none", "quantization", CompressionConfig("topk", ratio=0.1, error_feedback=True))
FROZEN_COMPRESSION = [
    ("none", 149760, 149760, 0, 24, 24, "24.0", "0.9666666666666667"),
    ("quantization(bits=8)", 38400, 38400, 0, 24, 24, "24.0", "0.9666666666666667"),
    ("topk(ratio=0.1)+ef", 30720, 30720, 0, 24, 24, "24.0", "0.9666666666666667"),
]
#: ``RunTableSpec(fabrics=RUN_TABLE_FABRICS, sizes=(2, 3), repetitions=2)
#: .cells(blobs, LinearFDA Θ=2, RUN)``: each cell's label, tags and workload
#: seed, then the digits of executing it.
RUN_TABLE_FABRICS = (("star", "fl"), ("ring", "hpc"))
FROZEN_RUN_TABLE = [
    ("starxfl-K2-rep0", {"topology": "star", "network": "fl", "num_workers": 2, "repetition": 0}, 0,
     3152, 3120, 32, 24, 1, "24.200050432", "0.96"),
    ("starxfl-K2-rep1", {"topology": "star", "network": "fl", "num_workers": 2, "repetition": 1}, 1,
     3184, 3120, 64, 24, 1, "24.300050944000002", "0.98"),
    ("starxfl-K3-rep0", {"topology": "star", "network": "fl", "num_workers": 3, "repetition": 0}, 0,
     4728, 4680, 48, 24, 1, "24.200050431999998", "0.9733333333333334"),
    ("starxfl-K3-rep1", {"topology": "star", "network": "fl", "num_workers": 3, "repetition": 1}, 1,
     4776, 4680, 96, 24, 1, "24.300050944000002", "0.98"),
    ("ringxhpc-K2-rep0", {"topology": "ring", "network": "hpc", "num_workers": 2, "repetition": 0}, 0,
     3152, 3120, 32, 24, 1, "24.000400225142858", "0.96"),
    ("ringxhpc-K2-rep1", {"topology": "ring", "network": "hpc", "num_workers": 2, "repetition": 1}, 1,
     3184, 3120, 64, 24, 1, "24.000600227428574", "0.98"),
    ("ringxhpc-K3-rep0", {"topology": "ring", "network": "hpc", "num_workers": 3, "repetition": 0}, 0,
     6304, 6240, 64, 24, 1, "24.000800300190477", "0.9733333333333334"),
    ("ringxhpc-K3-rep1", {"topology": "ring", "network": "hpc", "num_workers": 3, "repetition": 1}, 1,
     6368, 6240, 128, 24, 1, "24.001200303238097", "0.98"),
]


class TestFrozenSweeps:
    def test_theta_axis_reproduces_sweep_theta(self, blobs_workload):
        points = run_grid(lower_grid(blobs_workload, RUN, fda, theta=[0.5, 5.0]))
        assert [digits(point.result) for point in points] == FROZEN_THETA
        assert [point.tags for point in points] == [{"theta": 0.5}, {"theta": 5.0}]
        assert {point.result.strategy for point in points} == {"LinearFDA"}

    def test_num_workers_axis_reproduces_sweep_workers(self, blobs_workload):
        cells = lower_grid(blobs_workload, RUN, LINEAR, num_workers=[2, 3])
        assert [cell.label for cell in cells] == ["num_workers=2", "num_workers=3"]
        assert [digits(point.result) for point in run_grid(cells)] == FROZEN_WORKERS

    def test_fabric_axes_reproduce_sweep_fabric(self, blobs_workload):
        points = run_grid(
            lower_grid(
                blobs_workload, RUN, LINEAR, topology=("star", "ring"), network=("fl", "hpc")
            )
        )
        assert [digits(point.result) for point in points] == FROZEN_FABRIC
        assert [(p.tags["topology"], p.tags["network"]) for p in points] == [
            ("star", "fl"), ("star", "hpc"), ("ring", "fl"), ("ring", "hpc"),
        ]
        for point in points:
            assert point.result.topology == point.tags["topology"]
            assert point.result.network == point.tags["network"]

    def test_compression_axis_reproduces_sweep_compression(self, blobs_workload):
        points = run_grid(
            lower_grid(blobs_workload, RUN, SynchronousStrategy, compression=COMPRESSIONS)
        )
        produced = [(p.result.compression, *digits(p.result)) for p in points]
        assert produced == FROZEN_COMPRESSION
        # The coordinate is the axis value as given (objects by describe()).
        assert [p.tags["compression"] for p in points] == [
            "none", "quantization", "topk(ratio=0.1)+ef",
        ]

    def test_fabric_size_seed_axes_reproduce_the_run_table(self, blobs_workload):
        # The run table zipped its fabric pairs (not a cross), so each pair is
        # one sub-grid; sizes and repetitions (= stepped seeds) are plain axes.
        cells = [
            cell
            for topology, network in RUN_TABLE_FABRICS
            for cell in lower_grid(
                blobs_workload, RUN, LINEAR,
                topology=[topology], network=[network], num_workers=(2, 3), seed=(0, 1),
            )
        ]
        points = run_grid(cells)
        assert len(cells) == len(FROZEN_RUN_TABLE)
        for cell, point, (label, tags, seed, *frozen) in zip(cells, points, FROZEN_RUN_TABLE):
            # The retired label and tags are functions of the new coordinates.
            coordinates = dict(cell.tags)
            assert cell.workload.seed == seed == coordinates["seed"]
            repetition = coordinates.pop("seed") - blobs_workload.seed
            assert {**coordinates, "repetition": repetition} == tags
            assert "{topology}x{network}-K{num_workers}".format(**tags) + f"-rep{repetition}" == label
            assert digits(point.result) == tuple(frozen)


# -- properties of the lowering ----------------------------------------------------


def _base_workload() -> WorkloadConfig:
    return WorkloadConfig(
        name="blobs",
        model_factory=lambda: mlp(8, 3, hidden_units=(16,), seed=0, name="test-mlp"),
        train_dataset=gaussian_blobs(360, feature_dim=8, num_classes=3, seed=0),
        test_dataset=gaussian_blobs(150, feature_dim=8, num_classes=3, seed=0),
        optimizer_factory=make_optimizer("adam", learning_rate=0.01),
        num_workers=4,
        batch_size=16,
        seed=5,
    )


BASE = _base_workload()
KEYS = SweepExecutor()  # one executor: dataset and model digests are memoised across examples
WORKLOAD_FIELDS = {field.name for field in fields(WorkloadConfig)}

#: Values every pair of which builds a different cluster or strategy (none
#: equals BASE's own setting spelled differently), so run keys must differ.
AXIS_VALUES = {
    "num_workers": (2, 3, 5),
    "topology": ("star", "ring", "hierarchical"),
    "network": ("none", "fl", "hpc"),
    "dtype": ("float64", "float32"),
    "compression": ("none", "topk", "quantization"),
    "seed": (0, 1, 2),
    "theta": (0.5, 2.0, 8.0),
    "tau": (1, 3, 7),
}


@st.composite
def axis_subsets(draw):
    names = draw(st.lists(st.sampled_from(sorted(AXIS_VALUES)), unique=True, max_size=4))
    if "tau" in names and "theta" in names:
        names.remove("theta")  # keywords of two different strategies
    return {
        name: draw(
            st.lists(st.sampled_from(AXIS_VALUES[name]), unique=True, min_size=1, max_size=3)
        )
        for name in names
    }


class TestLoweringProperties:
    @settings(max_examples=30, deadline=None)
    @given(axes=axis_subsets())
    def test_axes_cross_row_major_onto_replaced_workloads(self, axes):
        factory = LocalSGDStrategy if "tau" in axes else fda if "theta" in axes else LINEAR
        cells = lower_grid(BASE, RUN, factory, **axes)
        grid = [dict(zip(axes, values)) for values in product(*axes.values())]
        assert [cell.tags for cell in cells] == grid  # ∏|axis| cells, row-major
        for cell in cells:
            changes = {k: v for k, v in cell.tags.items() if k in WORKLOAD_FIELDS}
            assert cell.workload == replace(BASE, **changes)
            if "tau" in axes:
                assert cell.strategy_factory().tau == cell.tags["tau"]
            else:
                assert cell.strategy_factory().threshold == cell.tags.get("theta", 2.0)
            assert json.loads(json.dumps(cell.tags)) == cell.tags
        assert len({cell.label for cell in cells}) == len(cells)
        assert len({KEYS.run_key(cell) for cell in cells}) == len(cells)

    def test_mappings_add_workload_and_strategy_coordinates(self):
        cells = lower_grid(
            {"a": BASE, "b": BASE.with_seed(1)},
            RUN,
            {"LinearFDA": fda, "SketchFDA": partial(fda, variant="sketch")},
            tags={"grid": "demo"},
            theta=(1.0, 2.0),
        )
        assert [cell.label for cell in cells][:3] == [
            "grid=demo,workload=a,theta=1.0,strategy=LinearFDA",
            "grid=demo,workload=a,theta=1.0,strategy=SketchFDA",
            "grid=demo,workload=a,theta=2.0,strategy=LinearFDA",
        ]
        assert len(cells) == 2 * 2 * 2
        assert [cell.workload.seed for cell in select(cells, workload="b")] == [1] * 4
        assert {cell.strategy_factory().name for cell in select(cells, strategy="SketchFDA")} == {
            "SketchFDA"
        }

    def test_population_axis_goes_through_with_population(self):
        from repro.population.config import PopulationConfig

        population = PopulationConfig(num_clients=12, cohort_size=3)
        (cell,) = lower_grid(BASE, RUN, LINEAR, population=[population])
        assert cell.workload.num_workers == 3 and cell.workload.population is population
        assert cell.tags == {"population": population.describe()}

    def test_unknown_axis_is_named_before_any_cell_runs(self):
        with pytest.raises(ConfigurationError, match="'tau'"):
            lower_grid(BASE, RUN, LINEAR, theta=(1.0,), tau=(2, 4))
        with pytest.raises(ConfigurationError, match="'theta'"):
            lower_grid(BASE, RUN, {"LinearFDA": fda, "Synchronous": SynchronousStrategy}, theta=(1.0,))

    def test_empty_axis_is_rejected(self):
        with pytest.raises(ConfigurationError, match="'theta'"):
            lower_grid(BASE, RUN, fda, theta=[])
        with pytest.raises(ConfigurationError, match="'num_workers'"):
            lower_grid(BASE, RUN, LINEAR, num_workers=())

    def test_invalid_axis_value_fails_at_lowering(self):
        with pytest.raises(ConfigurationError, match="num_workers"):
            lower_grid(BASE, RUN, LINEAR, num_workers=(2, 0))

    def test_a_point_is_the_tags_and_result_of_a_store_record(self, tmp_path):
        cells = lower_grid(BASE, RUN, fda, theta=(0.5, 5.0))
        cold = SweepExecutor(cache_dir=tmp_path / "cache")
        points = run_grid(cells, cold)
        assert all(isinstance(point, SweepPoint) for point in points)
        records = sorted(
            cold.store.load_index().values(), key=lambda record: record["tags"]["theta"]
        )
        assert [record["tags"] for record in records] == [point.tags for point in points]
        assert [record["label"] for record in records] == ["theta=0.5", "theta=5.0"]
        # Reloading a finished grid is replaying it: every cell hits, in grid order.
        warm = SweepExecutor(cache_dir=tmp_path / "cache")
        replayed = run_grid(lower_grid(BASE, RUN, fda, theta=(0.5, 5.0)), warm)
        assert warm.stats.hit_rate == 1.0 and warm.stats.executed == 0
        assert [(p.tags, digits(p.result)) for p in replayed] == [
            (p.tags, digits(p.result)) for p in points
        ]


# -- a strategy's spec() sees every constructor parameter ---------------------------
#
# ``spec()`` is what a run key knows about a strategy.  A constructor parameter
# stored under a ``_``-prefixed attribute (LocalSGD's τ once was) drops out of
# it, two configurations share a key, and the executor replays one's result for
# the other.

#: For every strategy class ``repro.strategies`` exports: its constructor
#: parameters, each with values any two of which configure different runs.
SPEC_VALUES = {
    SynchronousStrategy: {},
    LocalSGDStrategy: {
        "tau": (1, 5, 7, 10),
    },
    FedOptStrategy: {
        "server_optimizer": (FedAvgM(0.3), FedAvgM(0.5), FedAvgM(0.3, momentum=0.5), FedAdam(0.3)),
        "local_epochs": (1, 2),
    },
    FDAStrategy: {
        "threshold": (0.5, 2.0),
        "variant": ("linear", "sketch"),
        "sketch_depth": (3, 5),
        "sketch_width": (64, 250),
        "seed": (0, 1),
        "monitor": (None, make_monitor("linear", 10, seed=0), make_monitor("sketch", 10, seed=0)),
    },
    FedProxStrategy: {"mu": (0.01, 0.5), "local_epochs": (1, 2)},
    ScaffoldStrategy: {"local_epochs": (1, 2), "local_learning_rate_hint": (0.01, 0.05)},
}


def exported_strategy_classes():
    exported = (getattr(repro.strategies, name) for name in repro.strategies.__all__)
    return [
        cls for cls in exported
        if inspect.isclass(cls) and issubclass(cls, Strategy) and cls is not Strategy
    ]


@pytest.mark.parametrize("cls", exported_strategy_classes(), ids=lambda cls: cls.__name__)
def test_two_values_of_any_constructor_parameter_are_two_specs(cls):
    parameters = inspect.signature(cls).parameters
    values = SPEC_VALUES[cls]
    assert set(values) == set(parameters), "list every constructor parameter in SPEC_VALUES"
    required = {
        name: values[name][0]
        for name, parameter in parameters.items()
        if parameter.default is inspect.Parameter.empty
    }
    for name, candidates in values.items():
        specs = [
            json.dumps(canonical_value(cls(**{**required, name: value}).spec()), sort_keys=True)
            for value in candidates
        ]
        for (i, first), (j, second) in combinations(enumerate(specs), 2):
            assert first != second, f"{cls.__name__}({name}=...): values {i} and {j} share a spec"


#: For every strategy class ``repro.strategies`` exports: a configuration whose
#: held objects carry training state — an explicit monitor whose ξ rotates on
#: every sync, a server optimizer that counts rounds.  ``model_dimension``
#: sizes the explicit monitor.
TRAINED = {
    SynchronousStrategy: lambda model_dimension: SynchronousStrategy(),
    LocalSGDStrategy: lambda model_dimension: LocalSGDStrategy(tau=2),
    FedOptStrategy: lambda model_dimension: FedOptStrategy(FedAdam(0.3)),
    FDAStrategy: lambda model_dimension: FDAStrategy(
        0.0, monitor=make_monitor("linear", model_dimension, seed=0)
    ),
    FedProxStrategy: lambda model_dimension: FedProxStrategy(mu=0.5),
    ScaffoldStrategy: lambda model_dimension: ScaffoldStrategy(),
}


@pytest.mark.parametrize("cls", exported_strategy_classes(), ids=lambda cls: cls.__name__)
def test_spec_is_stable_while_a_strategy_trains(cls, blobs_workload):
    """``spec()`` is configuration: a run key and a checkpoint's resume check
    read it, so training must not move it."""
    from repro.experiments.setup import build_cluster

    cluster, _ = build_cluster(blobs_workload)
    strategy = TRAINED[cls](cluster.model_dimension)

    def spec():
        return json.dumps(canonical_value(strategy.spec()), sort_keys=True)

    fresh = spec()
    strategy.attach(cluster)
    strategy.run_steps(4)
    assert cluster.synchronization_count > 0
    assert spec() == fresh


# -- lowering an ExperimentSpec ----------------------------------------------------


def _short(spec, max_steps=4):
    """The spec with a budget small enough to execute in a unit test."""
    return replace(
        spec, run=TrainingRun(accuracy_target=0.99, max_steps=max_steps, eval_every_steps=max_steps)
    )


class TestLowerSpec:
    def test_figure8_declares_comparison_theta_and_worker_grids(self):
        spec = registry.figure8(quick=True)
        cells = lower_spec(spec)
        by_grid = {
            grid: select(cells, grid=grid)
            for grid in dict.fromkeys(cell.tags["grid"] for cell in cells)
        }
        assert list(by_grid) == ["comparison", "theta", "workers"]
        assert len(by_grid["comparison"]) == len(spec.strategy_factories)
        assert len(by_grid["theta"]) == 2 * len(spec.fda_thetas)  # the spec's own FDA entries
        assert {cell.tags["strategy"] for cell in by_grid["theta"]} == {"LinearFDA", "SketchFDA"}
        assert len(by_grid["workers"]) == len(spec.worker_counts) * len(spec.strategy_factories)
        synchronous = select(by_grid["workers"], strategy="Synchronous")
        assert [cell.workload.num_workers for cell in synchronous] == list(spec.worker_counts)
        for cell in cells:
            assert cell.tags["workload"] == "iid" and cell.run is spec.run
        # Naming grids lowers exactly those, in the order named.
        named = lower_spec(spec, "workers", "comparison")
        assert [cell.tags for cell in named] == [
            cell.tags for cell in by_grid["workers"] + by_grid["comparison"]
        ]

    def test_sketch_geometry_is_the_registrys_on_every_grid(self, monkeypatch):
        # Drift (i): the Θ half of Figures 8–11/13 once built SketchFDA at the
        # library default 5 x 250 while the K half and the comparison used the
        # registry's 5 x 64 — one label, two state sizes.  A quiet step sends
        # no state (every step of these short runs is quiet), so the row width
        # of every SketchFDA step is recorded as it happens, and the ledger
        # holds exactly the exchanged ones.
        steps, step = [], FDATrainer.step

        def recorded_step(trainer):
            result = step(trainer)
            if isinstance(trainer.monitor, SketchMonitor):
                steps.append(
                    (trainer.cluster.num_workers, trainer.state_elements_per_step, result.exchanged)
                )
            return result

        monkeypatch.setattr(FDATrainer, "step", recorded_step)
        spec = _short(registry.figure8(quick=True))
        points = select(run_grid(lower_spec(spec)), strategy="SketchFDA")
        assert {point.tags["grid"] for point in points} == {"comparison", "theta", "workers"}
        itemsize = np.dtype("float64").itemsize
        elements = registry.REGISTRY_SKETCH_DEPTH * registry.REGISTRY_SKETCH_WIDTH + 1
        assert len(steps) == sum(point.result.parallel_steps for point in points)
        assert {width for _, width, _ in steps} == {elements}
        assert {workers for workers, _, _ in steps} == {
            point.tags.get("num_workers", 4) for point in points
        }
        for point in points:
            workers = point.tags.get("num_workers", 4)
            result = point.result
            assert result.strategy == "SketchFDA"
            exchanged, rest = divmod(result.state_bytes, workers * elements * itemsize)
            assert rest == 0 and exchanged <= result.parallel_steps, point.tags
        assert sum(point.result.state_bytes for point in points) == sum(
            workers * width * itemsize for workers, width, exchanged in steps if exchanged
        )

    def test_theta_grid_rebinds_the_specs_own_entries(self):
        spec = registry.figure13(quick=True)
        cells = select(lower_spec(spec, "theta"), workload="K=3", strategy="SketchFDA")
        strategies = [cell.strategy_factory() for cell in cells]
        assert [strategy.threshold for strategy in strategies] == list(spec.fda_thetas)
        assert {(s.variant, s.sketch_depth, s.sketch_width) for s in strategies} == {
            ("sketch", registry.REGISTRY_SKETCH_DEPTH, registry.REGISTRY_SKETCH_WIDTH)
        }

    def test_undeclared_grid_is_a_named_error(self):
        with pytest.raises(ConfigurationError, match="fabric"):
            lower_spec(registry.figure3(quick=True), "fabric")
        with pytest.raises(ConfigurationError, match="workers"):
            lower_spec(registry.figure13(quick=True), "workers")

    def test_spec_has_no_seeds_field(self):
        assert "seeds" not in {field.name for field in fields(registry.ExperimentSpec)}
