"""Experiment harness: the paper's evaluation methodology as code.

A *training run* (Section 4.1) executes one DDL algorithm on one workload
until the global model reaches a target test accuracy, and reports two costs:
communication (total bytes transmitted by all workers) and computation
(in-parallel learning steps).  This subpackage provides the workload builder,
the run loop, the one grid lowering (axes → cells → points, through the one
streaming executor and its content-addressed run store — which is also how
finished grids persist), result aggregation, KDE summaries of the cost
distributions, and the registry that maps every figure/table of the paper to
a concrete configuration.
"""

from repro.experiments.setup import (
    SetupCache,
    WorkloadConfig,
    build_cluster,
    make_optimizer,
)
from repro.experiments.run import RunResult, TrainingRun
from repro.experiments.results import (
    ResultsTable,
    compare_strategies,
)
from repro.experiments.cache import CODE_VERSION, RunStore
from repro.experiments.executor import SweepCell, SweepExecutor, execute_cells
from repro.experiments.sweep import SweepPoint, lower_grid, lower_spec
from repro.experiments.kde import kde_density, log_kde_summary
from repro.experiments.reporting import format_results_table, format_comparison
from repro.experiments import registry

__all__ = [
    "WorkloadConfig",
    "build_cluster",
    "make_optimizer",
    "TrainingRun",
    "RunResult",
    "ResultsTable",
    "compare_strategies",
    "SetupCache",
    "RunStore",
    "CODE_VERSION",
    "SweepCell",
    "SweepExecutor",
    "execute_cells",
    "SweepPoint",
    "lower_grid",
    "lower_spec",
    "kde_density",
    "log_kde_summary",
    "format_results_table",
    "format_comparison",
    "registry",
]
