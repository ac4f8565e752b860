"""The one grid: axes → cells → points.

The paper's evaluation is a grid — Θ × K × heterogeneity × model, more than a
thousand training runs, each reduced to one record of (communication,
in-parallel steps) at the accuracy target.  This module is the one place such
a grid is *lowered*: :func:`lower_grid` turns a workload, a run budget, a
strategy factory and named axes into :class:`SweepCell` lists, and
:func:`lower_spec` does the same for every grid an
:class:`~repro.experiments.registry.ExperimentSpec` declares.  Cells run
through the one executor (:func:`run_grid` →
:func:`~repro.experiments.executor.execute_cells`) and come back as
:class:`SweepPoint` — the cell's coordinates next to its result, exactly the
``{tags, result}`` a :class:`~repro.experiments.cache.RunStore` record holds.

The store is the persistence: a finished grid is reloaded by lowering it again
and replaying it through an executor on the same ``cache_dir`` — every cell
hits, in grid order, nothing trains.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.exceptions import ConfigurationError
from repro.experiments.executor import SweepCell, SweepExecutor, execute_cells
from repro.experiments.run import RunResult, TrainingRun
from repro.experiments.setup import WorkloadConfig
from repro.strategies.base import Strategy

StrategyFactory = Callable[..., Strategy]

_WORKLOAD_FIELDS = frozenset(field.name for field in fields(WorkloadConfig))


@dataclass(frozen=True)
class SweepPoint:
    """One finished cell: its coordinates (the cell's ``tags``) and its result."""

    tags: Dict[str, object]
    result: RunResult


def _coordinate(value: object) -> object:
    """The JSON-plain form of one axis value: objects by ``describe()`` / ``str``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    describe = getattr(value, "describe", None)
    return describe() if callable(describe) else str(value)


def _accepts(factory: StrategyFactory, name: str) -> bool:
    """Whether ``factory`` can be called with the keyword ``name``."""
    try:
        inspect.signature(factory).bind_partial(**{name: None})
    except TypeError:
        return False
    return True


def lower_grid(
    workloads: Union[WorkloadConfig, Mapping[str, WorkloadConfig]],
    run: TrainingRun,
    strategies: Union[StrategyFactory, Mapping[str, StrategyFactory]],
    tags: Optional[Dict[str, object]] = None,
    **axes: Sequence,
) -> List[SweepCell]:
    """Lower named axes onto executable cells, crossed row-major.

    An axis is a name and its values.  A name that is a
    :class:`WorkloadConfig` field is applied to the workload with
    :func:`dataclasses.replace` (``population`` through ``with_population``,
    the one field with a coupled invariant); any other name — ``theta``,
    ``variant``, ``tau`` … — is bound as a keyword of the strategy factory, so
    the cell's factory stays zero-argument.  A name that is neither raises a
    :class:`ConfigurationError` naming it before any cell exists.

    ``workloads`` and ``strategies`` are single values, or mappings whose keys
    become the outermost ``workload`` and innermost ``strategy`` coordinate.
    A cell's ``tags`` are ``tags`` (constant coordinates, e.g. the grid's
    name) followed by its own coordinates in axis order, JSON-plain; its
    ``label`` is their ``k=v`` join.
    """
    workloads = workloads if isinstance(workloads, Mapping) else {None: workloads}
    strategies = strategies if isinstance(strategies, Mapping) else {None: strategies}
    for name, values in axes.items():
        if not len(values):
            raise ConfigurationError(f"sweep axis {name!r} must contain at least one value")
        if name not in _WORKLOAD_FIELDS:
            for factory in strategies.values():
                if not _accepts(factory, name):
                    raise ConfigurationError(
                        f"unknown sweep axis {name!r}: neither a WorkloadConfig field "
                        f"nor a keyword of the strategy factory {factory!r}"
                    )
    cells = []
    for (label, workload), values, (strategy, factory) in product(
        workloads.items(), product(*axes.values()), strategies.items()
    ):
        point = dict(zip(axes, values))
        changes = {name: value for name, value in point.items() if name in _WORKLOAD_FIELDS}
        bound = {name: value for name, value in point.items() if name not in changes}
        if "population" in changes:
            workload = workload.with_population(changes.pop("population"))
        coordinates = dict(tags or {})
        if label is not None:
            coordinates["workload"] = label
        coordinates.update((name, _coordinate(value)) for name, value in point.items())
        if strategy is not None:
            coordinates["strategy"] = strategy
        cells.append(
            SweepCell(
                workload=replace(workload, **changes) if changes else workload,
                strategy_factory=partial(factory, **bound) if bound else factory,
                run=run,
                label=",".join(f"{name}={value}" for name, value in coordinates.items()),
                tags=coordinates,
            )
        )
    return cells


def lower_spec(spec, *grids: str) -> List[SweepCell]:
    """Lower an :class:`~repro.experiments.registry.ExperimentSpec` onto cells.

    A spec declares up to four grids, each over every workload of the spec:
    ``comparison`` (every strategy as configured), ``theta`` (the spec's own
    FDA entries — the factories that take a ``theta`` keyword —
    re-instantiated at each of ``fda_thetas``), ``workers``
    (``worker_counts``) and ``compression`` (``compressions``).  With no
    ``grids`` named, every declared grid is lowered, in that order; naming a
    grid the spec does not declare is a :class:`ConfigurationError`.  Every cell is tagged with its
    ``grid``, ``workload`` and ``strategy`` ahead of the grid's own axes, so
    callers pick cells and points apart with :func:`select`.
    """
    declared = {
        "comparison": {},
        "theta": {"theta": spec.fda_thetas},
        "workers": {"num_workers": spec.worker_counts},
        "compression": {"compression": spec.compressions},
    }
    declared = {
        grid: axes for grid, axes in declared.items() if all(len(v) for v in axes.values())
    }
    cells: List[SweepCell] = []
    for grid in grids or declared:
        if grid not in declared:
            raise ConfigurationError(
                f"spec {spec.experiment_id!r} declares no {grid!r} grid "
                f"(declared: {sorted(declared)})"
            )
        strategies = spec.strategy_factories
        if grid == "theta":
            strategies = {
                name: factory for name, factory in strategies.items() if _accepts(factory, "theta")
            }
        cells += lower_grid(
            spec.workloads, spec.run, strategies, tags={"grid": grid}, **declared[grid]
        )
    return cells


def run_grid(
    cells: Sequence[SweepCell], executor: Optional[SweepExecutor] = None
) -> List[SweepPoint]:
    """Execute (or replay) ``cells`` in one batch and pair each with its tags."""
    cells = list(cells)
    return [
        SweepPoint(tags=cell.tags, result=result)
        for cell, result in zip(cells, execute_cells(cells, executor))
    ]


def select(items: Sequence, **tags: object) -> List:
    """The cells or points whose tags carry every given ``name=value``."""
    return [
        item for item in items if all(item.tags.get(name) == tags[name] for name in tags)
    ]
