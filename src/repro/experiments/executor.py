"""The streaming sweep executor: cache, resume, memoize, parallelize.

The paper's evaluation aggregates over 1000 training runs (Table 2 grids ×
seeds); on a single box such grids are only tractable when unchanged cells
cost zero and independent cells use every core.  :class:`SweepExecutor`
provides exactly that, as the execution substrate under every grid
:mod:`repro.experiments.sweep` lowers:

1. **Content-addressed run keys** — every cell (workload × strategy ×
   training-run budget) is hashed into a canonical key covering the dataset
   *content*, the initial model, the partition/fabric/compression/dtype/
   execution configuration, the seeds, and a code-version salt
   (:mod:`repro.experiments.cache`).  A cell whose key is already in the
   store is never executed again; its :class:`RunResult` replays from disk.

2. **Incremental crash-resumable JSONL store** — each completed cell is
   durably appended to ``runs.jsonl`` *as it finishes* (write + fsync), so a
   sweep killed mid-grid resumes exactly at its last durable cell on the
   next invocation.

3. **Shared-setup memoization** — dataset digests, partitions, initial
   model state and the cluster are built once per workload fingerprint
   (:class:`~repro.experiments.setup.SetupCache`): a cell of the previous
   cell's workload restores that cluster's as-built ``state_dict()`` instead
   of the ``build_cluster`` rebuild that dominates small-cell grids.

4. **Process-parallel cells** — with ``jobs > 1`` pending cells dispatch
   over a fork-based :class:`~concurrent.futures.ProcessPoolExecutor`.
   Every cell is deterministically seeded by its own configuration, so
   parallel results are bit-identical to serial ones; the parent records
   completions into the store as they arrive, preserving crash-resumability.
   Each cell process is pinned to one core, so its passes run unsharded.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence

from repro.composition import check_composition
from repro.distributed.network import get_network
from repro.distributed.topology import get_topology
from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments.cache import CODE_VERSION, RunStore, canonical_value, fingerprint_digest
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.experiments.run import RunResult, TrainingRun
from repro.experiments.setup import SetupCache, WorkloadConfig, build_cluster
from repro.strategies.base import Strategy

StrategyFactory = Callable[[], Strategy]


@dataclass(frozen=True)
class SweepCell:
    """One independently executable grid cell of a sweep."""

    workload: WorkloadConfig
    strategy_factory: StrategyFactory
    run: TrainingRun
    #: Human-readable label stored with the cell's record (e.g. ``theta=4``).
    label: str = ""
    #: Structured tags replayed into sweep points (e.g. ``{"value": 4.0}``).
    tags: Dict[str, object] = field(default_factory=dict)


@dataclass
class SweepStats:
    """Counters accumulated across an executor's :meth:`~SweepExecutor.execute` calls."""

    cells: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    parallel_cells: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requested cells served from the store."""
        return self.cache_hits / self.cells if self.cells else 0.0

    def describe(self) -> str:
        return (
            f"{self.cells} cells: {self.cache_hits} cache hits "
            f"({self.hit_rate:.0%}), {self.executed} executed"
            + (f" ({self.parallel_cells} in parallel)" if self.parallel_cells else "")
            + (f", {self.failed} failed" if self.failed else "")
        )


#: The fields whose value alone is not the run key, and what enters it
#: instead: datasets and factories by the content they hold or build, the
#: fabric as what the cluster will be built with (``None``, ``"star"`` and
#: ``StarTopology()`` are one topology, ``None`` and ``"none"`` one network).
_FINGERPRINTED_AS = {
    "train_dataset": lambda config, setup: setup.dataset_digest(config.train_dataset),
    "test_dataset": lambda config, setup: setup.dataset_digest(config.test_dataset),
    "model_factory": lambda config, setup: setup.model_digest(config),
    "optimizer_factory": lambda config, setup: config.optimizer_factory(),
    "topology": lambda config, setup: get_topology(
        "star" if config.topology is None else config.topology
    ),
    "network": lambda config, setup: get_network(config.network),
}


def workload_fingerprint(config: WorkloadConfig, setup: SetupCache) -> Dict[str, object]:
    """Canonical fingerprint of a workload: one entry per dataclass field.

    Every field of the config (a subclass's included) enters the key, so any
    single-field change produces a different key; the fields in
    :data:`_FINGERPRINTED_AS` enter as their content or resolved fabric, so
    two separately constructed but equal workloads share a fingerprint.
    """
    return {
        spec.name: canonical_value(
            _FINGERPRINTED_AS[spec.name](config, setup)
            if spec.name in _FINGERPRINTED_AS
            else getattr(config, spec.name)
        )
        for spec in fields(config)
    }


def _execute_cell(cell: SweepCell, setup: SetupCache) -> RunResult:
    """Run one cell to completion (the serial and per-process work unit)."""
    if cell.workload.serving is not None:
        check_composition("serving-config", "lockstep-run")
    workload = fingerprint_digest(workload_fingerprint(cell.workload, setup))
    cluster = setup.restored_cluster(workload)
    if cluster is None:
        cluster, _ = build_cluster(cell.workload, setup=setup)
        setup.hold_cluster(workload, cluster)
    return cell.run.execute(
        cell.strategy_factory(),
        cluster,
        cell.workload.test_dataset,
        train_dataset=cell.workload.train_dataset,
        workload_name=cell.workload.name,
    )


# ---------------------------------------------------------------------------
# Fork-based parallel dispatch
#
# Cells carry workload factories (closures) that cannot cross a pickle
# boundary, so the cell list is published in a module global *before* the
# fork-context pool spawns its workers: children inherit it (and the parent's
# already-populated setup cache) through copy-on-write memory and receive
# only the cell index over the pipe.  Results travel back as plain dicts.
# ---------------------------------------------------------------------------

_FORK_CELLS: Optional[List[SweepCell]] = None
_FORK_SETUP: Optional[SetupCache] = None


def _run_forked_cell(index: int):
    result = _execute_cell(_FORK_CELLS[index], _FORK_SETUP)
    return index, result_to_dict(result)


def _one_core_per_cell_process(counter) -> None:
    """Fork initializer: pin this cell process to one core, dealt round-robin.

    The processes already use the cores, so a cell's passes run as one row
    shard: the shard count reads this affinity (:mod:`repro.backend`).
    """
    if hasattr(os, "sched_setaffinity"):
        with counter.get_lock():
            index, counter.value = counter.value, counter.value + 1
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[index % len(cores)]})


def fork_parallelism_available() -> bool:
    """Whether process-parallel cells are supported on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class SweepExecutor:
    """Streaming executor for sweep cells: skip, replay, memoize, parallelize.

    Parameters
    ----------
    cache_dir:
        Directory of the content-addressed result store (``manifest.json`` +
        ``runs.jsonl``).  ``None`` disables persistence: every miss executes
        and nothing is written (shared-setup memoization still applies).
    jobs:
        Worker processes for pending cells.  ``1`` (default) runs serially
        in-process; ``None`` uses ``os.cpu_count()``, which is also the cap
        on any larger value.  Falls back to serial where fork is unavailable.
    resume:
        Replay cells already present in the store (default).  With
        ``resume=False`` the store is write-only for this invocation.
    force:
        Re-execute every cell even if cached, appending fresh records that
        shadow the old ones on the next load.

    Each executor memoizes shared setup (partitions, models, digests, the
    last cell's cluster until :meth:`execute` returns) in its own
    :class:`~repro.experiments.setup.SetupCache`.
    """

    def __init__(
        self,
        cache_dir=None,
        jobs: Optional[int] = 1,
        resume: bool = True,
        force: bool = False,
    ) -> None:
        if jobs is not None and jobs <= 0:
            raise ConfigurationError(f"jobs must be positive (or None for auto), got {jobs}")
        self.store = RunStore(cache_dir) if cache_dir is not None else None
        self.jobs = int(jobs) if jobs is not None else max(1, os.cpu_count() or 1)
        self.resume = bool(resume)
        self.force = bool(force)
        self.setup = SetupCache()
        self.stats = SweepStats()

    # -- keys --------------------------------------------------------------

    def run_key(self, cell: SweepCell) -> str:
        """Content-addressed key of one cell (hex SHA-256).

        Strategies are fingerprinted through a freshly constructed instance
        (:meth:`repro.strategies.base.Strategy.spec`), the training-run
        budget through :meth:`repro.experiments.run.TrainingRun.spec`, and
        the workload through :func:`workload_fingerprint`; the code-version
        salt invalidates the whole store when run semantics change.
        """
        return fingerprint_digest(
            {
                "code_version": CODE_VERSION,
                "workload": workload_fingerprint(cell.workload, self.setup),
                "strategy": canonical_value(cell.strategy_factory().spec()),
                "run": canonical_value(cell.run.spec()),
            }
        )

    # -- execution ---------------------------------------------------------

    def execute(self, cells: Sequence[SweepCell]) -> List[RunResult]:
        """Execute (or replay) every cell, returning results in cell order.

        Completed cells are appended to the store *as they finish*, before
        any later cell runs — an exception mid-grid therefore loses only the
        failing cell, and the next invocation resumes from the store.
        """
        cells = list(cells)
        if not cells:
            return []
        for cell in cells:
            if not isinstance(cell, SweepCell):
                raise ExperimentError(f"expected a SweepCell, got {type(cell).__name__}")
        keys = [self.run_key(cell) for cell in cells]
        results: List[Optional[RunResult]] = [None] * len(cells)
        self.stats.cells += len(cells)

        index = {}
        if self.store is not None and self.resume and not self.force:
            index = self.store.load_index()
        pending: List[int] = []
        for position, key in enumerate(keys):
            record = index.get(key)
            if record is not None:
                results[position] = result_from_dict(record["result"])
                self.stats.cache_hits += 1
            else:
                pending.append(position)

        try:
            if self.jobs > 1 and len(pending) > 1 and fork_parallelism_available():
                self._execute_parallel(cells, keys, pending, results)
            else:
                for position in pending:
                    try:
                        result = _execute_cell(cells[position], self.setup)
                    except Exception:
                        self.stats.failed += 1
                        raise
                    self._record(keys[position], cells[position], result)
                    results[position] = result
        finally:
            self.setup.release_cluster()
        return results  # type: ignore[return-value]

    def _record(self, key: str, cell: SweepCell, result: RunResult) -> None:
        self.stats.executed += 1
        if self.store is not None:
            self.store.append(key, result_to_dict(result), label=cell.label, tags=cell.tags)

    def _execute_parallel(
        self,
        cells: List[SweepCell],
        keys: List[str],
        pending: List[int],
        results: List[Optional[RunResult]],
    ) -> None:
        global _FORK_CELLS, _FORK_SETUP
        # Never more processes than cores: oversubscribed workers only add
        # fork and context-switch cost to cells that take milliseconds.
        workers = min(self.jobs, len(pending), os.cpu_count() or 1)
        _FORK_CELLS = cells
        _FORK_SETUP = self.setup
        try:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_one_core_per_cell_process,
                initargs=(context.Value("i", 0),),
            ) as pool:
                futures = {
                    pool.submit(_run_forked_cell, position): position
                    for position in pending
                }
                first_error: Optional[BaseException] = None
                for future in as_completed(futures):
                    error = future.exception()
                    if error is not None:
                        self.stats.failed += 1
                        if first_error is None:
                            first_error = error
                        continue
                    position, payload = future.result()
                    result = result_from_dict(payload)
                    self._record(keys[position], cells[position], result)
                    self.stats.parallel_cells += 1
                    results[position] = result
                if first_error is not None:
                    raise first_error
        finally:
            _FORK_CELLS = None
            _FORK_SETUP = None


def execute_cells(
    cells: Sequence[SweepCell], executor: Optional[SweepExecutor] = None
) -> List[RunResult]:
    """Run cells through ``executor``, or a fresh default one.

    The default executor persists nothing and runs serially, but still
    memoizes shared setup within the call — the drop-in replacement for the
    historical run-every-cell-eagerly loop, at lower cost and identical bits.
    """
    return (executor if executor is not None else SweepExecutor()).execute(cells)
