"""In-memory span tracer that observes the repo's layers from outside.

The tracer replaces *public* methods on *public* classes (and public module
functions) with timing wrappers, for the lifetime of one traced benchmark run.
Nothing under ``src/`` is edited and no ``_private`` name is touched, so the
wrappers are pure observers: they call the original with the original
arguments and return its result.  Spans (name, start, end, parent) are kept in
memory and written to ``bench/out/trace-<workload>.json`` when the workload
ends; per-span ``calls`` and ``self_s`` (duration minus the part covered by
child spans) are what ``BENCHMARK.json`` lists as per-layer metrics.

Layers are the repo's module names: the span ``distributed.cluster.step_all``
is ``repro.distributed.cluster.SimulatedCluster.step_all``.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: span name -> [(module, owner, attribute)].  ``owner`` is a class name, or
#: ``None`` for a module-level function.  A class entry also covers every
#: subclass that overrides the attribute (monitors, compressors, arrivals).
#: A module function is patched in the namespace that *calls* it, because
#: ``from m import f`` binds the caller's own reference.
SPAN_TARGETS: Dict[str, List[Tuple[str, object, str]]] = {
    "experiments.setup.build_cluster": [
        ("repro.experiments.setup", None, "build_cluster"),
        ("repro.experiments.executor", None, "build_cluster"),
    ],
    "experiments.setup.worker_models": [("repro.experiments.setup", "SetupCache", "worker_models")],
    "data.loaders.sample": [("repro.data.loaders", "StackedSampler", "sample")],
    "nn.batched.train_batch": [("repro.nn.batched", "BatchedModel", "train_batch")],
    "optim.step_rows": [("repro.optim.base", "StackedOptimizer", "step_rows")],
    "distributed.engine.step_all": [("repro.distributed.engine", "BatchedEngine", "step_all")],
    "distributed.engine.step_worker": [("repro.distributed.engine", "BatchedEngine", "step_worker")],
    "distributed.cluster.step_all": [("repro.distributed.cluster", "SimulatedCluster", "step_all")],
    "distributed.cluster.drift_matrix": [("repro.distributed.cluster", "SimulatedCluster", "drift_matrix")],
    "distributed.cluster.synchronize": [("repro.distributed.cluster", "SimulatedCluster", "synchronize")],
    "distributed.cluster.evaluate_global": [("repro.distributed.cluster", "SimulatedCluster", "evaluate_global")],
    "core.fda.step": [("repro.core.fda", "FDATrainer", "step")],
    "core.monitor.local_states": [("repro.core.monitor", "VarianceMonitor", "local_states")],
    "core.monitor.local_state": [("repro.core.monitor", "VarianceMonitor", "local_state")],
    "core.monitor.estimate": [("repro.core.monitor", "VarianceMonitor", "estimate")],
    "sketch.ams.sketch_rows": [("repro.sketch.ams", "AmsSketch", "sketch_rows")],
    "compression.state.synchronize": [("repro.compression.state", "ClusterCompression", "synchronize")],
    "compression.kernels.compress_rows": [("repro.compression.kernels", "Compressor", "compress_rows")],
    "distributed.topology.allreduce": [("repro.distributed.topology", "Fabric", "allreduce")],
    "distributed.topology.broadcast": [("repro.distributed.topology", "Fabric", "broadcast")],
    "distributed.topology.upload": [("repro.distributed.topology", "Fabric", "upload")],
    "core.timeline.advance": [
        ("repro.core.timeline", "Timeline", "advance_round"),
        ("repro.core.timeline", "Timeline", "advance_to"),
    ],
    "faults.injector.advance_round": [("repro.faults.injector", "FaultInjector", "advance_round")],
    "faults.checkpoint.capture": [("repro.faults.checkpoint", "ClusterCheckpoint", "capture")],
    "faults.checkpoint.save": [("repro.faults.checkpoint", "ClusterCheckpoint", "save")],
    "population.plane.run_round": [("repro.population.plane", "ClientPopulation", "run_round")],
    "population.plane.bind_cohort": [("repro.population.plane", "ClientPopulation", "bind_cohort")],
    "population.plane.unbind_cohort": [("repro.population.plane", "ClientPopulation", "unbind_cohort")],
    "population.store.save": [("repro.population.store", "ClientStateStore", "save")],
    "population.store.load": [("repro.population.store", "ClientStateStore", "load")],
    "population.directory.shard": [("repro.population.directory", "ClientDirectory", "shard")],
    "serving.harness.serve_updates": [("repro.serving.harness", "ServedFDATrainer", "serve_updates")],
    "serving.queueing.offer": [("repro.serving.queueing", "IngressQueue", "offer")],
    "serving.queueing.pop": [("repro.serving.queueing", "IngressQueue", "pop")],
    "serving.arrivals.next_arrival": [("repro.serving.arrivals", "ArrivalProcess", "next_arrival")],
    "serving.metrics.record": [("repro.serving.metrics", "LatencyTracker", "record")],
    "experiments.executor.execute": [("repro.experiments.executor", "SweepExecutor", "execute")],
    "experiments.executor.run_key": [("repro.experiments.executor", "SweepExecutor", "run_key")],
    "experiments.cache.load_index": [("repro.experiments.cache", "RunStore", "load_index")],
    "experiments.cache.append": [("repro.experiments.cache", "RunStore", "append")],
    "experiments.run.execute": [("repro.experiments.run", "TrainingRun", "execute")],
    "strategies.run_round": [("repro.strategies.base", "Strategy", "run_round")],
}

#: Every span name a traced run can report (``import`` is recorded by hand in
#: ``run.py``: nothing can be wrapped before the package is imported).
SPAN_NAMES: Tuple[str, ...] = ("import",) + tuple(SPAN_TARGETS)


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def patch_targets(targets, wrap) -> List[Tuple[object, str, object]]:
    """Replace each target (and subclass overrides) by ``wrap(original)``.

    Returns ``(owner, attribute, original)`` records for :func:`restore`.
    Raises when a target names nothing that exists: a layer renamed under
    ``src/`` must fail the traced run, not read 0 like a bypassed layer.
    """
    patched = []

    def patch(owner, attribute: str) -> None:
        original = vars(owner)[attribute]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(wrap(original.__func__))
        else:
            replacement = wrap(original)
        setattr(owner, attribute, replacement)
        patched.append((owner, attribute, original))

    for module_name, owner_name, attribute in targets:
        if attribute.startswith("_") or (owner_name or "").startswith("_"):
            raise ValueError(f"refusing to wrap private name {owner_name}.{attribute}")
        module = importlib.import_module(module_name)
        before = len(patched)
        if owner_name is None:
            if attribute in vars(module):
                patch(module, attribute)
        else:
            base = getattr(module, owner_name)
            for cls in (base, *_subclasses(base)):
                if attribute in vars(cls):
                    patch(cls, attribute)
        if len(patched) == before:
            restore(patched)
            raise LookupError(
                f"span target {module_name}:{owner_name}.{attribute} does not exist"
            )
    return patched


def restore(patched: List[Tuple[object, str, object]]) -> None:
    while patched:
        owner, attribute, original = patched.pop()
        setattr(owner, attribute, original)


class Tracer:
    """Records spans through wrappers installed on the layers' public API."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One column per span field; a span's index is its position.
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def record(self, name: str, start: float, end: float) -> None:
        """Add one finished root span measured by the caller."""
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrapper(self, function, name: str):
        """``function`` wrapped so that every call records one span called ``name``."""
        name_id = self._id(name)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            index = open_span(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index)

        traced.__name__ = getattr(function, "__name__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in :data:`SPAN_TARGETS` (``repro`` must be imported)."""
        for name, targets in SPAN_TARGETS.items():
            self._patched += patch_targets(targets, lambda function, name=name: self.wrapper(function, name))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        restore(self._patched)

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls": n, "self_s": seconds}}`` over all spans."""
        count = len(self.start)
        child_seconds = [0.0] * count
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                child_seconds[parent] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = table[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child_seconds[i]
        return table

    def root_seconds(self, since: float, until: float) -> float:
        """Seconds covered by root spans that started within the window."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] < 0 and since <= self.start[i] <= until
        )

    def operation_seconds(self, name: str, since: float, until: float) -> List[float]:
        """Seconds from each end of a span called ``name`` to the next, in the window."""
        name_id = self._name_ids.get(name)
        ends = sorted(
            self.end[i]
            for i in range(len(self.end))
            if self.name_id[i] == name_id and since <= self.end[i] <= until
        )
        return [b - a for a, b in zip([since] + ends, ends)]

    def write(self, path: Path) -> None:
        """Dump the spans column-wise (one JSON document)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "format": "bench.trace",
            "version": 1,
            "clock": "time.perf_counter seconds",
            "names": self.names,
            "name_id": self.name_id,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
        }
        path.write_text(json.dumps(document), encoding="utf-8")
