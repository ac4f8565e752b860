"""State hygiene lint: resumable state is enumerated by its owner, once.

Checkpoint/restore, cohort bind/unbind, crash rejoin and the sweep's model
pool once each carried their own list of "what a worker's state is" — the
optimizer's ``_velocity``/``_m``/``_v``, the layers' ``_rng`` — and the lists
disagreed (the checkpoint forgot the compression residual the population
remembered).  The owners now serialise themselves (``Optimizer.state_dict``,
``Sequential.rng_states``, ``Worker.state_dict``,
``SimulatedCluster.capture_slot`` / ``state_dict`` …); this lint keeps a
second enumeration from growing back:

1. the optimizer moment attributes are named only under ``optim/``;
2. no module imports a ``_private`` name from another ``repro`` module;
3. the consumers of other objects' state — checkpoint, population plane, the
   FDA and FedOpt strategies — read no ``_private`` attribute of any object
   but themselves.

"Which rows count, and how much" went the same way: the cluster once carried
a liveness mask, a cohort mask, a fold of the two and a weight vector, and
each consumer combined them again.  They are one
:class:`~repro.distributed.participation.Participation` now, and

4. none of the old names is spelled anywhere under ``src/``;
5. the injector's liveness vector is read in ``faults/``, by the cluster's
   one composer (``SimulatedCluster.members``) and by ``FDATrainer``'s
   stale-state rule — nowhere else.

The Section 3.3 coordinator once existed twice, on two event heaps, with the
reference rotation spelled three times.  There is one event-driven trainer
on the timeline's heap now, and

6. ``heapq`` is imported by ``core/timeline.py`` alone, and the rotation
   ``w_{t-1} ← w_{t0}`` is written once under ``src/``.

Each local optimizer's arithmetic was once written three times — a copy path,
a flat in-place path and a stacked ``(A, d)`` row rule, selected by
``Worker(inplace=)`` and by the execution engine, and equal only by parity
test (at float32, not even that).  The row rule is the one spelling now, and

7. each optimizer's arithmetic is written once: under ``optim/`` no function
   is named after the retired paths, ``SGD``/``Adam``/``AdamW`` each define
   exactly one method that takes parameters and gradients — the rule
   ``_update_rows`` — ``Worker.__init__`` has no ``inplace`` parameter, the
   retired spellings occur nowhere under ``src/``, and a call spy sees
   ``StackedOptimizer.step_rows`` (full, masked and one row) and the engine's
   ``step_worker`` all end in that one rule.

The sparsifying compression kernels once partitioned the whole ``(K, d)``
matrix in one ``argpartition(..., axis=1)`` call over a cached ``(K, d)``
magnitude matrix — a fresh ``(K, d)`` int64 result on every sync to keep 5 %
of it.  Rows are selected independently, so the row is the unit now, and

8. sparsifying kernels select one row at a time: under ``compression/`` no
   call to ``argpartition`` / ``partition`` passes ``axis=``, the retired
   all-rows scratch names occur nowhere under ``src/``, ``argpartition`` has
   one call site (the reference path the packed-key selection falls through
   to), and ``_select_rows`` allocates its key scratch inside the call.

"How a grid's axes become cells, and how a cell's coordinates travel with its
result" was once decided in a dozen places — five sweep helpers with three
point classes, a run table, a second on-disk format, and the CLI's own run
loops — and the copies drifted (two sketch geometries under one label, a
``--jobs`` that never saw two cells).  There is one lowering now, and

9. a grid is lowered in one place: under ``src/repro/`` ``SweepCell(`` is
   constructed only in ``experiments/sweep.py``; ``cli.py`` neither imports
   ``build_cluster`` nor calls ``.execute(`` on anything; ``build_cluster(`` is
   called only by ``experiments/executor.py``, ``serving/harness.py`` and the
   package docstring's example; one function reads ``ExperimentSpec``'s axes;
   and the retired names occur nowhere under ``src/``, ``benchmarks/`` or
   ``examples/``.

The served coordinator once computed every arrival's local step on the spot,
one single-row engine call per event — three quarters of a served run.  It
settles produced steps together now, before anything reads them, and

10. served steps are computed in one place: under ``src/repro/serving/``
    exactly one call steps workers — ``engine.step_all``, in
    ``ServedFDATrainer._settle`` — and no source names ``step_worker`` or
    ``local_step``.

Momentum-free SGD once carried a private cache-blocked fork of its rule while
Adam streamed six ``(K, d)`` matrices end to end, and the sketch operator was
converted to CSR to be multiplied in hashed order.  A stacked update is
blocked in one place now, over whole rows, and

11. there is one blocking policy and one sketch representation: under
    ``src/repro/optim/`` only ``StackedOptimizer.step_rows`` reads
    ``ROW_BLOCK_ELEMENTS``, no identifier contains ``chunk``, ``Workspace``
    has no ``flat``; ``src/repro/sketch/ams.py`` contains no ``tocsr``.

The batched engine once had two holes, both copies: ``DenseBlock`` /
``TransitionDown`` had no kernel while five parameter-free kernels repeated
their sequential layers line for line, and FedProx / SCAFFOLD drove
``worker.local_epoch(gradient_transform=...)`` in private round loops that
went around the engine (and checkpointed nothing of what their server held).
Every layer has a kernel and every epoch is an engine epoch now, and

12. under ``src/repro/strategies/`` the only stepping calls are
    ``cluster.step_all`` and ``cluster.epoch_all``, the per-worker stepping
    names do not occur, and exactly one function runs the upload → new global
    model → broadcast sequence (``gather_models`` has one caller);
    ``nn/batched.py`` defines no ``Batched<parameter-free layer>`` class; and
    no class in ``nn/layers.py`` but ``Layer`` defines one of the six array
    accessors.

The model shared at the last synchronization was once held three times (FDA's
``w_{t0}``, the compression reference, the server round's global model) and
rotated in step by three owners; communication seconds and churn were each
booked twice.  Every fact has one owner now, and

13. under ``src/`` nothing names the retired copies (``_reference`` other
    than ``_previous_reference``, ``_global_parameters``, ``set_reference``,
    ``enable_compression``, ``churn_events``, ``note_communication``);
    ``comm_seconds`` is accumulated only in ``distributed/topology.py`` (the
    fabric); the clock is moved by a collective only in ``Fabric.allreduce``
    and ``Fabric.broadcast`` (never by an upload) and rebound only by the
    served coordinator's profile swap; the cluster's shared-model
    attribute is assigned only in ``SimulatedCluster.broadcast_parameters``,
    ``synchronize`` and ``load_state_dict`` (and set to ``None`` in
    ``__init__``); and the compressed sync installs nothing and counts
    nothing — ``SimulatedCluster.synchronize`` does both, for both paths.

The ``K`` rows of a pass run on every core now, as row shards on one thread
pool that must be dropped on fork and must never run a public method, and

14. threads start in one module: under ``src/`` only ``backend.py`` imports
    ``threading``, ``_thread``, ``contextvars`` or a thread pool.

A worker's local state was once four classes with three hand-copied averages,
a tagged checkpoint serializer, and two private per-worker tables (the
lockstep trainer's stale states, the coordinator's latest updates).  A local
state is one float64 row ``[‖u‖² | payload]`` of the protocol's ``(K, s)``
table now, and

15. the retired names occur nowhere under ``src/``; only ``core/monitor.py``
    defines ``local_state``, ``local_states`` or ``average``; and outside it
    nothing indexes a state table's columns or reduces a state table itself —
    rows are built and averaged by the monitor alone.

The fabric once priced a message two ways: the star handed its total to a
scalar cost model with two schemes, every other topology summed its link
loads, and on a ring the two roundings disagreed.  A message costs what its
links carry now, and

16. the retired pricing names occur nowhere under ``src/``;
    ``Fabric.allreduce`` / ``broadcast`` / ``upload`` contain no branch; and
    ``record_transfer`` has one caller, ``Fabric._charge``.

Every check above retires names, and the prose kept spelling them, so

17. every retired-name list of checks 4, 7, 8, 9, 13, 15, 16 and 18 is run
    over ``ARCHITECTURE.md`` and ``docs/`` as well.  (The names of checks 10–12 are
    retired only inside one package — ``engine.step_worker`` still exists —
    so the prose may name them.)

Public surface that nothing uses is code to keep in step for no caller, so

18. every public function, class and method under ``src/`` is referenced by
    the code — its syntax tree, not its comments — of ``src/``, ``bench/``,
    ``benchmarks/`` or ``examples/``, or sits on
    :data:`UNREFERENCED_ALLOWLIST` with a reason.  A method name two unrelated
    classes define counts only for the class an access can reach, and an
    import in a package ``__init__.py`` under ``src/`` is a re-export, not a
    caller.  The surface this check deleted — learning-rate and τ schedules,
    the unused FedOpt variants, the ``with_*`` copy wrappers, the test-only
    names, the second engine with its knob, its per-worker step and the
    solo optimizer path that only it ran, and the cluster's charge adapters
    with the two knobs only one value reached, the strategies' topology
    lists and the fabric spec, the fault plane's straggler spikes and payload
    corruption with its retry knobs, the run budget's train-accuracy
    sample count, and the loss seam with its label smoothing, the layers'
    bias switch and the epoch loader's ``drop_last`` — is spelled nowhere
    under ``src/``.

Which planes compose was once decided in five modules, and five compositions
were silently dropped.  Every cross-plane rule is one row of
:data:`repro.composition.RULES` now, and

19. a ``raise`` whose message names a ROADMAP item occurs only in
    ``composition.py`` — a pending composition is a table row, not a local
    ``if``/``raise``.

A config field or constructor parameter only tests set is a knob no workload
turns.  The fault plan once carried seven of them, and a loss seam, bias-free
layers, ``drop_last``, quantization levels and the Adam / batch-norm constants
rode on constructors, so

20. every constructor parameter of the run-shaping classes
    (:data:`CONFIG_CLASSES`: the config dataclasses' fields, the workload, the
    loss, layers, loaders, compressors, optimizers, server-round strategies,
    worker and cluster) is passed, by keyword, by position or through an
    unpacked dict literal, to its class by some call in the code of ``src/``,
    ``bench/``, ``benchmarks/`` or ``examples/``, or sits on
    :data:`UNSET_FIELD_ALLOWLIST` with a reason.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.compression import CompressionConfig, LayerwiseTopKCompressor, QuantizationCompressor
from repro.core.timeline import StragglerProfile
from repro.data.loaders import EpochIterator
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.experiments.setup import WorkloadConfig
from repro.faults import FaultPlan
from repro.nn.layers import BatchNorm, Conv2D, Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.optim.adam import Adam, AdamW
from repro.optim.server import FedAdam, FedAvgM
from repro.optim.sgd import SGD
from repro.population import PopulationConfig
from repro.serving import ServingConfig
from repro.strategies.drift_control import FedProxStrategy, ScaffoldStrategy
from repro.strategies.fedopt import FedOptStrategy

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: The optimizer state attributes; spelled nowhere outside ``optim/``.
_MOMENT_NAMES = re.compile(r"_velocity|\b_m\b|\b_v\b")

#: The cluster's former answers to "which rows count, and how much".
_RETIRED_PARTICIPATION_NAMES = re.compile(
    r"alive_mask|population_mask|_faulted_active|aggregation_weights|renormalized_weights"
)

#: Reads of the injector's liveness vector, and how many each module may hold.
_LIVENESS_READ = re.compile(r"faults\.alive\b")
LIVENESS_READERS = {"distributed/cluster.py": 1, "core/fda.py": 1}

#: Modules that consume other objects' state and must go through their
#: public serialisers.
STATE_CONSUMERS = (
    "faults/checkpoint.py",
    "population/plane.py",
    "strategies/fda_strategy.py",
    "strategies/fedopt.py",
    "strategies/drift_control.py",
)

#: ``(module, expression)`` foreign-private accesses tolerated in
#: :data:`STATE_CONSUMERS`.  Empty, and meant to stay so; an entry must say
#: why the owner cannot serve the access.
FOREIGN_PRIVATE_ALLOWLIST: set = set()


def _sources():
    for path in sorted(SRC_ROOT.rglob("*.py")):
        yield path.relative_to(SRC_ROOT).as_posix(), path.read_text(encoding="utf-8")


def test_optimizer_moments_are_named_only_in_optim():
    offenders = [
        f"src/repro/{module}:{number}: {line.strip()}"
        for module, source in _sources()
        if not module.startswith("optim/")
        for number, line in enumerate(source.splitlines(), 1)
        if _MOMENT_NAMES.search(line)
    ]
    assert not offenders, (
        "optimizer state enumerated outside optim/ — use Optimizer.state_arrays "
        "/ state_dict / load_state_dict / zero_state:\n" + "\n".join(offenders)
    )


def test_retired_participation_names_are_gone():
    offenders = [
        f"src/repro/{module}:{number}: {line.strip()}"
        for module, source in _sources()
        for number, line in enumerate(source.splitlines(), 1)
        if _RETIRED_PARTICIPATION_NAMES.search(line)
    ]
    assert not offenders, (
        "a second answer to 'which rows count' — read cluster.members / "
        "cluster.participants (a Participation) instead:\n" + "\n".join(offenders)
    )


def test_liveness_is_read_by_its_owner_one_composer_and_the_stale_state_rule():
    reads = {
        module: len(_LIVENESS_READ.findall(source))
        for module, source in _sources()
        if not module.startswith("faults/") and _LIVENESS_READ.search(source)
    }
    assert reads == LIVENESS_READERS, (
        "faults.alive is folded into cluster.members once; everything else "
        f"reads the Participation.  Expected {LIVENESS_READERS}, found {reads}"
    )


def test_one_event_heap_and_one_reference_rotation():
    heap_users = sorted(
        module
        for module, source in _sources()
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(a.name == "heapq" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "heapq")
    )
    assert heap_users == ["core/timeline.py"], (
        "a second event heap — schedule the events on the cluster's Timeline "
        f"(Timeline.schedule / pop_event) instead: {heap_users}"
    )
    rotations = [
        module
        for module, source in _sources()
        for _ in range(source.count("_previous_reference = self.cluster.shared_parameters"))
    ]
    assert rotations == ["core/fda.py"], (
        "the reference rotation belongs to FDAProtocol._complete_synchronization "
        f"alone, found it in {rotations}"
    )


#: The retired spellings of an optimizer's arithmetic and of the switch
#: between them.
_RETIRED_UPDATE_FUNCTIONS = {"_update", "_update_inplace", "_stacked_update"}
_RETIRED_UPDATE_STRINGS = ("_update_inplace", "inplace=False")
RULE = "_update_rows"


def _class_methods(module: str, class_name: str):
    tree = ast.parse((SRC_ROOT / module).read_text(encoding="utf-8"))
    (cls,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)]


def test_each_optimizer_has_one_rule_and_every_path_ends_in_it(monkeypatch):
    offenders = [
        f"src/repro/{module}:{node.lineno}: def {node.name}"
        for module, source in _sources()
        if module.startswith("optim/")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name in _RETIRED_UPDATE_FUNCTIONS
    ]
    assert not offenders, (
        "a second spelling of an optimizer's arithmetic — extend the row rule "
        f"({RULE}) instead:\n" + "\n".join(offenders)
    )
    for module, class_name in (
        ("optim/sgd.py", "SGD"),
        ("optim/adam.py", "Adam"),
        ("optim/adam.py", "AdamW"),
    ):
        arithmetic = [
            method.name
            for method in _class_methods(module, class_name)
            if {"params", "grads"} <= {argument.arg for argument in method.args.args}
        ]
        assert arithmetic == [RULE], (
            f"{class_name} must define exactly one method over (params, grads), "
            f"the rule {RULE}; found {arithmetic}"
        )
    (constructor,) = [
        method
        for method in _class_methods("distributed/worker.py", "Worker")
        if method.name == "__init__"
    ]
    assert "inplace" not in {argument.arg for argument in constructor.args.args}
    spelled = [
        f"src/repro/{module}: {retired}"
        for module, source in _sources()
        for retired in _RETIRED_UPDATE_STRINGS
        if retired in source
    ]
    assert not spelled, "the retired update paths are named again:\n" + "\n".join(spelled)

    # Every way of stepping ends in the rule: count its calls under a spy —
    # one per row shard of a stacked step (a 4-wide shard is one block).
    import numpy as np

    from helpers.shards import whole_then_sharded
    from repro.data.datasets import Dataset
    from repro.distributed.cluster import SimulatedCluster
    from repro.distributed.worker import Worker
    from repro.nn.architectures import mlp
    from repro.optim.base import StackedOptimizer
    from repro.optim.sgd import SGD

    calls = []
    rule = SGD._update_rows

    def spy(self, workspace, params, *rest):
        calls.append(params.shape)
        rule(self, workspace, params, *rest)

    def rule_calls(step):
        del calls[:]
        step()
        return sorted(calls)

    monkeypatch.setattr(SGD, RULE, spy)
    for sharded in whole_then_sharded(monkeypatch):
        optimizers = [SGD(0.1, momentum=0.9) for _ in range(3)]
        stacked = StackedOptimizer(optimizers, 4)
        params, grads = np.ones((3, 4)), np.ones((3, 4))
        live = rule_calls(lambda: stacked.step_rows(params, grads))
        masked = rule_calls(
            lambda: stacked.step_rows(params[1:].copy(), grads[1:].copy(), np.array([1, 2]))
        )
        assert (live, masked) == (
            ([(1, 4)] * 3, [(1, 4)] * 2) if sharded else ([(3, 4)], [(2, 4)])
        )
        one_row = rule_calls(
            lambda: stacked.step_rows(params[:1].copy(), grads[:1].copy(), np.array([0]))
        )
        assert one_row == [(1, 4)]

    rng = np.random.default_rng(0)
    dataset = Dataset(rng.normal(size=(8, 4)), rng.integers(0, 2, size=8), 2)
    workers = [
        Worker(k, mlp(4, 2, hidden_units=(3,), seed=0), dataset, SGD(0.1), batch_size=4)
        for k in range(2)
    ]
    cluster = SimulatedCluster(workers)
    del calls[:]
    cluster.engine.step_worker(1)
    assert calls == [(1, cluster.model_dimension)]


#: The all-rows top-k kernel's cached ``(K, d)`` scratch and the helper that
#: filled it.
_RETIRED_SELECTION_NAMES = re.compile(r"_magnitude_scratch|_negated_magnitudes")


def test_sparsifying_kernels_select_one_row_at_a_time():
    offenders = [
        f"src/repro/{module}:{node.lineno}: {ast.get_source_segment(source, node.func)}(… axis=)"
        for module, source in _sources()
        if module.startswith("compression/")
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("argpartition", "partition")
        and any(keyword.arg == "axis" for keyword in node.keywords)
    ]
    assert not offenders, (
        "an all-rows partition materialises (K, d) index temporaries — select "
        "through kernels._select_rows, one row at a time:\n" + "\n".join(offenders)
    )
    spelled = [
        f"src/repro/{module}:{number}: {line.strip()}"
        for module, source in _sources()
        for number, line in enumerate(source.splitlines(), 1)
        if _RETIRED_SELECTION_NAMES.search(line)
    ]
    assert not spelled, "the (K, d) selection scratch is named again:\n" + "\n".join(spelled)
    sources = dict(_sources())
    reference = [
        f"src/repro/{module}:{line}"
        for module, source in sources.items()
        if module.startswith("compression/")
        for line in _calls(source, "argpartition")
    ]
    assert len(reference) == 1, f"one reference selection path, found {reference}"
    kernels = sources["compression/kernels.py"]
    (select_rows,) = [
        node
        for node in ast.walk(ast.parse(kernels))
        if isinstance(node, ast.FunctionDef) and node.name == "_select_rows"
    ]
    key_lines = [
        node.lineno
        for node in ast.walk(ast.parse(kernels))
        if isinstance(node, ast.Attribute) and node.attr == "uint64"
    ]
    assert key_lines and all(
        select_rows.lineno <= line <= select_rows.end_lineno for line in key_lines
    ), "the packed-key scratch is allocated inside _select_rows, per call"


#: The five sweep helpers' survivors-by-name, the typed points, the run table
#: and the second file format.
_RETIRED_GRID_NAMES = re.compile(
    r"\b(sweep_theta|sweep_workers|sweep_fabric|sweep_compression|sweep_strategies"
    r"|run_fabric_spec|run_compression_spec|FabricSweepPoint|CompressionSweepPoint"
    r"|RunTableSpec|save_sweep|load_sweep|save_results|load_results|point_type)\b"
)
_SPEC_AXES = {"fda_thetas", "worker_counts", "compressions"}


def _calls(source: str, name: str):
    """Line numbers of every call whose callee is named ``name`` (bare or attribute)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def test_a_grid_is_lowered_in_one_place():
    sources = dict(_sources())
    builders = {module for module, source in sources.items() if _calls(source, "SweepCell")}
    assert builders == {"experiments/sweep.py"}, (
        "a second lowering — build cells with repro.experiments.sweep.lower_grid / "
        f"lower_spec instead: SweepCell( constructed in {sorted(builders)}"
    )
    cluster_builders = {
        module for module, source in sources.items() if _calls(source, "build_cluster")
    }
    assert cluster_builders == {"experiments/executor.py", "serving/harness.py"}, (
        "'build a cluster, execute a run' belongs to the sweep executor (and the "
        f"serving harness): build_cluster( called in {sorted(cluster_builders)}"
    )
    cli = sources["cli.py"]
    assert "build_cluster" not in cli, "cli.py runs cells through run_grid, not build_cluster"
    assert not _calls(cli, "execute"), (
        f"cli.py:{_calls(cli, 'execute')}: commands hand cells to run_grid / execute_cells; "
        "they do not drive a TrainingRun (or an executor) themselves"
    )
    # One function interprets an ExperimentSpec's declared axes ...
    readers = {
        (module, function.name)
        for module, source in sources.items()
        for function in ast.walk(ast.parse(source))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and node.attr in _SPEC_AXES
        and getattr(node.value, "id", None) == "spec"
    }
    assert readers == {("experiments/sweep.py", "lower_spec")}, readers
    # ... and the commands and benchmark helpers that run specs all call it.
    callers = {
        "src/repro/cli.py": 2,  # figureN, compression
        "benchmarks/conftest.py": 1,
        "benchmarks/sweep_helpers.py": 1,
    }
    for path, expected in callers.items():
        found = len(_calls((REPO_ROOT / path).read_text(encoding="utf-8"), "lower_spec"))
        assert found == expected, f"{path} calls lower_spec {found}x, expected {expected}"
    spelled = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}"
        for root in ("src", "benchmarks", "examples")
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if _RETIRED_GRID_NAMES.search(line)
    ]
    assert not spelled, "a retired sweep helper is named again:\n" + "\n".join(spelled)
    assert not (SRC_ROOT / "experiments" / "runtable.py").exists()


_STEPPING_CALLS = {
    "step_all", "step_worker", "epoch_all", "epoch_worker", "local_step", "local_epoch",
}


def test_served_steps_are_computed_in_one_place():
    serving = [(m, source) for m, source in _sources() if m.startswith("serving/")]
    steppers = [
        (module, function.name, ast.get_source_segment(source, node.func))
        for module, source in serving
        for function in ast.walk(ast.parse(source))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _STEPPING_CALLS
    ]
    assert steppers == [("serving/harness.py", "_settle", "self.cluster.engine.step_all")], (
        "served steps are computed by ServedFDATrainer._settle alone, as masked rows "
        f"of one engine.step_all: {steppers}"
    )
    spelled = [
        f"src/repro/{module}:{number}: {line.strip()}"
        for module, source in serving
        for number, line in enumerate(source.splitlines(), 1)
        if re.search(r"\b(step_worker|local_step)\b", line)
    ]
    assert not spelled, "the per-event stepping path is named again:\n" + "\n".join(spelled)


def _calls_by_function(module_prefix: str):
    """``(module, function, receiver, method)`` of every ``x.method(...)`` call."""
    for module, source in _sources():
        if module.startswith(module_prefix):
            for function in ast.walk(ast.parse(source)):
                if isinstance(function, ast.FunctionDef):
                    for node in ast.walk(function):
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                            receiver = ast.get_source_segment(source, node.func.value)
                            yield module, function.name, receiver, node.func.attr


def test_every_layer_has_a_kernel_and_every_epoch_is_an_engine_epoch():
    calls = list(_calls_by_function("strategies/"))
    steppers = {(receiver, method) for _, _, receiver, method in calls if method in _STEPPING_CALLS}
    assert steppers == {("cluster", "step_all"), ("cluster", "epoch_all")}, (
        f"a strategy steps workers through the cluster's engine, nothing else: {steppers}"
    )
    spelled = [
        f"src/repro/{module}:{number}: {line.strip()}"
        for module, source in _sources()
        if module.startswith("strategies/")
        for number, line in enumerate(source.splitlines(), 1)
        if re.search(r"\b(local_step|local_epoch|step_worker|epoch_worker)\b", line)
    ]
    assert not spelled, "a per-worker stepping path is named again:\n" + "\n".join(spelled)

    def callers(method):
        return sorted({(module, function) for module, function, _, name in calls if name == method})

    assert callers("gather_models") == [("strategies/fedopt.py", "_upload")]
    assert callers("_new_global") == [("strategies/fedopt.py", "_run_round")]
    assert callers("broadcast_parameters") == [
        ("strategies/base.py", "attach"), ("strategies/fedopt.py", "_run_round"),
    ], "one function runs upload → new global model → broadcast: ServerRoundStrategy._run_round"
    assert "_upload" in {
        name for module, function, _, name in calls
        if (module, function) == ("strategies/fedopt.py", "_run_round")
    }

    folded = {"MaxPool2D", "AvgPool2D", "GlobalAvgPool2D", "Flatten", "Activation"}
    batched = ast.parse((SRC_ROOT / "nn" / "batched.py").read_text(encoding="utf-8"))
    copies = sorted(
        node.name for node in ast.walk(batched)
        if isinstance(node, ast.ClassDef) and node.name.removeprefix("Batched") in folded
    )
    assert not copies, f"a parameter-free layer is FoldedKernel, not a copied kernel: {copies}"

    accessors = {
        "parameters", "gradients", "buffers", "parameter_refs", "gradient_refs", "buffer_refs",
    }
    layers = ast.parse((SRC_ROOT / "nn" / "layers.py").read_text(encoding="utf-8"))
    handwritten = sorted(
        f"{cls.name}.{method.name}"
        for cls in ast.walk(layers)
        if isinstance(cls, ast.ClassDef) and cls.name != "Layer"
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name in accessors
    )
    assert not handwritten, (
        "a layer declares PARAMETERS / BUFFERS / sublayers(); Layer derives the "
        f"accessors: {handwritten}"
    )


def _block_size_reads(tree) -> int:
    return sum(
        getattr(node, "id", getattr(node, "attr", None)) == "ROW_BLOCK_ELEMENTS"
        and isinstance(node.ctx, ast.Load)
        for node in ast.walk(tree)
    )


def test_one_blocking_policy_and_one_sketch_representation():
    identifiers = set()
    reads = {}
    for module, source in _sources():
        if module.startswith("optim/"):
            tree = ast.parse(source)
            reads[module] = _block_size_reads(tree)
            for node in ast.walk(tree):
                identifiers.update(
                    getattr(node, field)
                    for field in ("id", "attr", "arg", "name")
                    if isinstance(getattr(node, field, None), str)
                )
    (step_rows,) = [
        method
        for method in _class_methods("optim/base.py", "StackedOptimizer")
        if method.name == "step_rows"
    ]
    inside = _block_size_reads(step_rows)
    assert inside >= 1 and {m: n for m, n in reads.items() if n} == {"optim/base.py": inside}, (
        "a stacked update is cache-blocked by StackedOptimizer.step_rows alone; "
        f"ROW_BLOCK_ELEMENTS is read {reads}, {inside} of them in step_rows"
    )
    chunked = sorted(name for name in identifiers if "chunk" in name.lower())
    assert not chunked, f"a private blocking scheme under optim/: {chunked}"
    assert "flat" not in {method.name for method in _class_methods("optim/base.py", "Workspace")}
    assert "tocsr" not in (SRC_ROOT / "sketch" / "ams.py").read_text(encoding="utf-8"), (
        "the sketch operator is applied as the CSC it is assembled as"
    )


#: Modules (and names) that start threads or hand work to them.
_THREAD_MODULES = {"threading", "_thread", "contextvars", "multiprocessing.dummy", "multiprocessing.pool"}
_THREAD_NAMES = {"ThreadPoolExecutor", "ThreadPool"}


def test_threads_start_in_one_module():
    importers = sorted(
        f"src/repro/{module}:{node.lineno}"
        for module, source in _sources()
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and {a.name for a in node.names} & _THREAD_MODULES)
        or (
            isinstance(node, ast.ImportFrom)
            and (node.module in _THREAD_MODULES or {a.name for a in node.names} & _THREAD_NAMES)
        )
    )
    owner = [line for line in importers if line.startswith("src/repro/backend.py:")]
    assert owner and importers == owner, (
        "threads start in repro.backend alone — split a pass with "
        f"backend.row_shards / run_shards instead: {importers}"
    )


def test_no_private_imports_across_modules():
    offenders = []
    for module, source in _sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        offenders.append(
                            f"src/repro/{module}:{node.lineno}: "
                            f"from {node.module} import {alias.name}"
                        )
    assert not offenders, (
        "a _private name imported from another module — make it public where "
        "it is owned, or call the owner:\n" + "\n".join(offenders)
    )


def _foreign_private_accesses():
    """Every ``obj._name`` in the state consumers whose ``obj`` is not self/cls."""
    for module in STATE_CONSUMERS:
        source = (SRC_ROOT / module).read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                and ast.get_source_segment(source, node.value) != "super()"
            ):
                yield module, ast.get_source_segment(source, node), node.lineno


def test_state_consumers_touch_no_foreign_private_attribute():
    offenders = [
        f"src/repro/{module}:{line}: {expression}"
        for module, expression, line in _foreign_private_accesses()
        if (module, expression) not in FOREIGN_PRIVATE_ALLOWLIST
    ]
    assert not offenders, (
        "a state consumer reaches into another object's _private attribute — "
        "ask the owner (state_dict / load_state_dict / capture_slot …), or add "
        "the access to FOREIGN_PRIVATE_ALLOWLIST with a reason:\n" + "\n".join(offenders)
    )


def test_allowlist_entries_are_live():
    """Stale allowlist entries hide future regressions — prune them."""
    live = {(module, expression) for module, expression, _ in _foreign_private_accesses()}
    stale = set(FOREIGN_PRIVATE_ALLOWLIST) - live
    assert not stale, f"FOREIGN_PRIVATE_ALLOWLIST names vanished code: {stale}"
    missing = [module for module in STATE_CONSUMERS if not (SRC_ROOT / module).exists()]
    assert not missing, f"STATE_CONSUMERS names deleted modules: {missing}"


#: The retired second copies of the shared model, the comm-seconds ledger and
#: the churn ledger, and the compression side door.
_RETIRED_COPY_NAMES = re.compile(
    r"\b(_reference|_global_parameters|set_reference|enable_compression"
    r"|churn_events|note_communication)\b"
)


def _assigned_attributes(tree, attribute: str, augmented: bool):
    """``function`` name of every (augmented) assignment to ``<x>.attribute``."""
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if augmented and isinstance(node, ast.AugAssign):
                    targets = [node.target]
                elif not augmented and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                else:
                    continue
                if any(getattr(t, "attr", None) == attribute for t in targets):
                    yield function.name


def test_one_owner_per_fact():
    spelled = [
        f"src/repro/{module}:{number}: {line.strip()}"
        for module, source in _sources()
        for number, line in enumerate(source.splitlines(), 1)
        if _RETIRED_COPY_NAMES.search(line)
    ]
    assert not spelled, (
        "a second owner of the shared model, the communication seconds or the "
        "churn record — read cluster.shared_parameters / fabric.comm_seconds / "
        "faults.log instead:\n" + "\n".join(spelled)
    )
    trees = {module: ast.parse(source) for module, source in _sources()}
    accumulators = sorted(
        module for module, tree in trees.items()
        if any(_assigned_attributes(tree, "comm_seconds", augmented=True))
    )
    assert accumulators == ["distributed/topology.py"], (
        f"communication seconds are booked by the Fabric alone: {accumulators}"
    )
    writers = sorted(
        (module, function)
        for module, tree in trees.items()
        for function in _assigned_attributes(tree, "_shared_parameters", augmented=False)
    )
    assert writers == [
        ("distributed/cluster.py", name)
        for name in ("__init__", "broadcast_parameters", "load_state_dict", "synchronize")
    ], f"the shared model is written by broadcast and sync alone: {writers}"
    clock_movers = sorted(
        (module, function, receiver)
        for module, function, receiver, method in _calls_by_function("")
        if method == "add_communication"
    )
    assert clock_movers == [
        ("distributed/topology.py", "allreduce", "self.clock"),
        ("distributed/topology.py", "broadcast", "self.clock"),
    ], f"a collective's seconds move the clock in Fabric.allreduce / broadcast alone: {clock_movers}"
    clock_binders = sorted(
        (module, function)
        for module, tree in trees.items()
        for function in _assigned_attributes(tree, "clock", augmented=False)
    )
    assert clock_binders == [("serving/harness.py", "__init__")], (
        f"the fabric's clock is rebound by the served coordinator's profile alone: {clock_binders}"
    )
    compressed_sync = (SRC_ROOT / "compression" / "state.py").read_text(encoding="utf-8")
    installs = re.findall(
        r"synchronization_count|buffer_matrix|copyto|parameter_matrix\[", compressed_sync
    )
    assert not installs, (
        f"SimulatedCluster.synchronize installs and counts the compressed sync: {installs}"
    )


#: The retired local-state classes, their average and serializer, the two
#: private per-worker tables and the module that held them.
_RETIRED_STATE_NAMES = re.compile(
    r"\b(LocalState|LinearState|SketchState|ExactState|average_states|state_to_dict"
    r"|state_from_dict|_stale_states|_states_under_churn)\b|repro\.core\.state\b"
)
_ROW_BUILDERS = {"local_state", "local_states", "average"}


def _state_name(source: str, node) -> bool:
    segment = ast.get_source_segment(source, node) or ""
    return re.search(r"states?$", segment) is not None


def test_a_local_state_is_a_row_built_by_the_monitor_alone():
    spelled = [
        f"src/repro/{module}:{number}: {line.strip()}"
        for module, source in _sources()
        for number, line in enumerate(source.splitlines(), 1)
        if _RETIRED_STATE_NAMES.search(line)
    ]
    assert not spelled, (
        "a local state is a row of the protocol's table — the retired state "
        "classes and tables are named again:\n" + "\n".join(spelled)
    )
    assert not (SRC_ROOT / "core" / "state.py").exists()

    builders, offenders = set(), []
    for module, source in _sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name in _ROW_BUILDERS:
                builders.add(module)
            if module == "core/monitor.py":
                continue
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Tuple)
                and _state_name(source, node.value)
            ):
                offenders.append(f"src/repro/{module}:{node.lineno}: column access")
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                in ("average", "mean", "sum")
                and any(_state_name(source, argument) for argument in node.args)
                and not (ast.get_source_segment(source, node.func) or "").endswith(
                    "monitor.average"
                )
            ):
                offenders.append(f"src/repro/{module}:{node.lineno}: reduction of a state table")
    assert builders == {"core/monitor.py"}, (
        f"local_state / local_states / average are the monitor's: defined in {sorted(builders)}"
    )
    assert not offenders, (
        "a state row's layout is the monitor's — build rows with local_states and "
        "average them with monitor.average:\n" + "\n".join(offenders)
    )


#: The scalar cost model, its schemes and constants, the star's fork on it
#: and the knob that installed one.
_RETIRED_PRICING_NAMES = re.compile(
    r"\b(CommunicationCostModel|NAIVE_COST_MODEL|RING_COST_MODEL|BYTES_PER_ELEMENT"
    r"|paper_accounting|cost_model|allreduce_bytes|broadcast_bytes|for_dtype"
    r"|bytes_per_element)\b"
)


def test_a_message_costs_what_its_links_carry():
    spelled = [
        f"src/repro/{module}:{number}: {line.strip()}"
        for module, source in _sources()
        for number, line in enumerate(source.splitlines(), 1)
        if _RETIRED_PRICING_NAMES.search(line)
    ]
    assert not spelled, (
        "a second pricing rule — the Fabric prices every link at its itemsize "
        "and sums the links:\n" + "\n".join(spelled)
    )
    branches = [
        f"Fabric.{method.name}:{node.lineno}"
        for method in _class_methods("distributed/topology.py", "Fabric")
        if method.name in ("allreduce", "broadcast", "upload")
        for node in ast.walk(method)
        if isinstance(node, (ast.If, ast.IfExp, ast.BoolOp, ast.Match))
    ]
    assert not branches, f"a collective is priced one way on every topology: {branches}"
    recorders = [
        (module, function, receiver)
        for module, function, receiver, method in _calls_by_function("")
        if method == "record_transfer"
    ]
    assert recorders == [("distributed/topology.py", "_charge", "self.tracker")], (
        f"a collective's total is booked by Fabric._charge alone: {recorders}"
    )


#: The public surface nothing ran, deleted by check 18: learning-rate and τ
#: schedules, the unused FedOpt variants, the validation helpers, the
#: ``with_*`` copy wrappers and the test-only names; then the second engine
#: (its class, the base class, the factory, the knob's values and flag) and
#: the per-worker and solo optimizer steps only it ran — the per-worker loop
#: lives on as the test oracle, ``tests/helpers/per_worker.py``; then the
#: cluster's adapters over the fabric's collectives and the two knobs
#: (``synchronize``'s and ``broadcast_parameters``') only one value reached; then
#: the Θ controller, the FDA strategy's knob for it and the moving Θ it
#: reported; then straggler spikes and payload corruption (the plan fields,
#: the injector's draws, streams and log entries, the cluster's hooks and the
#: timeline's stall) with the plan's three retry knobs, and the run budget's
#: train-accuracy sample count; then the checkpoint's base64 value codec; then
#: the served load options no workload sent — fixed-rate and trace arrivals,
#: the block and shed queues, the polynomial rule, the queue's depth log —
#: and the workload's straggler profile.
#: ``FedAvg`` counts only spelled as code (```FedAvg```, ``server.FedAvg``, ``FedAvg(``),
#: so the algorithm's name in prose and ``FedAvgM`` do not match.
_RETIRED_SURFACE_NAMES = re.compile(
    r"\b(LearningRateSchedule|ConstantSchedule|StepDecaySchedule|ExponentialDecaySchedule"
    r"|CosineDecaySchedule|resolve_schedule|TauSchedule|fixed_tau|increasing_tau"
    r"|decreasing_tau|post_local_sgd_tau|current_tau|FedAdagrad|FedYogi"
    r"|_AdaptiveServerOptimizer|check_positive|check_positive_int|check_fraction"
    r"|check_probability|spawn_rngs|confusion_matrix|top_k_accuracy|constant_init"
    r"|MeanSquaredError|kde_density|staleness_weights|with_fabric|with_timeline"
    r"|with_execution|with_compression|with_dtype|with_faults|with_serving|_KEEP"
    r"|sync_buffers|get_gradients|serve_next|ClientDescriptor"
    r"|local_epoch|SequentialEngine|ClusterEngine|build_engine|EXECUTION_MODES"
    r"|step_inplace|local_step|is_batched|charge_allreduce|charge_broadcast|charge_upload"
    r"|count_cost|include_buffers|DynamicThetaController|theta_controller"
    r"|current_threshold|supported_topologies|fabric_sweep|straggler_spike_rate"
    r"|straggler_spike_factor|corruption_rate|corruption_scale|max_retries"
    r"|backoff_base_seconds|backoff_cap_seconds|sample_straggler_spike"
    r"|record_straggler_spike|straggler_spikes|corrupt_rows|corrupted_payloads"
    r"|straggler_active|corruption_active|_maybe_spike|_maybe_corrupt"
    r"|train_eval_samples|Loss|label_smoothing|_target_distribution|use_bias|drop_last"
    r"|encode_value|decode_value"
    r"|DeterministicArrivals|TraceArrivals|from_jsonl|trace_path|QUEUE_POLICIES"
    r"|updates_shed|updates_blocked_peak|blocked_peak|poly_alpha|depth_samples"
    r"|compute_profile"
    r")\b|--execution\b|--trace\b|--queue-policy\b|--poly-alpha\b"
    r"|\.in_flight\b|\.blocked\b|\.shed\b|\"(?:deterministic|trace|block|shed|polynomial)\""
    r"|Timeline\.stall\b|\.stall\("
    r"|faults/stragglers\b|faults/corruption\b"
    r"|repro\.utils\.validation|\.perturbed\b|\.shuffled\(|\.evict\("
    r"|(?<=[`.])FedAvg\b|\bFedAvg\("
)


def test_the_surface_nothing_ran_stays_deleted():
    spelled = [
        f"src/repro/{module}:{number}: {line.strip()}"
        for module, source in _sources()
        for number, line in enumerate(source.splitlines(), 1)
        if _RETIRED_SURFACE_NAMES.search(line)
    ]
    assert not spelled, (
        "deleted public surface is named again — every workload runs constant "
        "learning rates, a fixed τ, a fixed Θ and the FedAdam/FedAvgM baselines:\n"
        + "\n".join(spelled)
    )
    assert not (SRC_ROOT / "optim" / "schedules.py").exists()
    assert not (SRC_ROOT / "utils" / "validation.py").exists()


_NAMES_AN_ITEM = re.compile(r"ROADMAP item \d")


def test_a_pending_composition_is_refused_only_by_the_table():
    offenders = [
        f"src/repro/{module}:{node.lineno}"
        for module, source in _sources()
        if module != "composition.py"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and any(
            isinstance(part, ast.Constant)
            and isinstance(part.value, str)
            and _NAMES_AN_ITEM.search(part.value)
            for part in ast.walk(node)
        )
    ]
    assert not offenders, (
        "a refusal naming a ROADMAP item is raised outside repro/composition.py — "
        "add a row to composition.RULES and call check_composition instead:\n"
        + "\n".join(offenders)
    )


#: Every retired-name list above, keyed by its check.
RETIRED_NAME_LISTS = {
    "4 participation": _RETIRED_PARTICIPATION_NAMES,
    "7 update paths": re.compile(
        r"\b(" + "|".join(sorted(_RETIRED_UPDATE_FUNCTIONS)) + r")\b|inplace=False"
    ),
    "8 selection scratch": _RETIRED_SELECTION_NAMES,
    "9 grid helpers": _RETIRED_GRID_NAMES,
    "13 second owners": _RETIRED_COPY_NAMES,
    "15 state classes": _RETIRED_STATE_NAMES,
    "16 pricing": _RETIRED_PRICING_NAMES,
    "18 unused surface": _RETIRED_SURFACE_NAMES,
}
DOCUMENTS = [REPO_ROOT / "ARCHITECTURE.md", *sorted((REPO_ROOT / "docs").rglob("*.md"))]


@pytest.mark.parametrize("check", sorted(RETIRED_NAME_LISTS))
def test_retired_names_stay_retired_in_the_docs(check):
    spelled = [
        f"{path.relative_to(REPO_ROOT)}:{number}: {line.strip()}"
        for path in DOCUMENTS
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if RETIRED_NAME_LISTS[check].search(line)
    ]
    assert not spelled, f"check {check}: the docs name retired code:\n" + "\n".join(spelled)


#: Public names nothing outside ``tests/`` references, and why each stays.
#: Three reasons count: a ``bench/spans.py`` span target, a name read through
#: ``getattr``, and a production-side reference a test checks a fast path
#: against.
UNREFERENCED_ALLOWLIST = {
    "VarianceMonitor.local_state": "span target core.monitor.local_state (bench/spans.py)",
    "BatchedEngine.step_worker": "span target distributed.engine.step_worker (bench/spans.py)",
    "RunResult.seconds_per_round": "read through getattr by the CLI's s/round column",
    "AmsSketch.sketch": "one vector's sketch, the reference for the batched sketch_rows",
    "PercentileLedger.cdf_at": "the exact empirical rank the P² estimator is tested against",
    "model_variance": "the definitional variance the drift-based estimates are tested against",
    "Fabric.broadcast": "span target distributed.topology.broadcast (bench/spans.py)",
}
#: Where a public name counts as used.
REFERENCE_ROOTS = ("src", "bench", "benchmarks", "examples")


@lru_cache(maxsize=None)
def _parsed(path: Path) -> ast.Module:
    """The syntax tree of one source file, parsed once per test run."""
    return ast.parse(path.read_text(encoding="utf-8"))


def public_definitions(src_root: Path = SRC_ROOT):
    """``(module, qualified name)`` of every public function, class and method."""
    for path in sorted(src_root.rglob("*.py")):
        module = path.relative_to(src_root).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield module, node.name
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                            yield module, f"{node.name}.{member.name}"


class ModuleReferences(ast.NodeVisitor):
    """The names one module's code uses — identifiers, attributes, imports.

    Comments, docstrings and strings are not code, so a name they mention is
    not a reference.  Nor is an import in a package ``__init__.py`` under
    ``src/``: a re-export offers a name, it does not use it.  Every attribute
    access keeps its receiver's name and the class it sits in, so methods
    that share a short name can be told apart.
    """

    def __init__(self, path: Path, reexports: bool = False) -> None:
        self._reexports = reexports
        self.names = set()
        self.classes = {}  # class defined here -> the names of its bases
        self.accesses = []  # (attribute, receiver name, enclosing class)
        self._enclosing = [None]
        self.visit(_parsed(path))

    def visit_ClassDef(self, node):
        self.classes[node.name] = [ast.unparse(base).rsplit(".", 1)[-1] for base in node.bases]
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_alias(self, node):
        if not self._reexports:
            self.names.add(node.name.rsplit(".", 1)[-1])

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        receiver = node.value
        receiver = receiver.id if isinstance(receiver, ast.Name) else getattr(receiver, "attr", "")
        self.accesses.append((node.attr, receiver, self._enclosing[-1]))
        self.generic_visit(node)


def class_families(modules):
    """Class name → the classes related to it by inheritance (itself included)."""
    bases = {name: parents for refs in modules for name, parents in refs.classes.items()}
    family = {name: frozenset([name]) for name in bases}
    for name, parents in bases.items():
        for parent in parents:
            if parent in family:
                merged = family[name] | family[parent]
                family.update((member, merged) for member in merged)
    return family


def points_at(family, refs, receiver, enclosing) -> bool:
    """Whether an attribute access in ``refs`` can reach a class of ``family``.

    ``self.m`` reaches it from inside the family; any other ``x.m`` when its
    module names a class of the family, or when the receiver is named after
    one (``fabric.snapshot`` → ``Fabric``, ``self.compressor.state_dict`` →
    ``TopKCompressor``).
    """
    if receiver in ("self", "cls"):
        return enclosing in family
    words = {
        word.lower()
        for name in family
        for word in re.findall(r"[A-Z][a-z]+|[A-Z]+(?![a-z])", name)
    }
    return bool(
        family & (refs.names | set(refs.classes)) or words & set(receiver.lower().split("_"))
    )


def unreferenced_public_names(repo_root: Path = REPO_ROOT):
    """Public names under ``src/`` that no code under :data:`REFERENCE_ROOTS` uses.

    A function or class is used when an identifier, attribute or import names
    it — an import outside the ``__init__.py`` files of ``src/``, whose
    imports only re-export.  A method is used when an attribute access names it; when classes of
    two unrelated families define the same method name, the access must also
    be able to reach the method's family (:func:`points_at`).
    """
    modules = [
        ModuleReferences(path, reexports=root == "src" and path.name == "__init__.py")
        for root in REFERENCE_ROOTS
        for path in sorted((repo_root / root).rglob("*.py"))
    ]
    names = set().union(*(refs.names for refs in modules))
    family = class_families(modules)
    definitions = list(public_definitions(repo_root / "src" / "repro"))
    owners = {}  # method name -> the families that define it
    for _, name in definitions:
        if "." in name:
            owner, method = name.split(".")
            owners.setdefault(method, set()).add(family[owner])

    def used(name: str) -> bool:
        if "." not in name:
            return name in names
        owner, method = name.split(".")
        return any(
            len(owners[method]) == 1 or points_at(family[owner], refs, receiver, enclosing)
            for refs in modules
            for attribute, receiver, enclosing in refs.accesses
            if attribute == method
        )

    return sorted((module, name) for module, name in definitions if not used(name))


def test_every_public_name_has_a_caller_or_a_reason():
    unreferenced = unreferenced_public_names()
    offenders = [
        f"src/repro/{module}: {name}"
        for module, name in unreferenced
        if name not in UNREFERENCED_ALLOWLIST
    ]
    assert not offenders, (
        "public surface nothing uses — delete it, give it a caller, or add it to "
        "UNREFERENCED_ALLOWLIST with a reason:\n" + "\n".join(offenders)
    )
    stale = set(UNREFERENCED_ALLOWLIST) - {name for _, name in unreferenced}
    assert not stale, f"UNREFERENCED_ALLOWLIST names code that is gone or now used: {stale}"


def test_a_shared_method_name_is_not_a_caller(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "stores.py").write_text(
        "class Tracker:\n"
        "    def snapshot(self):\n"
        "        return {}\n"
        "\n"
        "class Store:\n"
        "    def snapshot(self):\n"
        "        return {}\n"
        "\n"
        "def helper():\n"
        "    return Tracker\n"
    )
    (package / "report.py").write_text(
        "from repro.stores import helper\n"
        "\n"
        "def report(tracker):\n"
        "    # Store.snapshot and unused() are mentioned in comments only.\n"
        "    return tracker.snapshot()\n"
        "\n"
        "def unused():\n"
        '    """Calls Store.report() in prose only."""\n'
    )
    assert unreferenced_public_names(tmp_path) == [
        ("report.py", "report"),
        ("report.py", "unused"),
        ("stores.py", "Store"),
        ("stores.py", "Store.snapshot"),
    ]


def test_a_package_reexport_is_not_a_caller(tmp_path):
    package = tmp_path / "src" / "repro" / "tools"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        '"""Tools."""\n'
        "from repro.tools.shapes import Circle, Square\n"
        "\n"
        '__all__ = ["Circle", "Square"]\n'
    )
    (package / "shapes.py").write_text("class Circle:\n    pass\n\n\nclass Square:\n    pass\n")
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text("from repro.tools import Circle\n\nCircle()\n")
    assert unreferenced_public_names(tmp_path) == [("tools/shapes.py", "Square")]



#: The classes whose constructor parameters shape a run: the config
#: dataclasses (a dataclass's parameters are its fields), the workload, the
#: loss, the layers, the epoch loader, the compressors, the local and server
#: optimizers, the server-round strategies, and the worker and cluster that
#: ``build_cluster`` assembles.
CONFIG_CLASSES = (
    FaultPlan, ServingConfig, StragglerProfile, CompressionConfig, PopulationConfig,
    WorkloadConfig, SoftmaxCrossEntropy, Dense, Conv2D, BatchNorm, EpochIterator,
    QuantizationCompressor, LayerwiseTopKCompressor, Adam, AdamW, SGD, FedAdam, FedAvgM,
    FedOptStrategy, FedProxStrategy, ScaffoldStrategy, Worker, SimulatedCluster,
)


def constructor_parameters(cls):
    """The names ``cls(...)`` takes, in order (``*args`` / ``**kwargs`` aside)."""
    return [
        parameter.name
        for parameter in inspect.signature(cls).parameters.values()
        if parameter.kind not in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD)
    ]


CONFIG_FIELDS = [
    f"{config.__name__}.{name}" for config in CONFIG_CLASSES for name in constructor_parameters(config)
]
#: ``Class.parameter`` that no call under :data:`REFERENCE_ROOTS` passes, and why each stays.
UNSET_FIELD_ALLOWLIST = {
    "PopulationConfig.act_prob": "the Bernoulli cohort's rate, which ROADMAP item 1b's "
    "FedDyn participation sets",
    "CompressionConfig.seed": "seeds random-k's coordinate stream, which the workload seed "
    "does not reach",
    "FedProxStrategy.local_epochs": "ROADMAP item 1b's FedDyn baseline runs E = 5 local "
    "epochs (SNIPPETS.md, fl_main)",
    "ScaffoldStrategy.local_epochs": "ROADMAP item 1b's FedDyn baseline runs E = 5 local "
    "epochs (SNIPPETS.md, fl_main)",
    "SGD.weight_decay": "the L2 term of the paper's DenseNet recipe (1e-4, optim/sgd.py), "
    "asked for as make_optimizer('sgd-nm', weight_decay=...)",
    "WorkloadConfig.dropout_rate": "set with dataclasses.replace (the CLI's --dropout-rate)",
    "WorkloadConfig.compression": "set with dataclasses.replace and as a lower_grid axis "
    "(the CLI's --compression, the registry's compression grids, bench overrides)",
    "WorkloadConfig.population": "set by with_population, which keeps num_workers equal "
    "to the cohort size",
}


def _dict_keys(node, displays):
    """The constant keys of a dict display or ``dict(...)`` call, following
    ``**name`` entries to the displays ``displays`` maps names to."""
    if isinstance(node, ast.Name):
        node = displays.get(node.id)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return [keyword.arg for keyword in node.keywords if keyword.arg]
    if not isinstance(node, ast.Dict):
        return []
    keys = []
    for key, value in zip(node.keys, node.values):
        if key is None:
            keys += _dict_keys(value, displays)
        elif isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
    return keys


@lru_cache(maxsize=None)
def fields_passed_by_callers(repo_root: Path = REPO_ROOT, configs=CONFIG_CLASSES):
    """``Class.parameter`` of ``configs`` that a call under :data:`REFERENCE_ROOTS` passes.

    A call counts when it names the class (``FaultPlan(...)``,
    ``faults.FaultPlan(...)``); its positional arguments fill the parameters
    in declaration order, and its keywords name theirs.  A ``**`` argument
    names the keys of the dict it unpacks when that is a literal display or
    ``dict(...)`` call, or a name one is assigned to in the same file.
    """
    parameters = {config.__name__: constructor_parameters(config) for config in configs}
    passed = set()
    for root in REFERENCE_ROOTS:
        for path in sorted((repo_root / root).rglob("*.py")):
            tree = _parsed(path)
            displays = {
                target.id: node.value
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in parameters:
                    named = [
                        name
                        for keyword in node.keywords
                        for name in (
                            [keyword.arg] if keyword.arg else _dict_keys(keyword.value, displays)
                        )
                    ]
                    passed.update(
                        f"{callee}.{name}" for name in parameters[callee][: len(node.args)] + named
                    )
    return frozenset(passed)


@pytest.mark.parametrize("field", CONFIG_FIELDS)
def test_every_config_field_is_set_by_a_caller(field):
    if field in UNSET_FIELD_ALLOWLIST:
        assert field not in fields_passed_by_callers(), (
            f"{field} has a caller now: take it off UNSET_FIELD_ALLOWLIST"
        )
    else:
        assert field in fields_passed_by_callers(), (
            f"no call under {', '.join(REFERENCE_ROOTS)} sets {field}: make it a constant, "
            "give it a caller, or add it to UNSET_FIELD_ALLOWLIST with a reason"
        )


def test_a_config_field_is_set_by_keyword_or_by_position(tmp_path):
    @dataclasses.dataclass(frozen=True)
    class Plan:
        rate: float = 0.0
        rounds: int = 1
        seed: int = 0
        label: str = ""

    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "from repro import plans\n"
        "\n"
        "# Plan(label='x') in a comment is not a call.\n"
        "first = Plan(0.5, 3)\n"
        "second = plans.Plan(seed=2)\n"
        'third = "Plan(label=1)"\n'
    )
    assert fields_passed_by_callers(tmp_path, (Plan,)) == {
        "Plan.rate", "Plan.rounds", "Plan.seed"
    }


def test_a_constructor_parameter_is_set_through_an_unpacked_dict(tmp_path):
    class Optimizer:
        def __init__(self, rate=0.1, momentum=0.0, decay=0.0, nesterov=False, name=None):
            del rate, momentum, decay, nesterov, name

    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "def factory(**kwargs):\n"
        '    defaults = {"momentum": 0.9}\n'
        "    return Optimizer(**{**defaults, **kwargs})\n"
        "\n"
        'first = Optimizer(**{"rate": 0.5, **dict(decay=0.1)})\n'
        "options = dict(nesterov=True)\n"
        "second = Optimizer(**options)\n"
    )
    assert fields_passed_by_callers(tmp_path, (Optimizer,)) == {
        "Optimizer.rate", "Optimizer.momentum", "Optimizer.decay", "Optimizer.nesterov"
    }
