"""Command-line interface: run any paper experiment from the terminal.

Examples::

    python -m repro.cli list
    python -m repro.cli table2
    python -m repro.cli figure3
    python -m repro.cli figure8 --full
    python -m repro.cli compare --workload lenet --theta 8 --workers 5
    python -m repro.cli compare --workload lenet --topology ring --network fl
    python -m repro.cli compare --workload lenet --compressor topk --compression-ratio 0.1 --error-feedback
    python -m repro.cli fabric --workload lenet --topologies star ring --networks fl hpc
    python -m repro.cli compression --full
    python -m repro.cli compare --workload lenet --crash-rate 0.1 --loss-rate 0.05
    python -m repro.cli faults --workload lenet --crash-rates 0 0.1 --loss-rates 0 0.05
    python -m repro.cli sweep --workload lenet --thetas 1 4 16 --seeds 0 1 --cache-dir runs/lenet --jobs 4

Every command that trains lowers its grid through
:mod:`repro.experiments.sweep` and runs it as one batch on the sweep executor;
the tables below it are one printer (``format_points_table``) over per-command
column lists.  ``figureN`` lowers the registry entry — the strategy comparison
per workload, then every grid the spec declares (Θ, K, …) — ``compare`` runs a
custom single comparison (FDA variants vs Synchronous vs the matching FedOpt
baseline) for one of the named workloads, optionally on a non-default fabric
or payload compression; ``fabric`` sweeps a topology ×
network grid and reports per-category bytes plus virtual wall-clock per round
for each cell; ``compression`` sweeps payload-compression settings and
reports how many model-sync bytes each kernel removes; ``faults`` crosses
crash and loss rates; ``sweep`` is the cached, resumable, parallel Θ × seed
grid.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import partial
from itertools import product
from typing import List, Optional

from repro.composition import allows
from repro.compression import NAMED_COMPRESSORS, CompressionConfig
from repro.core.monitor import VARIANTS
from repro.distributed.network import NAMED_NETWORKS
from repro.distributed.topology import NAMED_TOPOLOGIES
from repro.exceptions import ConfigurationError
from repro.experiments import registry
from repro.experiments.executor import SweepExecutor
from repro.experiments.reporting import (
    Column,
    format_comparison,
    format_points_table,
    format_results_table,
)
from repro.experiments.run import TrainingRun
from repro.experiments.sweep import lower_grid, lower_spec, run_grid, select
from repro.faults.plan import FaultPlan
from repro.population.config import PopulationConfig
from repro.serving.aggregation import STALENESS_RULES
from repro.serving.config import (
    ARRIVAL_KINDS,
    PROTOCOLS,
    QUEUE_POLICIES,
    ServingConfig,
)
from repro.strategies.synchronous import SynchronousStrategy
from repro.utils.formatting import format_bytes, format_duration

_TOPOLOGY_CHOICES = sorted(NAMED_TOPOLOGIES)
_NETWORK_CHOICES = sorted(NAMED_NETWORKS) + ["none"]
_COMPRESSOR_CHOICES = sorted(NAMED_COMPRESSORS) + ["none"]

_WORKLOAD_BUILDERS = {
    "lenet": registry.lenet_mnist_workload,
    "vgg": registry.vgg_mnist_workload,
    "densenet-small": lambda **kw: registry.densenet_cifar_workload(variant="small", **kw),
    "densenet-large": lambda **kw: registry.densenet_cifar_workload(variant="large", **kw),
    "transfer": registry.transfer_learning_workload,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Federated Dynamic Averaging (EDBT 2025)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")
    subparsers.add_parser("table2", help="print the Table-2 summary of experiments")

    for figure_name in sorted(registry.ALL_FIGURES):
        figure_parser = subparsers.add_parser(
            figure_name, help=f"run {figure_name}: its strategy comparison, then its declared grids"
        )
        figure_parser.add_argument(
            "--full", action="store_true", help="use the full (slow) grids instead of quick mode"
        )

    compare = subparsers.add_parser("compare", help="run a custom FDA-vs-baselines comparison")
    compare.add_argument("--workload", choices=sorted(_WORKLOAD_BUILDERS), default="lenet")
    compare.add_argument("--theta", type=float, default=8.0, help="FDA variance threshold")
    compare.add_argument("--workers", type=int, default=5, help="number of workers K")
    compare.add_argument("--target", type=float, default=0.9, help="test-accuracy target")
    compare.add_argument("--max-steps", type=int, default=400, help="step budget per run")
    compare.add_argument(
        "--topology", choices=_TOPOLOGY_CHOICES, default="star",
        help="communication-fabric topology",
    )
    compare.add_argument(
        "--network", choices=_NETWORK_CHOICES, default="none",
        help="network model converting bytes into virtual wall-clock",
    )
    compare.add_argument(
        "--dtype", choices=("float32", "float64"), default="float64",
        help="compute dtype of the parameter plane: 'float64' (bit-exact "
             "reference) or 'float32' (fast mode; byte ledgers price 4-byte "
             "elements instead of 8)",
    )
    compare.add_argument(
        "--dropout-rate", type=float, default=0.0,
        help="per-round worker dropout probability (partial participation); "
             "the engine executes only the active rows",
    )
    compare.add_argument(
        "--compressor", choices=_COMPRESSOR_CHOICES, default="none",
        help="collective-level payload compression applied to every "
             "strategy's sync payloads (FDA's triggered syncs included)",
    )
    compare.add_argument(
        "--compression-ratio", type=float, default=0.1,
        help="kept fraction for the sparsifying compressors "
             "(topk / randomk / layerwise-topk)",
    )
    compare.add_argument(
        "--compression-bits", type=int, default=8,
        help="bit width for the quantization compressor",
    )
    compare.add_argument(
        "--error-feedback", action="store_true",
        help="keep per-worker error-feedback memory (a (K, d) residual "
             "matrix on the cluster) so dropped mass re-enters later payloads",
    )
    compare.add_argument(
        "--crash-rate", type=float, default=0.0,
        help="per-worker per-round crash probability (deterministic fault "
             "injection; crashed workers freeze, then rejoin after a "
             "geometric outage and pay a real model download)",
    )
    compare.add_argument(
        "--loss-rate", type=float, default=0.0,
        help="per-link per-collective message-loss probability; lost "
             "transfers retransmit with capped exponential backoff, charged "
             "to the byte/virtual-second ledgers",
    )
    compare.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plan's own RNG streams (independent of the "
             "workload seed)",
    )
    compare.add_argument(
        "--population", type=int, default=0,
        help="register this many logical clients (population plane) and "
             "train per-round sampled cohorts instead of the materialized "
             "cluster; 0 disables",
    )
    compare.add_argument(
        "--cohort-size", type=int, default=16,
        help="worker slots per round under --population (the physical "
             "cohort window; replaces --workers for population runs)",
    )
    compare.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="write a cluster checkpoint every N in-parallel steps "
             "(requires --checkpoint-path; 0 disables)",
    )
    compare.add_argument(
        "--checkpoint-path", default=None,
        help="file the periodic checkpoint is atomically written to",
    )

    fabric = subparsers.add_parser(
        "fabric", help="sweep a topology x network grid and report bytes + wall-clock"
    )
    fabric.add_argument("--workload", choices=sorted(_WORKLOAD_BUILDERS), default="lenet")
    fabric.add_argument("--theta", type=float, default=8.0, help="FDA variance threshold")
    fabric.add_argument("--workers", type=int, default=4, help="number of workers K")
    fabric.add_argument("--target", type=float, default=0.9, help="test-accuracy target")
    fabric.add_argument("--max-steps", type=int, default=120, help="step budget per run")
    fabric.add_argument(
        "--topologies", nargs="+", choices=_TOPOLOGY_CHOICES,
        default=list(_TOPOLOGY_CHOICES), help="topologies to sweep",
    )
    fabric.add_argument(
        "--networks", nargs="+", choices=_NETWORK_CHOICES,
        default=["fl", "hpc", "balanced"], help="network models to sweep",
    )

    compression = subparsers.add_parser(
        "compression",
        help="sweep payload-compression settings and report the byte savings",
    )
    compression.add_argument(
        "--full", action="store_true",
        help="use the full compression grid (adds top-k without error "
             "feedback, random-k, sign+norm, and layer-wise top-k)",
    )

    faults = subparsers.add_parser(
        "faults",
        help="sweep a crash-rate x loss-rate grid and report FDA-vs-BSP degradation",
    )
    faults.add_argument("--workload", choices=sorted(_WORKLOAD_BUILDERS), default="lenet")
    faults.add_argument("--theta", type=float, default=8.0, help="FDA variance threshold")
    faults.add_argument("--workers", type=int, default=4, help="number of workers K")
    faults.add_argument("--target", type=float, default=0.9, help="test-accuracy target")
    faults.add_argument("--max-steps", type=int, default=120, help="step budget per run")
    faults.add_argument(
        "--crash-rates", type=float, nargs="+", default=[0.0, 0.05, 0.1],
        help="per-worker per-round crash probabilities to sweep",
    )
    faults.add_argument(
        "--loss-rates", type=float, nargs="+", default=[0.0, 0.05],
        help="per-link per-collective loss probabilities to sweep",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plans' RNG streams",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="run a cached Θ x seed grid through the streaming sweep executor",
    )
    sweep.add_argument("--workload", choices=sorted(_WORKLOAD_BUILDERS), default="lenet")
    sweep.add_argument(
        "--thetas", type=float, nargs="+", default=[1.0, 4.0, 16.0],
        help="FDA variance thresholds to sweep",
    )
    sweep.add_argument(
        "--seeds", type=int, nargs="+", default=[0],
        help="workload seeds; the grid is thetas x seeds",
    )
    sweep.add_argument("--workers", type=int, default=4, help="number of workers K")
    sweep.add_argument("--target", type=float, default=0.9, help="test-accuracy target")
    sweep.add_argument("--max-steps", type=int, default=120, help="step budget per run")
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for uncached cells (1 = serial; results are "
             "bit-identical either way)",
    )
    sweep.add_argument(
        "--cache-dir", default=None,
        help="directory of the content-addressed run store (runs.jsonl + "
             "manifest); omit to run without persistence",
    )
    sweep.add_argument(
        "--resume", action=argparse.BooleanOptionalAction, default=True,
        help="replay cells already present in the store (--no-resume "
             "executes everything but still records results)",
    )
    sweep.add_argument(
        "--force", action="store_true",
        help="re-execute every cell even if cached, shadowing old records",
    )

    serve = subparsers.add_parser(
        "serve",
        help="drive a workload as a served system: open-loop arrivals, "
             "bounded ingress queue, latency percentiles",
    )
    serve.add_argument("--workload", choices=sorted(_WORKLOAD_BUILDERS), default="lenet")
    serve.add_argument("--theta", type=float, default=8.0, help="FDA variance threshold")
    serve.add_argument("--workers", type=int, default=4, help="number of workers K")
    serve.add_argument(
        "--updates", type=int, default=500,
        help="how many client updates to aggregate before reporting",
    )
    serve.add_argument(
        "--arrival", choices=sorted(ARRIVAL_KINDS), default="poisson",
        help="arrival process ('closed' = degenerate pre-serving loop)",
    )
    serve.add_argument(
        "--arrival-rate", type=float, default=1.0,
        help="per-worker arrivals per virtual second",
    )
    serve.add_argument(
        "--trace", default=None,
        help="JSONL arrival trace for --arrival trace",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=None,
        help="ingress-queue capacity (omit for unbounded)",
    )
    serve.add_argument(
        "--queue-policy", choices=sorted(QUEUE_POLICIES), default="drop",
        help="overflow policy of the ingress queue",
    )
    serve.add_argument(
        "--staleness-rule", choices=sorted(STALENESS_RULES), default="uniform",
        help="staleness-aware aggregation rule",
    )
    serve.add_argument(
        "--max-staleness", type=int, default=4,
        help="rejection bound of the max-staleness rule",
    )
    serve.add_argument(
        "--poly-alpha", type=float, default=0.5,
        help="decay exponent of the polynomial rule",
    )
    serve.add_argument(
        "--service-seconds", type=float, default=0.0,
        help="coordinator aggregation time per update (virtual seconds)",
    )
    serve.add_argument(
        "--protocol", choices=sorted(PROTOCOLS), default="fda",
        help="coordinator protocol: triggered-sync FDA or lockstep BSP",
    )
    serve.add_argument(
        "--variant", choices=sorted(VARIANTS), default="linear",
        help="FDA variance-monitor variant",
    )
    serve.add_argument(
        "--topology", choices=_TOPOLOGY_CHOICES, default="star",
        help="communication-fabric topology",
    )
    serve.add_argument(
        "--network", choices=_NETWORK_CHOICES, default="none",
        help="network model converting bytes into virtual wall-clock",
    )
    serve.add_argument("--seed", type=int, default=0, help="workload + arrival seed")
    return parser


def _command_list(args: argparse.Namespace) -> int:
    print("available experiments:")
    print("  table2        summary of experiments")
    for name in sorted(registry.ALL_FIGURES):
        spec = registry.ALL_FIGURES[name](quick=True)
        print(f"  {name:<12}  {spec.title}")
    print("  compare       custom FDA vs baselines comparison (see --help)")
    print("  fabric        topology x network sweep: bytes + virtual wall-clock")
    print("  compression   payload-compression sweep: bytes removed per kernel")
    print("  faults        crash x loss degradation grid: FDA vs BSP under churn")
    print("  sweep         cached theta x seed grid (resumable, parallel; see --help)")
    print("  serve         open-loop served coordinator: arrivals, queueing, latency percentiles")
    return 0


def _command_table2(args: argparse.Namespace) -> int:
    rows = registry.table2()
    header = f"{'model':<28}{'d':>8}  {'dataset':<22}{'b':>4}{'K':>4}  {'optimizer':<8}  algorithms"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['model']:<28}{row['d']:>8}  {row['dataset']:<22}"
            f"{row['batch_size']:>4}{row['num_workers']:>4}  {row['optimizer']:<8}  "
            f"{', '.join(row['algorithms'])}"
        )
    return 0


def _tag(name: str, align: str, style: str = "") -> Column:
    """A column showing each point's coordinate ``name``."""
    return (name, align, lambda point: format(point.tags[name], style))


def _cost(title: str, align: str, attribute: str, show=str) -> Column:
    """A column showing ``show(point.result.<attribute>)``."""
    return (title, align, lambda point: show(getattr(point.result, attribute)))


_BYTES = _cost("bytes", ">12", "communication_bytes", format_bytes)
_STEPS = _cost("steps", ">8", "parallel_steps")
_SYNCS = _cost("syncs", ">8", "synchronizations")
_ACCURACY = _cost("acc", ">8", "final_accuracy", "{:.3f}".format)
_REACHED = _cost("reached", ">9", "reached_target")
_COST_COLUMNS = (_BYTES, _STEPS, _SYNCS, _ACCURACY, _REACHED)
_FABRIC_COLUMNS = (
    _tag("topology", "<14"),
    _tag("network", "<10"),
    _cost("model-sync", ">12", "model_bytes", format_bytes),
    _cost("fda-state", ">12", "state_bytes", format_bytes),
    _cost("total", ">12", "communication_bytes", format_bytes),
    _cost("wall-clock", ">14", "virtual_seconds", format_duration),
    _cost("s/round", ">12", "seconds_per_round", "{:.3f}s".format),
)
_COMPRESSION_COLUMNS = (
    _cost("compression", "<28", "compression"),
    _cost("model-sync", ">12", "model_bytes", format_bytes),
    _cost("total", ">12", "communication_bytes", format_bytes),
    _STEPS,
    _ACCURACY,
    _REACHED,
)


def _print_by_strategy(points, columns, suffix: str = "") -> None:
    """One table per strategy, in the order the strategies first appear."""
    for name in dict.fromkeys(point.tags["strategy"] for point in points):
        print(f"\n=== {name}{suffix} ===")
        print(format_points_table(select(points, strategy=name), columns))


def _budget(args: argparse.Namespace) -> TrainingRun:
    return TrainingRun(
        accuracy_target=args.target, max_steps=args.max_steps, eval_every_steps=20
    )


def _fda_vs_bsp(theta: float):
    return {
        "LinearFDA": partial(registry.fda, theta=theta, variant="linear"),
        "Synchronous": lambda: SynchronousStrategy(),
    }


def _command_figure(args: argparse.Namespace) -> int:
    spec = registry.ALL_FIGURES[args.command](quick=not args.full)
    print(f"{spec.experiment_id}: {spec.title}")
    points = run_grid(lower_spec(spec))
    for label in spec.workloads:
        print(f"\n--- setting: {label} ---")
        results = [point.result for point in select(points, grid="comparison", workload=label)]
        print(format_results_table(results, reached_only=False))
        if {"LinearFDA", "Synchronous"} <= {result.strategy for result in results}:
            print(format_comparison(results, "LinearFDA", "Synchronous"))
    for grid in dict.fromkeys(point.tags["grid"] for point in points):
        if grid == "comparison":
            continue
        rows = select(points, grid=grid)
        print(f"\n=== {grid} grid ===")
        coordinates = [_tag(axis, "<14") for axis in rows[0].tags if axis != "grid"]
        print(format_points_table(rows, (*coordinates, *_COST_COLUMNS)))
    return 0


def _compression_from_args(args: argparse.Namespace):
    """Build the CompressionConfig the compare flags describe (or ``None``)."""
    if args.compressor == "none":
        return None
    return CompressionConfig(
        compressor=args.compressor,
        ratio=args.compression_ratio,
        bits=args.compression_bits,
        error_feedback=args.error_feedback,
    )


def _command_compare(args: argparse.Namespace) -> int:
    workload = _WORKLOAD_BUILDERS[args.workload](num_workers=args.workers)
    workload = replace(
        workload,
        topology=args.topology,
        network=args.network,
        dtype=args.dtype,
        compression=_compression_from_args(args),
    )
    if args.dropout_rate:
        workload = replace(workload, dropout_rate=args.dropout_rate)
    workload = replace(
        workload,
        faults=FaultPlan(
            crash_rate=args.crash_rate, loss_rate=args.loss_rate, seed=args.fault_seed
        ),
    )
    if args.population:
        workload = workload.with_population(
            PopulationConfig(num_clients=args.population, cohort_size=args.cohort_size)
        )
    run = TrainingRun(
        accuracy_target=args.target, max_steps=args.max_steps, eval_every_steps=20,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
    )
    fedopt = "fedavgm" if "densenet" in args.workload else "fedadam"
    planes = (args.topology, *(("dropout",) if args.dropout_rate else ()))
    strategies = registry.default_strategies(args.theta, fedopt=fedopt)
    for name, factory in list(strategies.items()):
        if not allows(*factory().features, *planes):
            print(f"(skipping {name}: it does not compose with {' + '.join(planes)})")
            del strategies[name]
    results = [point.result for point in run_grid(lower_grid(workload, run, strategies))]
    compression = workload.compression.describe() if workload.compression else "none"
    faults = workload.faults.describe() if workload.faults else "none"
    print(
        f"fabric: topology={args.topology} network={args.network} "
        f"compression={compression} dtype={args.dtype} "
        f"faults={faults}"
    )
    print(format_results_table(results, reached_only=False))
    print(format_comparison(results, "LinearFDA", "Synchronous"))
    return 0


def _command_fabric(args: argparse.Namespace) -> int:
    workload = _WORKLOAD_BUILDERS[args.workload](num_workers=args.workers)
    cells = lower_grid(
        workload,
        _budget(args),
        _fda_vs_bsp(args.theta),
        topology=args.topologies,
        network=args.networks,
    )
    _print_by_strategy(
        run_grid(cells), _FABRIC_COLUMNS, f" (theta={args.theta}, K={args.workers})"
    )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    executor = SweepExecutor(
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        resume=args.resume,
        force=args.force,
    )
    run = _budget(args)
    # One grid, one batch: ``seed`` is an axis like Θ (each seed's workload is
    # the builder's, whose data and initial model follow the seed too), and the
    # executor sees every pending cell at once — that is what ``--jobs`` spreads.
    cells = [
        cell
        for seed in args.seeds
        for cell in lower_grid(
            _WORKLOAD_BUILDERS[args.workload](num_workers=args.workers, seed=seed),
            run,
            partial(registry.fda, variant="linear"),
            seed=[seed],
            theta=args.thetas,
        )
    ]
    columns = (_tag("theta", ">8", ".2f"), _tag("seed", ">6"), *_COST_COLUMNS)
    print(format_points_table(run_grid(cells, executor), columns))
    print(f"\ncache: {executor.stats.describe()}")
    if executor.store is not None:
        print(f"store: {executor.store.runs_path} ({len(executor.store)} records)")
    return 0


def _command_faults(args: argparse.Namespace) -> int:
    """Crash-rate x loss-rate degradation grid: FDA vs BSP, plus retry costs."""
    workload = _WORKLOAD_BUILDERS[args.workload](num_workers=args.workers)
    plans = []
    rates = {}  # a plan's coordinate (its label) → the rates its rows show
    for crash_rate, loss_rate in product(args.crash_rates, args.loss_rates):
        plan = FaultPlan(crash_rate=crash_rate, loss_rate=loss_rate, seed=args.fault_seed)
        plans.append(plan)
        rates[plan.describe()] = (crash_rate, loss_rate)
    cells = lower_grid(workload, _budget(args), _fda_vs_bsp(args.theta), faults=plans)

    def _log(point) -> dict:
        return point.result.fault_log or {}

    columns = (
        ("crash", ">7", lambda point: f"{rates[point.tags['faults']][0]:.2f}"),
        ("loss", ">7", lambda point: f"{rates[point.tags['faults']][1]:.2f}"),
        ("  strategy", "<16", lambda point: "  " + point.tags["strategy"]),
        _BYTES,
        _STEPS,
        _ACCURACY,
        _REACHED,
        ("retx", ">10", lambda point: format_bytes(_log(point).get("retransmitted_bytes", 0))),
        ("crashes", ">9", lambda point: len(_log(point).get("crashes", []))),
    )
    print(f"fault-degradation grid (theta={args.theta}, K={args.workers})")
    print(format_points_table(run_grid(cells), columns))
    return 0


def _command_compression(args: argparse.Namespace) -> int:
    spec = registry.compression_sweep(quick=not args.full)
    print(f"{spec.experiment_id}: {spec.title}")
    _print_by_strategy(run_grid(lower_spec(spec, "compression")), _COMPRESSION_COLUMNS)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serving.harness import serve_workload

    serving = ServingConfig(
        arrival=args.arrival,
        arrival_rate=args.arrival_rate,
        trace_path=args.trace,
        queue_capacity=args.queue_capacity,
        queue_policy=args.queue_policy,
        staleness_rule=args.staleness_rule,
        max_staleness=args.max_staleness,
        poly_alpha=args.poly_alpha,
        service_seconds=args.service_seconds,
        protocol=args.protocol,
        arrival_seed=args.seed,
    )
    workload = _WORKLOAD_BUILDERS[args.workload](
        num_workers=args.workers, seed=args.seed
    )
    workload = replace(
        workload,
        topology=args.topology,
        network=None if args.network == "none" else args.network,
        serving=serving,
    )
    report = serve_workload(
        workload, args.theta, args.updates, variant=args.variant
    )
    latency = report.latency
    print(f"served run: {serving.describe()} on {args.workload} (K={args.workers})")
    print(f"  updates served   : {report.updates_served} / {report.updates_offered} offered")
    print(
        f"  lost             : {report.updates_dropped} dropped, "
        f"{report.updates_shed} shed, {report.stale_rejected} stale-rejected"
    )
    print(f"  synchronizations : {report.sync_count}")
    print(f"  virtual time     : {format_duration(report.virtual_seconds)}")
    print(f"  throughput       : {report.throughput:.3f} updates/s (virtual)")
    print(f"  max queue depth  : {report.max_queue_depth}")
    print(f"  bytes            : {format_bytes(report.total_bytes)}")
    if latency.get("count"):
        print(
            f"  latency p50/p95/p99 : "
            f"{latency['p50']:.4f} / {latency['p95']:.4f} / {latency['p99']:.4f} s"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {
        "list": _command_list,
        "table2": _command_table2,
        "compare": _command_compare,
        "fabric": _command_fabric,
        "compression": _command_compression,
        "faults": _command_faults,
        "sweep": _command_sweep,
        "serve": _command_serve,
    }
    try:
        return commands.get(args.command, _command_figure)(args)
    except ConfigurationError as error:
        # Out-of-range flags (rates, ratios, a checkpoint cadence without a
        # path) and combinations the planes refuse (compression with a
        # fault plan, a cohort larger than the population):
        # the message names the cause, so report it instead of a traceback.
        print(f"error: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
