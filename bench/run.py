"""The repo's one benchmark: six workloads, host-time and simulated metrics.

Two ways to run it, from the root of a checkout:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, in this process.  Prints ``workload metric value unit``
    lines and, as the last line, the JSON object the benchmark contract asks
    for: the end-to-end metrics with ``--trace 0``, the per-layer metrics
    (from a traced run) with ``--trace 1``.

``python3 bench/run.py [--seed N] [--trace] [--smoke] [--out FILE]``
    Every workload, each in its own fresh subprocess, one after another, and
    one JSON document stamped with git sha, core count and versions.  A full
    (not ``--smoke``) run also appends its end-to-end metrics to
    ``bench/history.jsonl``.

BLAS is pinned to one thread before numpy is imported.  Everything the
benchmark writes goes under ``bench/out/`` (spill files, checkpoints and sweep
stores in a per-run scratch directory that is removed at the end).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
HISTORY = BENCH_DIR / "history.jsonl"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh-process set-ups measured per untraced run (this one plus
#: ``--setup-only`` children); ``setup_s`` is their median.
SETUP_SAMPLES = 3
SMOKE_SECONDS = 1

for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"
sys.path.insert(0, str(ROOT / "src"))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def empty_span_seconds() -> float:
    """Cost of one traced call of a function that does nothing."""
    from spans import Tracer

    def nothing():
        return None

    probe = Tracer()
    wrapped = probe.wrapper(nothing, "probe")
    calls = 20_000
    start = time.perf_counter()
    for _ in range(calls):
        nothing()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - plain, 0.0) / calls


def run_workload(args) -> dict:
    """Set up, run and check one workload in this process."""
    scratch = OUT_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    # The population store spills through ``tempfile``; keep it in the checkout.
    tempfile.tempdir = str(scratch)
    try:
        return _run_workload(args, scratch)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)


def _run_workload(args, scratch: Path) -> dict:
    import_start = time.perf_counter()
    import numpy
    import hostspeed

    # A traced run reports no bounded metric and is not probed: a probe between
    # two operations would be charged to the span that encloses them.
    probe, probe_built = None, 0.0
    if not args.trace:
        build_start = time.perf_counter()
        probe = hostspeed.HostProbe()
        probe_built = time.perf_counter() - build_start
    import repro  # noqa: F401 - the import is part of set-up
    import spans
    import workloads

    import_end = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.record("import", import_start, import_end)
        tracer.install()

    operations = workloads.operations_for(args.workload, args.seconds, args.smoke)
    workload = workloads.WORKLOADS[args.workload](args.seed, operations, scratch)
    # One probe before ``setup`` and one after, each with real work before it,
    # like the probes that interrupt the timed region.
    setup_probes = [probe.seconds()] if probe else []
    workload.setup()
    setup_probes += [probe.seconds()] if probe else []
    # The probe is the benchmark's own; its time is not set-up time.
    setup_raw = time.perf_counter() - _PROCESS_START - probe_built - sum(setup_probes)
    setups = []
    if probe is not None:
        setups.append(setup_sample(setup_raw, statistics.mean(setup_probes)))
    if args.setup_only:
        return setups[0]

    # A layer the workload bypasses reads 0, said here and nowhere else.
    values = dict.fromkeys(workloads.LAYER_READINGS, 0.0)
    run_start = time.perf_counter()
    if probe is None:
        crashed = run_guarded(workload)
        run_end = time.perf_counter()
        values["wall_s"] = run_end - run_start
    else:
        with hostspeed.RegionClock(probe, workload.operation_span) as clock:
            crashed = run_guarded(workload)
        run_end = time.perf_counter()
        values.update(clock.readings())
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = workload.finish()
    outcome.checks["run_completed"] = not crashed
    values.update(outcome.host)
    values.update(outcome.simulated)
    values.update(outcome.counters)
    if tracer is not None:
        tracer.uninstall()
        values.update(trace_values(tracer, workload.operation_span, run_start, run_end))
        values.update(workload.traced_extras(run_end - run_start))
        tracer.write(OUT_DIR / f"trace-{args.workload}.json")
    else:
        if not args.smoke:
            setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        for key in ("setup_s", "setup_raw_s"):
            values[key] = statistics.median(sample[key] for sample in setups)

    failed_checks = sorted(name for name, passed in outcome.checks.items() if not passed)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "operation": workload.operation,
        "operations": operations,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed) + len(failed_checks),
        "correct": not failed_checks and outcome.failed == 0,
        "checks": outcome.checks,
        "setup_samples": setups,
        "simulated": outcome.simulated,
        "values": values,
        "numpy": numpy.__version__,
    }


def run_guarded(workload) -> bool:
    """Run the timed region; whether it raised (reported through ``correct``)."""
    try:
        workload.run()
    except Exception:
        traceback.print_exc()
        return True
    return False


def setup_sample(stopwatch_seconds: float, probe_seconds: float) -> dict:
    """One process's set-up: the stopwatch reading and the same at reference speed."""
    import hostspeed

    return {
        "setup_raw_s": stopwatch_seconds,
        "setup_s": hostspeed.at_reference_speed(stopwatch_seconds, probe_seconds),
    }


def trace_values(tracer, operation_span: str, run_start: float, run_end: float) -> dict:
    """Per-layer values of one traced run: span calls/self time, round times.

    Calls and self time cover the whole process (set-up spans included);
    round times, overhead and coverage cover the timed region only.
    """
    import numpy
    import spans

    summary = tracer.summary()
    values = {}
    for name in spans.SPAN_NAMES:
        # Every name is installed (``patch_targets`` raises otherwise), so a
        # span that never opened is a layer this workload does not reach.
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.calls"] = float(row["calls"])
        values[f"{name}.self_s"] = row["self_s"]
    operation_seconds = tracer.operation_seconds(operation_span, run_start, run_end)
    if not operation_seconds:
        raise RuntimeError(f"no {operation_span!r} span closed inside the timed region")
    p50, p95 = numpy.percentile(operation_seconds, [50, 95])
    values["round_ms_p50"] = 1000.0 * float(p50)
    values["round_ms_p95"] = 1000.0 * float(p95)
    wall = run_end - run_start
    spans_in_run = sum(1 for start in tracer.start if run_start <= start <= run_end)
    overhead = spans_in_run * empty_span_seconds()
    values["traced_wall_s"] = wall
    values["trace.overhead_share"] = overhead / max(wall - overhead, 1e-9)
    values["trace.coverage"] = tracer.root_seconds(run_start, run_end) / wall
    return values


def probe_setup(args) -> dict:
    """Set the workload up once more in a fresh process; its :func:`setup_sample`."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    completed = subprocess.run(
        command, cwd=ROOT, check=True, capture_output=True, text=True, timeout=170
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def select_metrics(spec: dict, part: dict) -> dict:
    """The contract's ``metrics`` object: names and units from BENCHMARK.json."""
    declared = spec["per_layer"] if part["traced"] else spec["end_to_end"]
    missing = [metric["name"] for metric in declared if metric["name"] not in part["values"]]
    if missing:
        raise KeyError(f"declared in BENCHMARK.json but not measured: {missing}")
    return {
        metric["name"]: {"value": part["values"][metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


#: Untraced readings that are recorded beside the bounded metrics, not bounded.
STOPWATCH = {"wall_s": "s", "setup_raw_s": "s", "host_slowdown": "x"}


def print_part(part: dict, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{part['workload']} {name} {metric['value']:.6g} {metric['unit']}")
    if not part["traced"]:
        for name, unit in STOPWATCH.items():
            print(f"{part['workload']} stopwatch.{name} {part['values'][name]:.6g} {unit}")
    for name, passed in sorted(part["checks"].items()):
        print(f"{part['workload']} check.{name} {'pass' if passed else 'FAIL'}")


def contract_line(part: dict, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(part["correct"]),
            "attempted": max(int(part["attempted"]), 1),
            "failed": int(part["failed"]),
            "metrics": metrics,
        }
    )


# -- every workload, one subprocess each --------------------------------------


def git_sha() -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        return sha + ("+dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_child(args, name: str, traced: bool) -> dict:
    part_path = OUT_DIR / f"part-{name}-{int(traced)}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(traced)), "--out", str(part_path),
    ]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    print("\n".join(lines[:-1]))
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"workload {name} exited with code {completed.returncode}")
    part = json.loads(part_path.read_text(encoding="utf-8"))
    part_path.unlink()
    return part


def run_all(args, spec: dict) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = [workload["name"] for workload in spec["workloads"]]
    document = {
        "format": "bench.report",
        "version": 1,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "threads": {name: os.environ[name] for name in THREAD_VARIABLES},
        "workloads": {},
    }
    all_correct = True
    for name in names:
        part = run_child(args, name, traced=False)
        entry = {
            "correct": part["correct"],
            "attempted": part["attempted"],
            "failed": part["failed"],
            "operations": part["operations"],
            "checks": part["checks"],
            "end_to_end": part["metrics"],
            "stopwatch": {name: part["values"][name] for name in STOPWATCH},
            "simulated": part["simulated"],
        }
        document["numpy"] = part["numpy"]
        if args.trace:
            traced = run_child(args, name, traced=True)
            entry["per_layer"] = traced["metrics"]
            entry["traced_simulated_identical"] = traced["simulated"] == part["simulated"]
            entry["traced_wall_ratio"] = traced["values"]["wall_s"] / part["values"]["wall_s"]
            entry["correct"] = (
                entry["correct"] and traced["correct"] and entry["traced_simulated_identical"]
            )
            if not entry["traced_simulated_identical"]:
                print(f"{name} check.traced_simulated_identical FAIL")
        all_correct = all_correct and entry["correct"]
        document["workloads"][name] = entry

    out_path = Path(args.out) if args.out else OUT_DIR / "report.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"report written to {out_path}")
    if not args.smoke:
        append_history(document)
    return 0 if all_correct else 1


def append_history(document: dict) -> None:
    """One line per (git sha, workload, nproc, seed) with the end-to-end metrics."""
    with HISTORY.open("a", encoding="utf-8") as handle:
        for name, entry in document["workloads"].items():
            line = {
                "git_sha": document["git_sha"],
                "workload": name,
                "nproc": document["nproc"],
                "seed": document["seed"],
                "seconds": document["seconds"],
                "correct": entry["correct"],
                "end_to_end": {
                    metric: value["value"] for metric, value in entry["end_to_end"].items()
                },
                "stopwatch": entry["stopwatch"],
                "simulated": entry["simulated"],
            }
            handle.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv=None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed-region budget (default {spec['run_seconds']})")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true",
                        help="same shapes, at most ten operations per workload")
    parser.add_argument("--out", help="write the JSON document here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload is None:
        return run_all(args, spec)

    part = run_workload(args)
    if args.setup_only:
        print(json.dumps(part))
        return 0
    part["metrics"] = select_metrics(spec, part)
    print_part(part, part["metrics"])
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(part), encoding="utf-8")
    print(contract_line(part, part["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
