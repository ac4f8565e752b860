"""Compare two benchmark reports: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline, ``B`` the candidate; both are documents written by
``bench/run.py`` (all-workloads mode).  For every (end-to-end metric,
workload) the verdict is one of

``better`` / ``worse``
    B differs from A by more than the metric's bound in ``BENCHMARK.json``
    and by more than the baseline's own run-to-run spread.
``within-bound``
    the difference is inside the bound, and so is the run-to-run spread.
``unresolved``
    the baseline's own run-to-run spread is wider than the bound and the
    difference lies inside it, so neither "unchanged" nor "changed" can be
    claimed.  The spread is the quartile distance over the median of the rows
    in ``bench/history.jsonl`` that repeat the baseline exactly: same git sha,
    core count, seed and ``--seconds``.

The stopwatch readings behind the host-adjusted metrics (``wall_s``,
``setup_raw_s``) and ``host_slowdown`` are printed beside them, not judged.
Simulated metrics (bytes, virtual seconds, accuracy, latency percentiles,
sync counts) are compared exactly: for one seed they must repeat bit for bit.
When both reports carry a traced run, the per-span ``self_s`` deltas are
printed so a saving can be located.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
HISTORY = BENCH_DIR / "history.jsonl"
#: Simulated metrics where a larger reading is the better one.
HIGHER_IS_BETTER = {"final_accuracy"}
#: Per-span self-time changes smaller than this are not printed.
SPAN_DELTA_FLOOR_S = 0.02


def load(path: str) -> dict:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if document.get("format") != "bench.report":
        raise SystemExit(f"{path} is not a bench/run.py report")
    return document


def history_spread(baseline: dict) -> Dict[tuple, float]:
    """(workload, metric) -> quartile distance / median over the baseline's repeats.

    Rows of another commit, seed or run length measure different work, so
    pooling them would read a landed speed-up as noise for ever after.
    """
    same_run = ("git_sha", "nproc", "seed", "seconds")
    samples: Dict[tuple, List[float]] = {}
    if HISTORY.exists():
        for line in HISTORY.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            row = json.loads(line)
            if any(row.get(key) != baseline.get(key) for key in same_run):
                continue
            for metric, value in row["end_to_end"].items():
                samples.setdefault((row["workload"], metric), []).append(value)
    spread = {}
    for key, values in samples.items():
        if len(values) >= 2 and statistics.median(values):
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread[key] = (q3 - q1) / abs(statistics.median(values))
    return spread


def verdict(a: float, b: float, better: str, bound: float, spread) -> str:
    """A change is called only beyond both the bound and the baseline's own spread."""
    worsening = 0.0 if a == b else (b - a) / abs(a) if a else float("inf")
    if better == "higher":
        worsening = -worsening
    band = max(bound, spread or 0.0)
    if worsening > band:
        return "worse"
    if worsening < -band:
        return "better"
    return "within-bound" if spread is None or spread <= bound else "unresolved"


def compare(a: dict, b: dict, spec: dict) -> int:
    if (a["seed"], a["seconds"], a["smoke"]) != (b["seed"], b["seconds"], b["smoke"]):
        print("note: the reports differ in seed, --seconds or --smoke; "
              "simulated metrics are not expected to match")
    spread = history_spread(a)
    worse = 0
    print(f"A {a['git_sha']}  vs  B {b['git_sha']}  (nproc {a.get('nproc')}/{b.get('nproc')})")
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            print(f"{name}: missing from one report")
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va, vb = left["end_to_end"][key]["value"], right["end_to_end"][key]["value"]
            result = verdict(va, vb, metric["better"], metric["bound"], spread.get((name, key)))
            worse += result == "worse"
            change = (vb - va) / abs(va) if va else 0.0
            print(f"{name} {key} {va:.6g} -> {vb:.6g} {metric['unit']} "
                  f"({change:+.1%}, bound {metric['bound']:.0%}) {result}")
        for key in sorted(set(left["stopwatch"]) & set(right["stopwatch"])):
            va, vb = left["stopwatch"][key], right["stopwatch"][key]
            print(f"{name} stopwatch.{key} {va:.6g} -> {vb:.6g} ({(vb - va) / va:+.1%}, not judged)")
        for key in sorted(set(left["simulated"]) & set(right["simulated"])):
            va, vb = left["simulated"][key], right["simulated"][key]
            if va == vb:
                result = "identical"
            else:
                improved = (vb > va) == (key in HIGHER_IS_BETTER)
                result = "better" if improved else "worse"
                worse += result == "worse"
            print(f"{name} {key} {va!r} -> {vb!r} exact {result}")
        if not right["correct"]:
            worse += 1
            print(f"{name} B failed its output checks: worse")
        if "per_layer" in left and "per_layer" in right:
            deltas = []
            for key, value in right["per_layer"].items():
                if key.endswith(".self_s") and key in left["per_layer"]:
                    delta = value["value"] - left["per_layer"][key]["value"]
                    if abs(delta) >= SPAN_DELTA_FLOOR_S:
                        deltas.append((delta, key))
            for delta, key in sorted(deltas):
                print(f"{name} trace {key} {delta:+.3f} s")
    print(f"{worse} worse")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[0])
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
