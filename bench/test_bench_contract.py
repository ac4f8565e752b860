"""Contract test of the benchmark: ``bench/run.py --smoke`` against BENCHMARK.json.

The smoke run keeps every workload's shapes and performs at most ten
operations each, so it checks wiring (every declared metric is produced, every
output check passes, simulated metrics repeat exactly), not speed.  It writes
nothing to ``bench/history.jsonl``.

Marked ``slow`` so that tier-1 (``-m "not slow"`` in pytest.ini) leaves the
benchmark alone; run it with ``python -m pytest -m slow bench``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def smoke(out: Path, *flags: str) -> dict:
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seed", "5", "--out", str(out), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_report(tmp_path_factory) -> dict:
    history = (ROOT / "bench" / "history.jsonl").read_bytes()
    report = smoke(tmp_path_factory.mktemp("bench") / "traced.json", "--trace")
    assert (ROOT / "bench" / "history.jsonl").read_bytes() == history
    return report


def test_declared_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )


def test_every_declared_metric_is_reported(traced_report):
    assert sorted(traced_report["workloads"]) == sorted(WORKLOADS)
    for name, entry in traced_report["workloads"].items():
        for metric in SPEC["end_to_end"]:
            reading = entry["end_to_end"][metric["name"]]
            assert reading["unit"] == metric["unit"]
            assert reading["value"] > 0, (name, metric["name"])
        for metric in SPEC["per_layer"]:
            assert entry["per_layer"][metric["name"]]["unit"] == metric["unit"]


def test_every_output_check_passes(traced_report):
    for name, entry in traced_report["workloads"].items():
        failed = [check for check, passed in entry["checks"].items() if not passed]
        assert not failed, (name, failed)
        assert entry["correct"] and entry["failed"] == 0, name


def test_simulated_metrics_repeat_exactly_and_tracing_only_observes(traced_report):
    # The traced and the untraced run are two fresh processes with one seed.
    for name, entry in traced_report["workloads"].items():
        assert entry["traced_simulated_identical"], name
        assert entry["per_layer"]["trace.coverage"]["value"] >= 0.95, name


def test_each_workload_reaches_the_layers_it_is_for(traced_report):
    expected = {
        "train_dense": "nn.batched.train_batch",
        "train_sketch": "sketch.ams.sketch_rows",
        "sync_topk": "compression.kernels.compress_rows",
        "population_faults": "population.store.save",
        "serve_open": "serving.queueing.offer",
        "sweep_grid": "experiments.cache.append",
    }
    for name, span in expected.items():
        layers = traced_report["workloads"][name]["per_layer"]
        assert layers[f"{span}.self_s"]["value"] > 0, (name, span)
    bypassed = traced_report["workloads"]["train_dense"]["per_layer"]
    assert bypassed["compression.kernels.compress_rows.self_s"]["value"] == 0
    assert bypassed["population.store.save.self_s"]["value"] == 0
