"""Tests for the smaller extensions: compressed FDA synchronization, τ schedules,
and result persistence."""

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.core.variance import model_variance
from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.experiments.results import compare_strategies
from repro.experiments.run import RunResult, TrainingRun
from repro.experiments.setup import build_cluster
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.local_sgd import (
    LocalSGDStrategy,
    decreasing_tau,
    fixed_tau,
    increasing_tau,
    post_local_sgd_tau,
)


RUN = TrainingRun(accuracy_target=0.88, max_steps=120, eval_every_steps=20)


def run_on(workload, strategy, run=RUN):
    cluster, test_dataset = build_cluster(workload)
    return run.execute(strategy, cluster, test_dataset, workload_name=workload.name)


QUANTIZED = CompressionConfig("quantization", bits=8)


class TestCompressedFda:
    def test_run_result_names_the_compression(self, blobs_workload):
        result = run_on(blobs_workload.with_compression(QUANTIZED), FDAStrategy(threshold=1.0))
        assert result.strategy == "LinearFDA"
        assert result.compression == "quantization(bits=8)"

    def test_compressed_sync_reduces_model_traffic(self, blobs_workload):
        plain = run_on(blobs_workload, FDAStrategy(threshold=0.1, variant="linear"))
        compressed = run_on(
            blobs_workload.with_compression(QUANTIZED),
            FDAStrategy(threshold=0.1, variant="linear"),
        )
        assert plain.synchronizations > 0
        assert compressed.reached_target
        plain_per_sync = plain.model_bytes / max(plain.synchronizations, 1)
        compressed_per_sync = compressed.model_bytes / max(compressed.synchronizations, 1)
        assert compressed_per_sync < plain_per_sync

    def test_topk_compressed_fda_still_converges(self, blobs_workload):
        result = run_on(
            blobs_workload.with_compression(CompressionConfig("topk", ratio=0.25)),
            FDAStrategy(threshold=0.5, variant="linear"),
            TrainingRun(accuracy_target=0.85, max_steps=200, eval_every_steps=20),
        )
        assert result.reached_target

    def test_workers_agree_after_compressed_sync(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload.with_compression(QUANTIZED))
        strategy = FDAStrategy(threshold=0.0, variant="exact").attach(cluster)
        for _ in range(3):
            strategy.run_round()
        assert model_variance(cluster.parameter_matrix) == pytest.approx(0.0, abs=1e-18)


class TestTauSchedules:
    def test_fixed(self):
        schedule = fixed_tau(7)
        assert [schedule(r) for r in range(3)] == [7, 7, 7]
        with pytest.raises(ConfigurationError):
            fixed_tau(0)

    def test_increasing(self):
        schedule = increasing_tau(initial=2, growth=2.0, maximum=10)
        values = [schedule(r) for r in range(5)]
        assert values == sorted(values)
        assert values[0] == 2 and values[-1] == 10
        with pytest.raises(ConfigurationError):
            increasing_tau(growth=0.5)

    def test_decreasing(self):
        schedule = decreasing_tau(initial=16, decay=0.5, minimum=2)
        values = [schedule(r) for r in range(6)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == 2
        with pytest.raises(ConfigurationError):
            decreasing_tau(decay=0.0)

    def test_post_local_sgd(self):
        schedule = post_local_sgd_tau(switch_round=3, tau_after=8)
        assert [schedule(r) for r in range(5)] == [1, 1, 1, 8, 8]
        with pytest.raises(ConfigurationError):
            post_local_sgd_tau(-1)

    def test_schedules_drive_local_sgd_strategy(self, blobs_workload):
        cluster, _ = build_cluster(blobs_workload)
        strategy = LocalSGDStrategy(tau=increasing_tau(initial=1, growth=2.0, maximum=8))
        strategy.attach(cluster)
        advanced = [strategy.run_round().steps_advanced for _ in range(4)]
        assert advanced == [1, 2, 4, 8]


class TestPersistence:
    def test_result_round_trip(self, blobs_workload, tmp_path):
        result = run_on(blobs_workload, FDAStrategy(threshold=2.0))
        payload = result_to_dict(result)
        restored = result_from_dict(payload)
        assert restored.strategy == result.strategy
        assert restored.communication_bytes == result.communication_bytes
        assert restored.history.entries == result.history.entries

    def test_aggregation_works_on_reloaded_results(self, blobs_workload):
        import json

        results = [
            run_on(blobs_workload, FDAStrategy(threshold=2.0)),
            run_on(blobs_workload, FDAStrategy(threshold=20.0)),
        ]
        document = json.dumps([result_to_dict(result) for result in results])
        restored = [result_from_dict(payload) for payload in json.loads(document)]
        assert {r.strategy for r in restored} == {"LinearFDA"}
        # Aggregation works identically on reloaded results.
        ratios = compare_strategies(restored + results, "LinearFDA", "LinearFDA")
        assert ratios["communication_ratio"] == pytest.approx(1.0)

    def test_every_result_field_round_trips_through_json(self):
        # The field list is derived from the dataclass: a field added to
        # RunResult must survive json.dumps without being named anywhere else.
        import json
        from dataclasses import fields

        samples = {
            "str": "label", "bool": True, "int": 7, "float": 0.625,
            "Optional[float]": 0.25, "Optional[dict]": {"crashes": [[3, 1]], "retransmitted_bytes": 80},
        }
        values = {}
        for field in fields(RunResult):
            if field.name == "history":
                continue
            assert field.type in samples, f"RunResult.{field.name}: no JSON sample for {field.type!r}"
            values[field.name] = samples[field.type]
            assert values[field.name] != field.default  # a dropped field would read as its default
        result = RunResult(**values)
        result.history.log(steps=4, test_accuracy=0.5)
        restored = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        for name, value in values.items():
            assert getattr(restored, name) == value, name
        assert restored.history.entries == result.history.entries

    def test_each_seed_format_field_is_required(self, blobs_workload):
        payload = result_to_dict(run_on(blobs_workload, FDAStrategy(threshold=2.0)))
        required = (
            "strategy", "workload", "reached_target", "accuracy_target", "final_accuracy",
            "best_accuracy", "communication_bytes", "parallel_steps", "synchronizations",
            "evaluations", "state_bytes", "model_bytes", "final_train_accuracy",
        )
        for name in required:
            with pytest.raises(ExperimentError, match=name):
                result_from_dict({k: v for k, v in payload.items() if k != name})
        # ...and everything added since is optional: its default applies.
        seed_era = {name: payload[name] for name in required}
        assert result_from_dict(seed_era).topology == "star"

    def test_from_dict_validates_fields(self):
        with pytest.raises(ExperimentError):
            result_from_dict({"strategy": "A"})

    def test_malformed_history_entry_names_index(self, blobs_workload):
        payload = result_to_dict(run_on(blobs_workload, FDAStrategy(threshold=2.0)))
        payload["history"] = list(payload["history"]) + ["not-a-dict"]
        with pytest.raises(ExperimentError, match=f"entry {len(payload['history']) - 1}"):
            result_from_dict(payload)

    def test_history_entry_bad_metric_names_raise(self, blobs_workload):
        payload = result_to_dict(run_on(blobs_workload, FDAStrategy(threshold=2.0)))
        payload["history"] = [{1: 0.5}]
        with pytest.raises(ExperimentError, match="entry 0"):
            result_from_dict(payload)

