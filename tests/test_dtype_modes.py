"""The dtype-parametric parameter plane: float32 as a first-class mode.

Pins the contracts of the backend/dtype seam (:mod:`repro.backend`) and its
threading through the stack:

* dtype resolution — explicit ``dtype=`` wins, otherwise the cluster inherits
  the workers' (uniform) model dtype, and mixed-dtype worker sets are a
  configuration error;
* the no-copy collective fast path — the uncompressed ``gather_models``
  returns the live parameter matrix;
* conservation — on every topology, a float32 run charges *exactly* half the
  uncompressed sync bytes of the equivalent float64 run (4 vs 8 B/element);
* configuration surface — ``WorkloadConfig.dtype`` / ``with_dtype``, the
  ``RunResult.dtype`` persistence round-trip, and end-to-end float32
  training on the engine and on the per-worker oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers.parity import make_cluster, parity_tolerance, tolerance
from helpers.per_worker import SIDES, on_side
from repro.backend import DEFAULT_DTYPE, itemsize, resolve_dtype
from repro.data.synthetic import gaussian_blobs
from repro.exceptions import ConfigurationError
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.experiments.run import RunResult
from repro.experiments.setup import WorkloadConfig, build_cluster, make_optimizer
from repro.nn.architectures import mlp
from repro.optim.sgd import SGD
from repro.strategies.drift_control import FedProxStrategy, ScaffoldStrategy
from repro.strategies.synchronous import SynchronousStrategy


# ---------------------------------------------------------------------------
# The backend seam
# ---------------------------------------------------------------------------


class TestBackendSeam:
    def test_resolve_dtype_accepts_the_supported_spellings(self):
        assert resolve_dtype(None) == DEFAULT_DTYPE == np.dtype(np.float64)
        for spec in ("float32", np.float32, np.dtype(np.float32)):
            assert resolve_dtype(spec) == np.dtype(np.float32)

    @pytest.mark.parametrize("bad", ["float16", np.int64, "complex128", object])
    def test_resolve_dtype_rejects_everything_else(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_dtype(bad)

    def test_itemsize_matches_the_fabric_pricing(self):
        assert itemsize("float64") == 8
        assert itemsize("float32") == 4

    def test_float64_tolerance_is_exact(self):
        assert tolerance("float64") == {"rtol": 0.0, "atol": 0.0}

    def test_float32_parity_tolerance_widens_with_steps(self):
        one = parity_tolerance("float32", steps=1)
        many = parity_tolerance("float32", steps=100)
        assert 0.0 < one["rtol"] < many["rtol"]
        assert many["rtol"] == pytest.approx(10.0 * one["rtol"])  # sqrt(100)


# ---------------------------------------------------------------------------
# Cluster dtype resolution
# ---------------------------------------------------------------------------


class TestClusterDtypeResolution:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_explicit_dtype_converts_the_plane_and_the_models(self, dtype):
        cluster = make_cluster("batched", num_workers=3, dtype=dtype)
        expected = np.dtype(dtype)
        assert cluster.dtype == expected
        assert cluster.dtype_name == dtype
        assert cluster.parameter_matrix.dtype == expected
        for worker in cluster.workers:
            assert worker.model.dtype == expected
            assert worker.model.parameters_view().dtype == expected

    def test_cluster_inherits_a_uniform_model_dtype(self):
        cluster = make_cluster("batched", num_workers=2)
        assert cluster.dtype == np.dtype(np.float64)  # factory models are float64

    def test_mixed_model_dtypes_are_a_configuration_error(self):
        from repro.data.datasets import Dataset
        from repro.distributed.cluster import SimulatedCluster
        from repro.distributed.worker import Worker

        rng = np.random.default_rng(0)
        workers = []
        for worker_id in range(2):
            model = mlp(6, 3, hidden_units=(8,), seed=1)
            if worker_id == 1:
                model.to_dtype(np.float32)
            data = Dataset(rng.normal(size=(20, 6)), rng.integers(0, 3, size=20), 3)
            workers.append(Worker(worker_id, model, data, batch_size=8))
        with pytest.raises(ConfigurationError):
            SimulatedCluster(workers, SGD(0.05))


# ---------------------------------------------------------------------------
# The no-copy collective fast path (gather_models)
# ---------------------------------------------------------------------------


class TestCollectiveNoCopy:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_uncompressed_gather_models_returns_the_live_plane(self, dtype):
        cluster = make_cluster("batched", num_workers=3, dtype=dtype)
        gathered = cluster.gather_models()
        assert np.shares_memory(gathered, cluster.parameter_matrix)


# ---------------------------------------------------------------------------
# Byte conservation: float32 charges exactly half, on every topology
# ---------------------------------------------------------------------------


class TestByteConservation:
    @pytest.mark.float32_smoke
    @pytest.mark.parametrize("topology", ["star", "ring", "hierarchical", "gossip"])
    def test_float32_sync_bytes_are_exactly_half_of_float64(self, topology):
        totals = {}
        for dtype in ("float64", "float32"):
            cluster = make_cluster(
                "batched", num_workers=4, dtype=dtype, topology=topology
            )
            cluster.synchronize()
            cluster.fabric.allreduce(33, "other")
            cluster.gather_models()
            totals[dtype] = cluster.total_bytes
        assert totals["float64"] == 2 * totals["float32"]
        assert totals["float32"] > 0


# ---------------------------------------------------------------------------
# Configuration surface: WorkloadConfig, persistence, end-to-end training
# ---------------------------------------------------------------------------


def _blobs_workload(dtype="float64"):
    train = gaussian_blobs(160, feature_dim=6, num_classes=3, seed=0)
    test = gaussian_blobs(60, feature_dim=6, num_classes=3, seed=1)
    return WorkloadConfig(
        name="blobs",
        model_factory=lambda: mlp(6, 3, hidden_units=(8,), seed=2),
        train_dataset=train,
        test_dataset=test,
        optimizer_factory=make_optimizer("sgd"),
        num_workers=3,
        batch_size=16,
        dtype=dtype,
    )


class TestWorkloadConfigSurface:
    def test_dtype_normalizes_and_round_trips(self):
        workload = _blobs_workload()
        assert workload.dtype == "float64"
        assert replace(workload, dtype=np.float32).dtype == "float32"
        assert replace(replace(workload, dtype="float32"), dtype=None).dtype == "float64"
        with pytest.raises(ConfigurationError):
            replace(workload, dtype="int32")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_build_cluster_threads_the_dtype(self, dtype):
        cluster, _ = build_cluster(_blobs_workload(dtype=dtype))
        assert cluster.dtype_name == dtype
        assert cluster.fabric.itemsize == itemsize(dtype)

    @pytest.mark.float32_smoke
    @pytest.mark.parametrize("side", SIDES)
    def test_float32_training_runs_end_to_end(self, side):
        cluster = on_side(side, build_cluster(_blobs_workload(dtype="float32"))[0])
        strategy = SynchronousStrategy().attach(cluster)
        results = [strategy.run_round() for _ in range(5)]
        assert all(np.isfinite(r.mean_loss) for r in results)
        assert cluster.parameter_matrix.dtype == np.float32

    @pytest.mark.float32_smoke
    @pytest.mark.parametrize("side", SIDES)
    @pytest.mark.parametrize(
        "make_strategy",
        [lambda: FedProxStrategy(mu=0.1), lambda: ScaffoldStrategy(local_learning_rate_hint=0.01)],
        ids=["fedprox", "scaffold"],
    )
    def test_drift_control_trains_on_a_float32_plane(self, make_strategy, side):
        # SCAFFOLD's float64 variates used to upcast the corrected gradient,
        # which the optimizer refuses on a float32 plane.
        cluster = on_side(side, build_cluster(_blobs_workload(dtype="float32"))[0])
        strategy = make_strategy().attach(cluster)
        result = strategy.run_round()
        assert np.isfinite(result.mean_loss) and result.synchronized
        assert cluster.parameter_matrix.dtype == np.float32
        assert cluster.shared_parameters.dtype == np.float32
        if isinstance(strategy, ScaffoldStrategy):
            assert strategy._worker_variates.dtype == np.float32
            assert strategy._server_variate.dtype == np.float32
            assert strategy._worker_variates.any()

    def test_run_result_dtype_survives_the_persistence_round_trip(self):
        result = RunResult(
            strategy="fda",
            workload="blobs",
            reached_target=True,
            accuracy_target=0.9,
            final_accuracy=0.91,
            best_accuracy=0.91,
            communication_bytes=1234,
            parallel_steps=10,
            synchronizations=2,
            evaluations=1,
            dtype="float32",
        )
        restored = result_from_dict(result_to_dict(result))
        assert restored.dtype == "float32"

    def test_seed_era_payloads_without_dtype_still_load(self):
        payload = result_to_dict(
            RunResult(
                strategy="fda",
                workload="blobs",
                reached_target=False,
                accuracy_target=0.9,
                final_accuracy=0.5,
                best_accuracy=0.5,
                communication_bytes=0,
                parallel_steps=0,
                synchronizations=0,
                evaluations=0,
            )
        )
        payload.pop("dtype")
        assert result_from_dict(payload).dtype == "float64"
