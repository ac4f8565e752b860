"""Integration tests for the fabric: sync/async parity, topology routing, time.

The headline contract: with a zero-jitter, no-straggler profile and the star
topology, the synchronous and asynchronous FDA trainers must charge identical
model-synchronization bytes for the same number of synchronizations — the
fabric prices the collective, not the protocol that triggered it.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.fda import FDATrainer
from repro.core.monitor import ExactMonitor
from repro.core.timeline import StragglerProfile, Timeline
from repro.data.partition import partition_dataset
from repro.data.synthetic import gaussian_blobs
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.exceptions import ConfigurationError
from repro.nn.architectures import mlp
from repro.optim.adam import Adam
from repro.serving import ServedFDATrainer, ServingConfig
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import fedadam_strategy
from repro.strategies.synchronous import SynchronousStrategy


#: The asynchronous (Section 3.3) coordinator: the served trainer's closed loop.
CLOSED = ServingConfig(arrival="closed")


def make_cluster(num_workers=4, seed=0, **cluster_kwargs):
    data = gaussian_blobs(320, feature_dim=8, num_classes=3, seed=seed)
    shards = partition_dataset(data, num_workers, "iid", seed=seed)
    workers = [
        Worker(
            worker_id=i,
            model=mlp(8, 3, hidden_units=(12,), seed=seed),
            dataset=shard,
            optimizer=Adam(0.02),
            batch_size=16,
            seed=seed + i,
        )
        for i, shard in enumerate(shards)
    ]
    return SimulatedCluster(workers, **cluster_kwargs)


@pytest.mark.serving
class TestSyncAsyncAccountingParity:
    def test_model_sync_bytes_per_synchronization_match(self):
        # Zero jitter, no stragglers, star topology: the async coordinator and
        # the lockstep trainer must charge the same model-sync bytes per sync.
        sync_trainer = FDATrainer(make_cluster(), ExactMonitor(), threshold=0.0)
        sync_trainer.run_steps(6)
        assert sync_trainer.synchronization_count > 0
        sync_bytes = sync_trainer.cluster.tracker.bytes_for("model-sync")
        per_sync = sync_bytes / sync_trainer.synchronization_count

        async_trainer = ServedFDATrainer(
            make_cluster(),
            ExactMonitor(),
            0.0,
            CLOSED,
            profile=StragglerProfile(),  # uniform, jitter-free
            seed=0,
        )
        async_trainer.serve_updates(24)
        assert async_trainer.synchronization_count > 0
        async_bytes = async_trainer.cluster.tracker.bytes_for("model-sync")
        assert async_bytes / async_trainer.synchronization_count == per_sync

    def test_state_traffic_matches_per_report_across_modes(self):
        # A lockstep step AllReduces K reports at n·4·K bytes; an async upload
        # moves one report at n·4 bytes — identical cost per worker report, so
        # the same number of reports charges the same fda-state total.
        sync_trainer = FDATrainer(make_cluster(), ExactMonitor(), threshold=1e9)
        sync_trainer.run_steps(5)
        async_trainer = ServedFDATrainer(
            make_cluster(), ExactMonitor(), 1e9, CLOSED, seed=0
        )
        async_trainer.serve_updates(5 * async_trainer.cluster.num_workers)
        sync_state = sync_trainer.cluster.tracker.bytes_for("fda-state")
        async_state = async_trainer.cluster.tracker.bytes_for("fda-state")
        assert async_state == sync_state


class TestTopologyRouting:
    def test_ring_cluster_charges_ring_volume_per_sync(self):
        star = make_cluster()
        ring = make_cluster(topology="ring")
        star.synchronize(include_buffers=False)
        ring.synchronize(include_buffers=False)
        d, K = star.model_dimension, star.num_workers
        # Clusters price at the plane dtype's itemsize (float64 → 8 B): the
        # star loads K uplinks with d elements, the ring K forward links with
        # 2(K-1)/K·d elements each.
        assert star.tracker.bytes_for("model-sync") == K * d * 8
        assert ring.tracker.bytes_for("model-sync") == K * round(2 * (K - 1) / K * d * 8)

    def test_topology_name_resolution_on_the_cluster(self):
        assert make_cluster().fabric.topology.name == "star"
        assert make_cluster(topology="gossip").fabric.topology.name == "gossip"
        with pytest.raises(ConfigurationError):
            make_cluster(topology="torus")

    def test_server_based_strategy_rejects_serverless_topology(self):
        cluster = make_cluster(topology="ring")
        with pytest.raises(ConfigurationError):
            fedadam_strategy().attach(cluster)

    def test_allreduce_strategies_run_on_every_topology(self):
        for topology in ("star", "ring", "hierarchical", "gossip"):
            cluster = make_cluster(topology=topology)
            strategy = SynchronousStrategy().attach(cluster)
            result = strategy.run_round()
            assert result.communication_bytes > 0

    def test_mismatched_timeline_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cluster(num_workers=4, timeline=Timeline(3))


class TestVirtualTime:
    def test_default_clock_counts_compute_only(self):
        cluster = make_cluster()
        strategy = SynchronousStrategy().attach(cluster)
        rounds = [strategy.run_round() for _ in range(3)]
        assert cluster.virtual_time == pytest.approx(3.0)  # one second per step
        assert cluster.fabric.comm_seconds == 0.0
        assert all(r.virtual_seconds == pytest.approx(1.0) for r in rounds)

    def test_network_model_adds_communication_time(self):
        timeless = make_cluster()
        timed = make_cluster(network="fl")
        for cluster in (timeless, timed):
            SynchronousStrategy().attach(cluster).run_round()
        assert timed.virtual_time > timeless.virtual_time
        assert timed.fabric.comm_seconds > 0
        # Same protocol, same traffic — only the clock differs.
        assert timed.total_bytes == timeless.total_bytes

    def test_fl_slower_than_hpc_for_the_same_protocol(self):
        fl = make_cluster(network="fl")
        hpc = make_cluster(network="hpc")
        for cluster in (fl, hpc):
            SynchronousStrategy().attach(cluster).run_round()
        assert fl.virtual_time > hpc.virtual_time

    def test_straggler_timeline_slows_lockstep_rounds(self):
        profile = StragglerProfile(straggler_fraction=0.25, straggler_factor=4.0)
        slow = make_cluster(timeline=Timeline(4, profile=profile, seed=0))
        fast = make_cluster()
        SynchronousStrategy().attach(slow).run_round()
        SynchronousStrategy().attach(fast).run_round()
        assert slow.virtual_time == pytest.approx(4.0)
        assert fast.virtual_time == pytest.approx(1.0)

    def test_fda_step_reports_virtual_time(self):
        trainer = FDATrainer(make_cluster(), ExactMonitor(), threshold=0.5)
        results = trainer.run_steps(4)
        times = [r.virtual_time for r in results]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(trainer.cluster.virtual_time)
        assert all(r.active_workers == 4 for r in results)


class TestPartialParticipation:
    def test_dropout_reduces_active_workers_but_training_proceeds(self):
        timeline = Timeline(4, seed=5, dropout_rate=0.5)
        cluster = make_cluster(timeline=timeline)
        trainer = FDATrainer(cluster, ExactMonitor(), threshold=0.5)
        results = trainer.run_steps(12)
        active_counts = [r.active_workers for r in results]
        assert min(active_counts) >= 1
        assert any(count < 4 for count in active_counts)
        assert all(np.isfinite(r.mean_loss) for r in results)

    def test_default_timeline_keeps_everyone_active(self):
        trainer = FDATrainer(make_cluster(), ExactMonitor(), threshold=0.5)
        results = trainer.run_steps(5)
        assert all(r.active_workers == 4 for r in results)


@pytest.mark.serving
class TestTimelineOwnership:
    def test_async_trainer_inherits_a_configured_cluster_timeline(self):
        profile = StragglerProfile(straggler_fraction=0.25, straggler_factor=4.0)
        timeline = Timeline(4, profile=profile, seed=0)
        cluster = make_cluster(timeline=timeline)
        trainer = ServedFDATrainer(cluster, ExactMonitor(), 1e9, CLOSED)
        assert trainer.timeline is timeline  # with_timeline config is honoured
        trainer.serve_for(30.0)
        steps = np.asarray([worker.steps_performed for worker in cluster.workers])
        assert steps.max() > 2 * steps.min()  # the straggler actually straggles

    def test_explicit_profile_still_overrides(self):
        cluster = make_cluster()
        default_timeline = cluster.timeline
        profile = StragglerProfile(straggler_fraction=0.5, straggler_factor=3.0)
        trainer = ServedFDATrainer(
            cluster, ExactMonitor(), 1e9, CLOSED, profile=profile, seed=1
        )
        assert trainer.timeline is not default_timeline
        assert cluster.timeline is trainer.timeline
        assert trainer.timeline.profile is profile

    def test_mismatched_explicit_timeline_rejected(self):
        with pytest.raises(ConfigurationError):
            ServedFDATrainer(
                make_cluster(num_workers=4), ExactMonitor(), 1.0, CLOSED, timeline=Timeline(3)
            )

    def test_async_upload_seconds_land_in_the_fabric_ledger(self):
        cluster = make_cluster(network="fl")
        trainer = ServedFDATrainer(cluster, ExactMonitor(), 1e9, CLOSED, seed=0)
        trainer.serve_updates(8)
        assert cluster.fabric.comm_seconds > 0
        assert not hasattr(cluster.timeline, "comm_seconds")  # one ledger


class TestFabricSweep:
    def test_spec_fabric_grid_executes_every_cell(self, blobs_workload):
        from repro.experiments.registry import ExperimentSpec
        from repro.experiments.run import TrainingRun
        from repro.experiments.sweep import lower_spec, run_grid, select

        spec = ExperimentSpec(
            experiment_id="fabric-test",
            title="tiny fabric grid",
            workloads={"iid": blobs_workload},
            strategy_factories={
                "Synchronous": lambda: SynchronousStrategy(),
                "LinearFDA": lambda: FDAStrategy(threshold=2.0, variant="linear"),
            },
            run=TrainingRun(accuracy_target=0.999, max_steps=8, eval_every_steps=8),
            topologies=("star", "ring"),
            networks=("hpc",),
        )
        points = run_grid(lower_spec(spec, "fabric"))
        assert {p.tags["strategy"] for p in points} == {"Synchronous", "LinearFDA"}
        for name in spec.strategy_factories:
            grouped = select(points, strategy=name)
            assert [(p.tags["topology"], p.tags["network"]) for p in grouped] == [
                ("star", "hpc"), ("ring", "hpc"),
            ]
            assert all(p.result.virtual_seconds > 0 for p in grouped)

    def test_spec_fabric_grid_requires_a_declaration(self):
        from repro.experiments.registry import figure3
        from repro.experiments.sweep import lower_spec

        with pytest.raises(ConfigurationError):
            lower_spec(figure3(quick=True), "fabric")  # no topologies/networks declared

    def test_fabric_axes_cover_the_grid(self, blobs_workload):
        from repro.experiments.run import TrainingRun
        from repro.experiments.sweep import lower_grid, run_grid

        run = TrainingRun(accuracy_target=0.999, max_steps=8, eval_every_steps=8)
        points = run_grid(
            lower_grid(
                blobs_workload,
                run,
                lambda: SynchronousStrategy(),
                topology=("star", "ring"),
                network=("fl", "hpc"),
            )
        )
        by_cell = {(p.tags["topology"], p.tags["network"]): p.result for p in points}
        assert list(by_cell) == [
            ("star", "fl"), ("star", "hpc"), ("ring", "fl"), ("ring", "hpc"),
        ]
        for (topology, network), result in by_cell.items():
            assert result.topology == topology
            assert result.network == network
            assert result.model_bytes > 0
            assert result.virtual_seconds > 0
            assert result.seconds_per_round > 0
        # Per-cell wall-clock reflects the fabric: fl slower than hpc.
        assert by_cell[("star", "fl")].virtual_seconds > by_cell[("star", "hpc")].virtual_seconds

    def test_registry_fabric_spec_declares_the_grid(self):
        from repro.experiments.registry import fabric_sweep

        spec = fabric_sweep(quick=True)
        assert spec.topologies and spec.networks
        assert "LinearFDA" in spec.strategy_factories
        assert "Synchronous" in spec.strategy_factories
        full = fabric_sweep(quick=False)
        assert len(full.topologies) * len(full.networks) > len(spec.topologies) * len(
            spec.networks
        )

    def test_cli_fabric_command(self, capsys):
        from repro.cli import main

        exit_code = main(
            [
                "fabric",
                "--workload", "lenet",
                "--workers", "3",
                "--target", "0.999",
                "--max-steps", "20",
                "--topologies", "star",
                "--networks", "fl", "hpc",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "LinearFDA" in output and "Synchronous" in output
        assert "wall-clock" in output and "star" in output

    def test_run_result_serialization_round_trips_fabric_fields(self, tmp_path, blobs_workload):
        import json

        from repro.experiments.persistence import result_from_dict, result_to_dict
        from repro.experiments.run import TrainingRun
        from repro.experiments.setup import build_cluster

        workload = replace(blobs_workload, topology="ring", network="fl")
        cluster, test_dataset = build_cluster(workload)
        run = TrainingRun(accuracy_target=0.999, max_steps=8, eval_every_steps=8)
        result = run.execute(SynchronousStrategy(), cluster, test_dataset)
        loaded = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert loaded.topology == "ring"
        assert loaded.network == "fl"
        assert loaded.virtual_seconds == pytest.approx(result.virtual_seconds)
        assert loaded.comm_seconds == pytest.approx(result.comm_seconds)

