"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure3" in output and "table2" in output

    def test_table2_command(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "LeNet-5 (mini)" in output
        assert "ConvNeXt head (transfer)" in output

    def test_compare_command_runs_quickly(self, capsys):
        exit_code = main(
            [
                "compare",
                "--workload", "lenet",
                "--theta", "8",
                "--workers", "3",
                "--target", "0.85",
                "--max-steps", "120",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "LinearFDA" in output and "Synchronous" in output
        assert "less communication" in output

    def test_compare_with_compression_flags(self, capsys):
        exit_code = main(
            [
                "compare",
                "--workload", "lenet",
                "--workers", "3",
                "--max-steps", "40",
                "--compressor", "topk",
                "--compression-ratio", "0.1",
                "--error-feedback",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "compression=topk(ratio=0.1)+ef" in output

    def test_compare_rejects_out_of_range_compression_ratio(self, capsys):
        exit_code = main(
            [
                "compare",
                "--workload", "lenet",
                "--compressor", "topk",
                "--compression-ratio", "1.5",
            ]
        )
        assert exit_code == 2
        assert "ratio" in capsys.readouterr().out

    def test_compression_command_registered(self, capsys):
        with pytest.raises(SystemExit):
            main(["compression", "--help"])
        output = capsys.readouterr().out
        assert "--full" in output

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_figure_commands_registered(self, capsys):
        # Only check that the parser accepts the figure names; running a full
        # figure is covered by the benchmark suite.
        with pytest.raises(SystemExit):
            main(["figure3", "--help"])
        output = capsys.readouterr().out
        assert "--full" in output


class TestServeCommand:
    SERVE = ["serve", "--workload", "lenet", "--workers", "2", "--updates", "20"]

    def test_open_loop_poisson_run(self, capsys):
        overloaded = ["--arrival-rate", "2", "--queue-capacity", "2", "--service-seconds", "0.5"]
        assert main([*self.SERVE, "--arrival", "poisson", *overloaded]) == 0
        output = capsys.readouterr().out
        assert "served run: fda-poisson-rate2-q2-drop-uniform-svc0.5 on lenet (K=2)" in output
        assert "updates served   : 20 / " in output
        dropped = re.search(r"lost +: (\d+) dropped, 0 stale-rejected", output)
        assert dropped and int(dropped.group(1)) > 0
        assert "latency p50/p95/p99 :" in output

    def test_closed_loop_run(self, capsys):
        assert main([*self.SERVE, "--arrival", "closed"]) == 0
        output = capsys.readouterr().out
        assert "served run: fda-closed-qinf-drop-uniform on lenet (K=2)" in output
        assert "updates served   : 20 / 20 offered" in output
        assert "lost             : 0 dropped, 0 stale-rejected" in output
        assert "latency p50/p95/p99 : 0.0000 / 0.0000 / 0.0000 s" in output

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trace", "arrivals.jsonl"],
            ["--queue-policy", "drop"],
            ["--poly-alpha", "0.5"],
            ["--arrival", "deterministic"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_deleted_load_flags_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*self.SERVE, *flags])
        assert exit_info.value.code == 2


def normalised(text: str) -> list:
    """Non-empty lines with runs of whitespace collapsed (column widths are cosmetic)."""
    return [" ".join(line.split()) for line in text.splitlines() if line.strip()]


RESULTS_HEADER = [
    "strategy runs reach comm (median) steps (median) syncs (median) wall-clock accuracy",
    "----------- ---- ----- ------------- -------------- -------------- ---------- --------",
]
FDA_VS_BSP = "LinearFDA vs Synchronous: {}x less communication, 1.0x less computation (reach rates: 0% vs 0%)"


def short_spec(monkeypatch, name: str, max_steps: int = 20):
    """Shrink a registry entry's run budget so its command fits a unit test."""
    from dataclasses import replace

    from repro.experiments import registry
    from repro.experiments.run import TrainingRun

    real = getattr(registry, name)
    run = TrainingRun(accuracy_target=0.9, max_steps=max_steps, eval_every_steps=max_steps)
    short = lambda quick=True: replace(real(quick), run=run)  # noqa: E731
    monkeypatch.setattr(registry, name, short)
    if name in registry.ALL_FIGURES:
        monkeypatch.setitem(registry.ALL_FIGURES, name, short)


class TestFrozenTables:
    """Stdout recorded at ``dc748c1``, when each command hand-rolled its run loop and table.

    Every command now lowers its grid through ``repro.experiments.sweep`` and
    prints through one table printer; the tokens must not move.  The FDA rows'
    state bytes, totals and wall-clocks were re-recorded when quiet steps
    stopped sending their states; steps, syncs and accuracies did not move.
    """

    def test_compare(self, capsys):
        assert main(
            ["compare", "--workload", "lenet", "--theta", "0.5", "--workers", "3",
             "--max-steps", "40", "--network", "fl"]
        ) == 0
        assert normalised(capsys.readouterr().out) == [
            "fabric: topology=star network=fl compression=none "
            "dtype=float64 faults=none",
            *RESULTS_HEADER,
            "LinearFDA 1 0% 141.94 KB 40 1 40.30 s 0.340",
            "SketchFDA 1 0% 138.67 KB 40 0 41.80 s 0.453",
            "Synchronous 1 0% 5.67 MB 40 40 44.06 s 0.357",
            "FedAdam 1 0% 567.36 KB 40 4 40.41 s 0.130",
            FDA_VS_BSP.format("40.0"),
        ]

    def test_fabric(self, capsys):
        assert main(
            ["fabric", "--workload", "lenet", "--theta", "0.25", "--workers", "3",
             "--max-steps", "20", "--topologies", "star", "ring", "--networks", "fl", "hpc"]
        ) == 0
        header = [
            "topology network model-sync fda-state total wall-clock s/round",
            "-" * 86,
        ]
        assert normalised(capsys.readouterr().out) == [
            "=== LinearFDA (theta=0.25, K=3) ===",
            *header,
            "star fl 141.84 KB 48.00 B 141.89 KB 20.20 s 1.010s",
            "star hpc 141.84 KB 48.00 B 141.89 KB 20.00 s 1.000s",
            "ring fl 189.12 KB 64.00 B 189.18 KB 20.40 s 1.020s",
            "ring hpc 189.12 KB 64.00 B 189.18 KB 20.00 s 1.000s",
            "=== Synchronous (theta=0.25, K=3) ===",
            *header,
            "star fl 2.84 MB 0.00 B 2.84 MB 22.03 s 1.102s",
            "star hpc 2.84 MB 0.00 B 2.84 MB 20.00 s 1.000s",
            "ring fl 3.78 MB 0.00 B 3.78 MB 24.02 s 1.201s",
            "ring hpc 3.78 MB 0.00 B 3.78 MB 20.01 s 1.000s",
        ]

    def test_faults_one_crash_rate_by_two_loss_rates(self, capsys):
        assert main(
            ["faults", "--workload", "lenet", "--theta", "0.5", "--workers", "3",
             "--max-steps", "20", "--crash-rates", "0.1", "--loss-rates", "0", "0.05"]
        ) == 0
        assert normalised(capsys.readouterr().out) == [
            "fault-degradation grid (theta=0.5, K=3)",
            "crash loss strategy bytes steps acc reached retx crashes",
            "-" * 86,
            "0.10 0.00 LinearFDA 284.98 KB 20 0.217 False 0.00 B 7",
            "0.10 0.00 Synchronous 4.11 MB 20 0.267 False 0.00 B 7",
            "0.10 0.05 LinearFDA 285.06 KB 20 0.217 False 80.00 B 7",
            "0.10 0.05 Synchronous 4.35 MB 20 0.267 False 236.40 KB 7",
        ]

    def test_faults_rejects_out_of_range_rates(self, capsys):
        assert main(["faults", "--crash-rates", "1.5"]) == 2
        assert "crash_rate" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(
            ["sweep", "--workload", "lenet", "--workers", "3", "--max-steps", "20",
             "--thetas", "0.25", "16", "--seeds", "0", "1"]
        ) == 0
        assert normalised(capsys.readouterr().out) == [
            "theta seed bytes steps syncs acc reached",
            "-" * 59,
            "0.25 0 141.89 KB 20 1 0.267 False",
            "16.00 0 0.00 B 20 0 0.270 False",
            "0.25 1 141.98 KB 20 1 0.267 False",
            "16.00 1 0.00 B 20 0 0.250 False",
            "cache: 4 cells: 0 cache hits (0%), 4 executed",
        ]

    def test_compression(self, capsys, monkeypatch):
        short_spec(monkeypatch, "compression_sweep")
        assert main(["compression"]) == 0
        header = ["compression model-sync total steps acc reached", "-" * 77]
        assert normalised(capsys.readouterr().out) == [
            "compression: Payload compression x dynamic averaging: bytes per reached accuracy",
            "=== LinearFDA ===",
            *header,
            "none 0.00 B 0.00 B 20 0.253 False",
            "quantization(bits=8) 0.00 B 0.00 B 20 0.253 False",
            "topk(ratio=0.1)+ef 0.00 B 0.00 B 20 0.253 False",
            "=== Synchronous ===",
            *header,
            "none 3.78 MB 3.78 MB 20 0.237 False",
            "quantization(bits=8) 946.56 KB 946.56 KB 20 0.237 False",
            "topk(ratio=0.1)+ef 756.48 KB 756.48 KB 20 0.233 False",
        ]

    def test_figure3_comparison_then_its_declared_grids(self, capsys, monkeypatch):
        short_spec(monkeypatch, "figure3")
        assert main(["figure3"]) == 0
        lines = normalised(capsys.readouterr().out)

        def setting(label, linear, sketch, synchronous, fedadam):
            return [
                f"--- setting: {label} ---",
                *RESULTS_HEADER,
                f"LinearFDA 1 0% 0.00 B 20 0 20.00 s {linear}",
                f"SketchFDA 1 0% 0.00 B 20 0 20.00 s {sketch}",
                f"Synchronous 1 0% 4.73 MB 20 20 20.00 s {synchronous}",
                f"FedAdam 1 0% {fedadam}",
                # LinearFDA sent nothing, so there is no ratio to print.
                "LinearFDA vs Synchronous: 0.00 B vs 4.73 MB of communication, "
                "1.0x less computation (reach rates: 0% vs 0%)",
            ]

        comparison = [
            "figure3: LeNet-5 on MNIST: communication vs computation across heterogeneity settings",
            *setting("iid", "0.307", "0.307", "0.293", "945.60 KB 24 4 24.00 s 0.193"),
            *setting("noniid-label", "0.253", "0.253", "0.223", "709.20 KB 24 3 24.00 s 0.223"),
            *setting("noniid-60", "0.223", "0.223", "0.270", "945.60 KB 24 4 24.00 s 0.267"),
        ]
        # The comparison tables are what the command printed before ...
        assert lines[: len(comparison)] == comparison
        # ... and the spec's declared grid follows: 3 settings x 2 Θ x the two
        # FDA variants.  Every step of these short runs is quiet, so no FDA
        # cell sends a byte; the SketchFDA registry geometry is pinned by
        # test_grid_lowering, which records each step's state width.
        grid = lines[len(comparison) :]
        assert grid[:2] == [
            "=== theta grid ===",
            "workload theta strategy bytes steps syncs acc reached",
        ]
        rows = grid[3:]
        assert len(rows) == 3 * 2 * 2
        assert rows[0] == "iid 4.0 LinearFDA 0.00 B 20 0 0.307 False"
        assert rows[-1] == "noniid-60 8.0 SketchFDA 0.00 B 20 0 0.223 False"
        assert all(" 0.00 B " in row for row in rows)

    def test_figure_without_the_named_pair_prints_no_comparison_line(self, capsys, monkeypatch):
        from dataclasses import replace

        from repro.experiments import registry

        short_spec(monkeypatch, "figure5", max_steps=2)
        short = registry.ALL_FIGURES["figure5"]

        def without_bsp(quick=True):
            spec = short(quick)
            factories = {k: v for k, v in spec.strategy_factories.items() if "FDA" in k}
            return replace(spec, strategy_factories=factories, fda_thetas=())

        monkeypatch.setitem(registry.ALL_FIGURES, "figure5", without_bsp)
        assert main(["figure5"]) == 0
        output = capsys.readouterr().out
        assert "LinearFDA" in output and " vs " not in output


class TestSweepCommand:
    ARGS = ["sweep", "--workload", "lenet", "--workers", "3", "--max-steps", "20"]

    def test_cold_then_warm_prints_the_identical_table(self, capsys, tmp_path):
        args = [*self.ARGS, "--thetas", "0.25", "16", "--seeds", "0", "1",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert main(args) == 0
        warm = capsys.readouterr().out
        cold_table, cold_summary = cold.split("\ncache: ")
        warm_table, warm_summary = warm.split("\ncache: ")
        assert warm_table == cold_table
        assert cold_summary.startswith("4 cells: 0 cache hits (0%), 4 executed")
        assert warm_summary.startswith("4 cells: 4 cache hits (100%), 0 executed")
        assert "(4 records)" in warm_summary

    def test_the_whole_grid_is_one_batch_for_the_executor(self, capsys, monkeypatch):
        # Drift (ii): the command once called execute() once per seed, so the
        # executor never saw more than one pending cell per call and --jobs
        # had nothing to spread.
        from repro.experiments.executor import SweepExecutor, fork_parallelism_available

        batches = []
        real_execute = SweepExecutor.execute

        def recording_execute(self, cells):
            batches.append(len(cells))
            return real_execute(self, cells)

        monkeypatch.setattr(SweepExecutor, "execute", recording_execute)
        assert main([*self.ARGS, "--thetas", "4", "--seeds", "0", "1", "--jobs", "2"]) == 0
        assert batches == [2]
        summary = capsys.readouterr().out.split("cache: ")[1]
        if fork_parallelism_available():
            assert "2 executed (2 in parallel)" in summary
