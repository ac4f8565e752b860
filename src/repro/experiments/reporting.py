"""Text reporting of experiment results in the paper's units.

Benchmarks and examples print these tables so their stdout can be compared
side-by-side with the paper's figures: strategies as rows, communication in
GB, computation in in-parallel learning steps, plus the pairwise ratios the
paper quotes ("1-2 orders of magnitude less communication").
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Tuple

from repro.experiments.results import ResultsTable, StrategySummary, compare_strategies
from repro.experiments.run import RunResult
from repro.utils.formatting import format_bytes, format_count, format_duration


def format_results_table(results: Sequence[RunResult], reached_only: bool = True) -> str:
    """Per-strategy summary table (one row per strategy)."""
    table = ResultsTable(results)
    summaries = table.summaries(reached_only=reached_only)
    return format_summaries(summaries)


def format_summaries(summaries: Iterable[StrategySummary]) -> str:
    """Render :class:`StrategySummary` rows as a fixed-width text table."""
    header = [
        "strategy",
        "runs",
        "reach",
        "comm (median)",
        "steps (median)",
        "syncs (median)",
        "wall-clock",
        "accuracy",
    ]
    rows: List[List[str]] = [header]
    for summary in summaries:
        rows.append(
            [
                summary.strategy,
                str(summary.num_runs),
                f"{summary.reach_rate:.0%}",
                format_bytes(summary.median_communication_bytes),
                format_count(summary.median_parallel_steps),
                format_count(summary.median_synchronizations),
                format_duration(summary.median_virtual_seconds),
                f"{summary.median_final_accuracy:.3f}",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


#: One table column: its title, its ``str.format`` alignment-and-width (e.g.
#: ``">12"``) and the text it shows for a point.
Column = Tuple[str, str, Callable[[object], object]]


def format_points_table(points: Iterable, columns: Sequence[Column]) -> str:
    """Render sweep points (or anything else row-like) as a fixed-width table."""
    header = "".join(f"{title:{align}}" for title, align, _ in columns)
    rows = [
        "".join(f"{text(point)!s:{align}}" for _, align, text in columns) for point in points
    ]
    return "\n".join([header, "-" * len(header), *rows])


def format_comparison(
    results: Sequence[RunResult], candidate: str, baseline: str
) -> str:
    """One-line comparison: how much cheaper the candidate is than the baseline."""
    ratios = compare_strategies(results, candidate, baseline)
    communication = f"{ratios['communication_ratio']:.1f}x less communication"
    if not ratios["candidate_communication_bytes"]:
        sent = format_bytes(ratios["baseline_communication_bytes"])
        communication = f"{format_bytes(0)} vs {sent} of communication"
    return (
        f"{candidate} vs {baseline}: {communication}, "
        f"{ratios['computation_ratio']:.1f}x less computation "
        f"(reach rates: {ratios['candidate_reach_rate']:.0%} vs "
        f"{ratios['baseline_reach_rate']:.0%})"
    )


def format_run_history(result: RunResult, max_rows: int = 12) -> str:
    """Render a run's evaluation history (used by the Figure-7 style outputs)."""
    entries = result.history.entries
    if not entries:
        return f"<no evaluations recorded for {result.strategy}>"
    step = max(1, len(entries) // max_rows)
    selected = entries[::step]
    if entries[-1] not in selected:
        selected.append(entries[-1])
    lines = [f"{result.strategy} on {result.workload} (target {result.accuracy_target}):"]
    for entry in selected:
        parts = [
            f"steps={entry.get('steps', 0):>6}",
            f"comm={format_bytes(entry.get('communication_bytes', 0))}",
            f"test_acc={entry.get('test_accuracy', 0.0):.3f}",
        ]
        if "train_accuracy" in entry:
            parts.append(f"train_acc={entry['train_accuracy']:.3f}")
        lines.append("  " + "  ".join(parts))
    return "\n".join(lines)
