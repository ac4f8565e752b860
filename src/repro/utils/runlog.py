"""Lightweight structured run logging.

The experiment harness records one entry per evaluation point (epoch or step)
with the metrics the paper plots: training/testing accuracy, cumulative
communication bytes, and cumulative in-parallel learning steps.  The logger is
an append-only list of dictionaries, with helpers to extract metric series and
to render a compact text table, so no external logging framework is needed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional


class RunLogger:
    """Append-only structured log for a single training run."""

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self._entries: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> Dict[str, Any]:
        return self._entries[index]

    def log(self, **metrics: Any) -> Dict[str, Any]:
        """Append one entry and return it."""
        entry = dict(metrics)
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> List[Dict[str, Any]]:
        """All logged entries, in insertion order (a shallow copy)."""
        return list(self._entries)

    def series(self, key: str, default: Optional[float] = None) -> List[Any]:
        """Return the values logged under ``key`` across all entries."""
        return [entry.get(key, default) for entry in self._entries]

    def last(self, key: str, default: Optional[float] = None) -> Any:
        """Return the most recent value logged under ``key``."""
        for entry in reversed(self._entries):
            if key in entry:
                return entry[key]
        return default

    def keys(self) -> List[str]:
        """Return the union of metric names across entries (sorted)."""
        names = set()
        for entry in self._entries:
            names.update(entry.keys())
        return sorted(names)
