"""A :class:`~repro.experiments.run.RunResult` as plain JSON types, and back.

This is the ``result`` half of the ``{tags, result}`` record the sweep
executor appends to its :class:`~repro.experiments.cache.RunStore` — the
store is the one on-disk format for finished runs; this module only converts
a result (including its per-evaluation history) to a ``json.dumps``-able dict
and rebuilds a fully usable object from one, so aggregation, KDE summaries and
reporting work identically on fresh and replayed results.

Both directions are derived from ``dataclasses.fields(RunResult)``: a field
added to the dataclass is written and read without being named here.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict

from repro.exceptions import ExperimentError
from repro.experiments.run import RunResult
from repro.utils.runlog import RunLogger

#: Every scalar field, in declaration order (``history`` travels as its entries).
_FIELDS = tuple(field.name for field in fields(RunResult) if field.name != "history")

#: The seed format — everything declared before the fabric's
#: ``virtual_seconds`` — must be present in a payload; fields added since are
#: optional on load, so a record written before a field existed still
#: deserializes with that field's default.
_REQUIRED = _FIELDS[: _FIELDS.index("virtual_seconds")]


def result_to_dict(result: RunResult) -> Dict[str, object]:
    """Convert a :class:`RunResult` (including its history) to plain JSON types."""
    payload: Dict[str, object] = {name: getattr(result, name) for name in _FIELDS}
    payload["history"] = result.history.entries
    return payload


def result_from_dict(payload: Dict[str, object]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output."""
    missing = [name for name in _REQUIRED if name not in payload]
    if missing:
        raise ExperimentError(f"run-result payload is missing fields: {missing}")
    history = RunLogger(name=f"{payload['strategy']}-{payload['workload']}")
    for index, entry in enumerate(payload.get("history", [])):
        if not isinstance(entry, dict):
            raise ExperimentError(
                f"history entry {index} is not an object: got {type(entry).__name__}"
            )
        bad_keys = [key for key in entry if not isinstance(key, str)]
        if bad_keys:
            raise ExperimentError(
                f"history entry {index} has non-string metric names: {bad_keys}"
            )
        try:
            history.log(**entry)
        except TypeError as error:
            raise ExperimentError(
                f"history entry {index} is malformed: {error}"
            ) from error
    return RunResult(
        history=history, **{name: payload[name] for name in _FIELDS if name in payload}
    )
