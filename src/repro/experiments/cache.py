"""Content-addressed run cache: canonical fingerprints and the JSONL store.

The paper's evaluation aggregates over 1000 training runs; the streaming
sweep executor (:mod:`repro.experiments.executor`) makes such grids tractable
by never running the same cell twice.  This module provides the two halves of
that guarantee:

* **Canonical fingerprints** — :func:`canonical_value` reduces any
  configuration object (dataclasses, numpy arrays, optimizer/strategy
  instances, nested dicts) to deterministic JSON-compatible structure, and
  :func:`fingerprint_digest` hashes it.  Datasets and models are digested by
  *content* (:func:`dataset_digest`, :func:`model_digest`): two separately
  constructed but equal workloads map to the same key, while any single-field
  change — a different Θ, seed, partition scheme, dtype, topology — produces
  a different one.  :data:`CODE_VERSION` is salted into every key so cached
  results are invalidated wholesale when run semantics change.

* **The run store** — :class:`RunStore` persists one JSON line per completed
  cell into ``runs.jsonl`` next to a ``manifest.json``.  Appends are
  write-then-fsync so a killed sweep loses at most the in-flight cell; the
  loader tolerates a truncated trailing line, which is exactly the crash
  artifact an append-mode writer can leave.  The manifest is written via
  temp-file + fsync + atomic rename.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
from functools import lru_cache
from numbers import Integral
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.exceptions import ExperimentError

PathLike = Union[str, Path]

#: Salt mixed into every run key.  Bump whenever the semantics of a training
#: run change (training loop, byte accounting, RNG layout, ...) so that
#: results cached under the old semantics can never be replayed as current.
#: v6: an optimizer's canonical form carries its ``learning_rate`` where it
#: carried a schedule object, and Local-SGD's spec carries ``tau`` as an int.
#: v7: a lockstep FDA step whose rows all stay inside Θ sends no states.
#: v8: one engine — ``WorkloadConfig.execution`` is always ``"batched"``.
#: v9: Θ is fixed for a run — an FDA spec drops its Θ-controller entry.
#: v10: a fault plan is crash, loss and a seed (seven fields and a stored fault
#: log's spike and corruption keys gone), and a run budget's spec drops its
#: fixed train-accuracy sample count.
#: v11: one loss and fixed constants — a workload drops its ``loss`` field, a
#: model digest its layers' bias switch and batch-norm constants, an optimizer
#: its betas, epsilon and name; Synchronous's spec gains ``tau``; an int in a
#: float field is written as a float; a null fault plan is ``None``.
#: v12: a workload drops its straggler-profile field, a serving config its
#: trace-file and polynomial-rule fields.
CODE_VERSION = "sweep-cache-v12"

#: Maximum nesting depth :func:`canonical_value` will descend before
#: summarizing the remainder as a type token (guards against cycles).
_MAX_DEPTH = 8


def _json_default(value: Any):
    """JSON encoder fallback: numpy scalars/arrays → plain Python."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _array_token(array: np.ndarray) -> Dict[str, object]:
    data = np.ascontiguousarray(array)
    return {
        "__ndarray__": hashlib.sha256(data).hexdigest(),
        "shape": list(data.shape),
        "dtype": str(data.dtype),
    }


@lru_cache(maxsize=None)
def _float_fields(cls: type) -> frozenset:
    """The fields of dataclass ``cls`` annotated ``float``."""
    return frozenset(
        field.name for field in dataclasses.fields(cls) if field.type in (float, "float")
    )


def canonical_value(value: Any, depth: int = 0) -> Any:
    """Reduce ``value`` to a deterministic JSON-compatible structure.

    Primitives pass through, numpy scalars unwrap, arrays become content
    digests, dataclasses and mappings recurse field-wise (an int in a
    ``float`` field is written as the float it equals, so ``rate=1`` and
    ``rate=1.0`` are one configuration), and arbitrary
    objects fall back to their class name plus their public attributes
    (objects exposing ``spec()`` or ``describe()`` use those instead).
    Callables reduce to their qualified name — factories must therefore be
    fingerprinted through what they *produce* (see ``model_digest``), never
    through the callable itself.
    """
    if depth > _MAX_DEPTH:
        return f"<max-depth:{type(value).__name__}>"
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return _array_token(value)
    if isinstance(value, bytes):
        return {"__bytes__": hashlib.sha256(value).hexdigest()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        floats = _float_fields(type(value))
        fields = {}
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            if field.name in floats and isinstance(item, Integral) and not isinstance(item, bool):
                item = float(item)
            fields[field.name] = canonical_value(item, depth + 1)
        return {"__class__": type(value).__name__, **fields}
    if isinstance(value, dict):
        return {
            str(key): canonical_value(value[key], depth + 1)
            for key in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple)):
        return [canonical_value(item, depth + 1) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(
            (canonical_value(item, depth + 1) for item in value),
            key=lambda item: json.dumps(item, sort_keys=True, default=_json_default),
        )
    spec = getattr(value, "spec", None)
    if callable(spec) and not isinstance(value, type):
        return canonical_value(spec(), depth + 1)
    describe = getattr(value, "describe", None)
    if callable(describe) and not isinstance(value, type):
        return {"__class__": type(value).__name__, "describe": describe()}
    if inspect.isroutine(value) or isinstance(value, type):
        return {"__callable__": getattr(value, "__qualname__", repr(type(value)))}
    if hasattr(value, "__dict__"):
        # Generic objects — optimizers among them — canonicalize by class
        # plus public attributes, which is what distinguishes two differently
        # configured instances.
        public = {
            key: canonical_value(item, depth + 1)
            for key, item in sorted(vars(value).items())
            if not key.startswith("_")
        }
        return {"__class__": type(value).__name__, **public}
    if callable(value):
        return {"__callable__": getattr(value, "__qualname__", repr(type(value)))}
    return {"__class__": type(value).__name__}


def fingerprint_digest(fingerprint: Any) -> str:
    """SHA-256 hex digest of a canonicalized fingerprint structure."""
    payload = json.dumps(
        canonical_value(fingerprint),
        sort_keys=True,
        separators=(",", ":"),
        default=_json_default,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def dataset_digest(dataset) -> str:
    """Content digest of a dataset: samples, labels, shape, class count.

    The name is deliberately excluded — the key addresses *content*, so two
    identically generated datasets under different labels still share cached
    runs (the workload name is fingerprinted separately).
    """
    digest = hashlib.sha256()
    x = np.ascontiguousarray(dataset.x)
    y = np.ascontiguousarray(dataset.y)
    digest.update(str((x.shape, str(x.dtype), y.shape, str(y.dtype))).encode())
    # Hash the buffers in place: ``tobytes()`` would copy the whole set.
    digest.update(x)
    digest.update(y)
    digest.update(str(int(dataset.num_classes)).encode())
    return digest.hexdigest()


def model_digest(model) -> str:
    """Content digest of a *pristine* built model.

    Covers the layer structure (class names and public configuration) and
    the initial parameter/buffer vectors, so two factories producing
    bit-identical models share a digest while any architectural or
    initialization change breaks it.
    """
    structure = [
        {
            "layer": type(layer).__name__,
            "config": {
                key: canonical_value(item)
                for key, item in sorted(vars(layer).items())
                if not key.startswith("_")
                and key not in ("built", "input_shape", "output_shape")
                and (item is None or isinstance(item, (bool, int, float, str, tuple)))
            },
        }
        for layer in model.layers
    ]
    digest = hashlib.sha256()
    digest.update(
        json.dumps(structure, sort_keys=True, default=_json_default).encode("utf-8")
    )
    params = np.ascontiguousarray(model.get_parameters())
    buffers = np.ascontiguousarray(model.get_buffers())
    digest.update(str((params.shape, str(params.dtype))).encode())
    digest.update(params)
    digest.update(str((buffers.shape, str(buffers.dtype))).encode())
    digest.update(buffers)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# The incremental JSONL result store
# ---------------------------------------------------------------------------

_MANIFEST_NAME = "manifest.json"
_RUNS_NAME = "runs.jsonl"


class RunStore:
    """Append-only content-addressed result store (``runs.jsonl`` + manifest).

    Each completed cell is one JSON line keyed by its run key; loading the
    index replays the file and keeps the last record per key, so a ``--force``
    re-run simply appends fresh records that shadow the old ones.  The writer
    appends-then-fsyncs, and the reader skips unparseable lines, so a sweep
    killed mid-write resumes exactly at its last durable cell.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._ensure_manifest()

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / _MANIFEST_NAME

    @property
    def runs_path(self) -> Path:
        return self.directory / _RUNS_NAME

    # -- manifest ----------------------------------------------------------

    def _ensure_manifest(self) -> None:
        if self.manifest_path.exists():
            try:
                manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                manifest = None
            if isinstance(manifest, dict) and manifest.get("format") == "repro.sweep-cache":
                return
            raise ExperimentError(
                f"{self.manifest_path} exists but is not a repro sweep-cache manifest; "
                "refusing to reuse the directory"
            )
        self._write_manifest(
            {
                "format": "repro.sweep-cache",
                "version": 1,
                "code_version": CODE_VERSION,
                "runs_file": _RUNS_NAME,
            }
        )

    def _write_manifest(self, manifest: Dict[str, object]) -> None:
        # Atomic replace: a crash mid-write can never leave a half manifest.
        temp_path = self.manifest_path.with_suffix(".json.tmp")
        with temp_path.open("w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, self.manifest_path)

    # -- records -----------------------------------------------------------

    def append(
        self,
        key: str,
        result_payload: Dict[str, object],
        label: str = "",
        tags: Optional[Dict[str, object]] = None,
    ) -> None:
        """Durably append one completed cell (write + flush + fsync)."""
        record = {
            "format": "repro.run-record",
            "version": 1,
            "key": str(key),
            "label": str(label),
            "tags": dict(tags or {}),
            "result": result_payload,
        }
        line = json.dumps(record, sort_keys=True, default=_json_default)
        with self.runs_path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load_index(self) -> Dict[str, Dict[str, object]]:
        """Replay ``runs.jsonl`` into a key → record map (last record wins).

        Unparseable lines — the truncated tail a killed writer leaves — and
        records without a key/result are skipped rather than raised, so a
        crashed sweep's store always loads.
        """
        index: Dict[str, Dict[str, object]] = {}
        if not self.runs_path.exists():
            return index
        with self.runs_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                key = record.get("key")
                if not isinstance(key, str) or not isinstance(record.get("result"), dict):
                    continue
                index[key] = record
        return index

    def __len__(self) -> int:
        return len(self.load_index())

    def __contains__(self, key: str) -> bool:
        return key in self.load_index()
