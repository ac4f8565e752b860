"""Run-level checkpoint/restore for the whole training plane.

A :class:`ClusterCheckpoint` captures everything a
:class:`~repro.experiments.run.TrainingRun` mutates while training as one file.
It enumerates none of it: the cluster serialises itself
(:meth:`SimulatedCluster.state_dict
<repro.distributed.cluster.SimulatedCluster.state_dict>` — all K worker slots,
the optimizer's ``(K, d)`` state and step counts among their rows, the shared
model, collective compression, timeline, fabric ledgers, fault
injector, each saved by the object that owns it), the strategy its protocol
state (``checkpoint_state``), and the run loop hands over its own counters.
This module adds the header, the compatibility checks, the file format
and the atomic write.  Restoring into a freshly constructed cluster/strategy of
the same configuration continues the trajectory *bit-exactly*, with or without
collective compression: the round-trip tests interrupt a run mid-flight and
assert the continued history equals an uninterrupted run's, to the last bit.
"The same configuration" is checked, never assumed: the header records the
cluster's shape, its optimizer, its fault plan and the strategy's ``spec()``,
and a target that differs in any of them is refused by name.

A cluster carrying a client population is refused at restore (never at
capture or save; :mod:`repro.composition`'s population × resume row): the
checkpoint does not hold the cohort sampler's stream, the client state store
or the population's counters, so a resumed population run would diverge.

The file is a magic tag, the header's 8-byte length, the header (the payload
as canonical JSON, each array a reference ``{"__ndarray__": index, "dtype",
"shape"}``), then each array's raw C-order bytes, written from and read into
its own buffer: a snapshot costs its bytes, with no decimal rounding.  Writes
are atomic — tmp file in the target directory, fsync, rename, the sweep
manifest's discipline — and a failed save leaves no file behind.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.composition import check_composition, features
from repro.exceptions import ExperimentError
from repro.faults.plan import FaultPlan

PathLike = Union[str, Path]

FORMAT = "repro.cluster_checkpoint"
#: A checkpoint file's first bytes.
MAGIC = FORMAT.encode("ascii") + b"\0"
#: Version 2 added the collective-compression state (reference model, error-
#: feedback residuals, kernel stream).  Version 3 holds the shared model once,
#: as the cluster's ``shared_parameters`` — no FDA ``reference``, compression
#: ``reference`` or server-round ``global_parameters`` copies — and drops the
#: timeline's second communication-seconds and churn ledgers (the fabric and
#: the fault log hold them).  Version 4 carries FDA's local states as one
#: ``(K, s)`` table with its ``reported`` mask, and the strategy's
#: configuration.  Version 5 records the fault plan in the header, and the
#: injector state holds two streams (churn, links) and no spike or corruption
#: log.  Version 6 writes arrays as raw bytes after a JSON header, not as
#: base64 inside one JSON document.  Version 7 holds the optimizer's state as
#: one ``(K, d)`` array per state name and a ``(K,)`` step-count array, not K
#: per-worker dicts, and records the optimizer's configuration in the header.
#: Any other version is refused.
VERSION = 7


# -- file format ----------------------------------------------------------------


def _split(value, arrays: list, where: str):
    """``value`` in JSON types, each array appended to ``arrays`` and replaced by its reference.

    Keys go sorted, as the header lists them, so :func:`_join` meets the
    references in index order; a value with no JSON or raw-byte form is refused.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "biufc":  # numbers and bools
        arrays.append(value)
        return {"__ndarray__": len(arrays) - 1, "dtype": value.dtype.str, "shape": list(value.shape)}
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {key: _split(value[key], arrays, f"{where}[{key!r}]") for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_split(item, arrays, f"{where}[{index}]") for index, item in enumerate(value)]
    if value is None or isinstance(value, (str, int, float)):
        return value
    kind = f"{value.dtype} array" if isinstance(value, np.ndarray) else type(value).__name__
    raise ExperimentError(f"cannot checkpoint {where}: a {kind} has no JSON or raw-byte form")


def _declared(reference: dict, path: Path) -> tuple:
    """A header reference's ``(dtype, shape)``, refused by name unless a save could write it."""
    shape, name = reference.get("shape"), reference.get("dtype")
    if not isinstance(shape, list) or len(shape) > 64 or any(  # numpy: at most 64 axes
        type(n) is not int or n < 0 for n in shape
    ):
        raise ExperimentError(f"{path} has an array of unreadable shape {shape!r}")
    try:
        dtype = np.dtype(name) if isinstance(name, str) else None
    except (TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.kind not in "biufc":  # what _split writes: numbers and bools
        raise ExperimentError(f"{path} has an array of unreadable dtype {name!r}")
    return dtype, shape


def _join(value, read):
    """Inverse of :func:`_split`: each reference becomes ``read(reference)`` (lists stay lists)."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return read(value)
        return {key: _join(item, read) for key, item in value.items()}
    if isinstance(value, list):
        return [_join(item, read) for item in value]
    return value


def _require_current(payload, source: str) -> None:
    """Refuse anything that is not a checkpoint of exactly :data:`VERSION`."""
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise ExperimentError(f"{source} is not a cluster checkpoint")
    if payload.get("version") != VERSION:
        raise ExperimentError(
            f"{source} is a version {payload.get('version')} cluster checkpoint; "
            f"only version {VERSION} can be restored"
        )


def _canonical(config) -> str:
    """``config`` as canonical JSON: the configuration a resume must match."""
    from repro.experiments.cache import canonical_value  # that package imports this one

    return json.dumps(canonical_value(config), sort_keys=True)


def _fault_plan(cluster) -> str:
    """The cluster's fault plan, canonical; a cluster without an injector runs the null plan."""
    return _canonical(cluster.faults.plan if cluster.faults is not None else FaultPlan())


def _check_config(what: str, recorded: str, current: str) -> None:
    """Refuse a ``what`` configured differently from the captured one, naming the fields."""
    if current == recorded:
        return
    then, now = json.loads(recorded), json.loads(current)

    def shown(config: dict, key: str) -> str:
        # A field only one side has differs even when the other side's is None.
        return repr(config[key]) if key in config else "absent"

    differences = "; ".join(
        f"{key}: {shown(then, key)} in the checkpoint, {shown(now, key)} here"
        for key in sorted(set(then) | set(now))
        if shown(then, key) != shown(now, key)
    )
    raise ExperimentError(
        f"the checkpoint was taken from a differently configured {what} ({differences})"
    )


class ClusterCheckpoint:
    """One captured snapshot of a cluster + strategy + run loop."""

    def __init__(self, payload: dict) -> None:
        self.payload = payload

    # -- capture -----------------------------------------------------------------

    @classmethod
    def capture(cls, cluster, strategy=None, run_state: Optional[dict] = None) -> "ClusterCheckpoint":
        """Snapshot ``cluster`` (and optionally a strategy and run-loop state).

        Everything is copied at capture time, so the checkpoint stays valid
        while training continues.
        """
        payload = {
            "format": FORMAT,
            "version": VERSION,
            "num_workers": cluster.num_workers,
            "model_dimension": cluster.model_dimension,
            "dtype": cluster.dtype_name,
            "compression_label": cluster.compression_label,
            "fault_plan": _fault_plan(cluster),
            "optimizer_config": _canonical(cluster.optimizer),
            **cluster.state_dict(),
            "strategy": strategy.checkpoint_state() if strategy is not None else None,
            "strategy_config": _canonical(strategy.spec()) if strategy is not None else None,
            "run_state": run_state,
        }
        return cls(payload)

    # -- restore -----------------------------------------------------------------

    def restore(self, cluster, strategy=None) -> Optional[dict]:
        """Write the snapshot into a built (or used) cluster (and strategy).

        The target must match the captured configuration (worker count, model
        dimension, dtype, compression, optimizer, fault plan, and the
        strategy's ``spec()``) and carry no client population (see the module
        docstring); a mismatch is refused before anything is written.  All
        state arrays are written *in place* so the parameter plane's row
        bindings stay intact.  Returns the captured run-loop state (or ``None``).
        """
        payload = self.payload
        _require_current(payload, "the payload")
        check_composition("resume", *features(cluster))
        if int(payload["num_workers"]) != cluster.num_workers:
            raise ExperimentError(
                f"checkpoint has {payload['num_workers']} workers, cluster has "
                f"{cluster.num_workers}"
            )
        if int(payload["model_dimension"]) != cluster.model_dimension:
            raise ExperimentError(
                f"checkpoint model dimension {payload['model_dimension']} != "
                f"{cluster.model_dimension}"
            )
        if payload["dtype"] != cluster.dtype_name:
            raise ExperimentError(
                f"checkpoint dtype {payload['dtype']} != cluster dtype {cluster.dtype_name}"
            )
        if payload["compression_label"] != cluster.compression_label:
            raise ExperimentError(
                f"checkpoint compression {payload['compression_label']!r} != cluster "
                f"compression {cluster.compression_label!r}"
            )
        _check_config("optimizer", payload["optimizer_config"], _canonical(cluster.optimizer))
        _check_config("fault plan", payload["fault_plan"], _fault_plan(cluster))
        restores_strategy = payload["strategy"] is not None and strategy is not None
        if restores_strategy:
            _check_config("strategy", payload["strategy_config"], _canonical(strategy.spec()))
        cluster.load_state_dict(payload)
        if restores_strategy:
            strategy.restore_state(payload["strategy"])
        return payload["run_state"]

    # -- persistence --------------------------------------------------------------

    def save(self, path: PathLike) -> Path:
        """Atomically write the checkpoint to ``path`` (tmp → fsync → rename; header built first)."""
        path = Path(path)
        arrays: list = []
        header = json.dumps(_split(self.payload, arrays, "payload"), sort_keys=True).encode("ascii")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path = path.with_name(path.name + ".tmp")
        try:
            with tmp_path.open("wb") as handle:
                handle.write(MAGIC + len(header).to_bytes(8, "little") + header)
                for array in arrays:
                    handle.write(memoryview(np.ascontiguousarray(array)))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            tmp_path.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def load(cls, path: PathLike) -> "ClusterCheckpoint":
        """Read a checkpoint written by :meth:`save`; a damaged or foreign file is refused by name."""
        path = Path(path)
        if not path.exists():
            raise ExperimentError(f"checkpoint file {path} does not exist")
        with path.open("rb") as handle:
            if handle.read(len(MAGIC)) != MAGIC:
                with contextlib.suppress(ValueError):  # up to version 5: one JSON document
                    _require_current(json.loads(path.read_bytes()), str(path))
                raise ExperimentError(f"{path} is not a cluster checkpoint (no magic tag)")
            prefix = handle.read(8)
            size, end = int.from_bytes(prefix, "little"), path.stat().st_size
            if len(prefix) < 8 or size > end - len(MAGIC) - 8:
                raise ExperimentError(f"{path} is truncated inside its header")
            try:
                header = json.loads(handle.read(size))
            except ValueError:
                raise ExperimentError(f"{path} has a malformed header") from None
            _require_current(header, str(path))
            order = itertools.count()

            def read(reference: dict) -> np.ndarray:
                if reference["__ndarray__"] != next(order):
                    raise ExperimentError(f"{path} lists its arrays out of order")
                dtype, shape = _declared(reference, path)
                if math.prod(shape) * dtype.itemsize > end - handle.tell():
                    raise ExperimentError(f"{path} is truncated inside its arrays")
                array = np.empty(shape, dtype)
                handle.readinto(array)
                return array

            payload = _join(header, read)
            if handle.read(1):
                raise ExperimentError(f"{path} has trailing bytes after its arrays")
        return cls(payload)
