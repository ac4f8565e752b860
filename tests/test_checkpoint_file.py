"""The cluster checkpoint's file: a JSON header, then each array's raw bytes.

What :meth:`ClusterCheckpoint.save` / :meth:`~ClusterCheckpoint.load` promise
about the file itself, apart from what a resumed run computes (that is
``tests/test_faults.py::TestClusterCheckpoint``):

* any payload of nested dicts, lists and tuples over arrays and JSON scalars
  comes back with every array's bytes, dtype and shape, and two saves of one
  payload are the same bytes;
* the file is the magic tag, the header and the arrays' bytes, nothing more,
  and neither a save nor a load holds a second copy of the arrays;
* a payload that cannot be written, or a failed write, leaves no file behind;
* a damaged or foreign file is refused by name, never half read;
* the header records the optimizer, and a cluster whose optimizer is
  configured differently is refused by field before anything is written.
"""

import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ExperimentError
from helpers.shards import state_bytes
from repro.experiments.setup import build_cluster, make_optimizer
from repro.faults import ClusterCheckpoint
from repro.faults import checkpoint as checkpoint_module
from repro.faults.checkpoint import FORMAT, MAGIC, VERSION
from repro.strategies.fda_strategy import FDAStrategy

MIB = 1 << 20


def _payload(**values):
    return {"format": FORMAT, "version": VERSION, **values}


def _header_size(data: bytes) -> int:
    return int.from_bytes(data[len(MAGIC):len(MAGIC) + 8], "little")


def _assert_round_trips(saved, loaded, where="payload"):
    """``loaded`` is ``saved`` after a save and a load: bytes, dtypes, shapes and scalars."""
    if isinstance(saved, np.ndarray):
        assert isinstance(loaded, np.ndarray), where
        assert (loaded.dtype, loaded.shape) == (saved.dtype, saved.shape), where
        assert loaded.tobytes() == saved.tobytes(), where
    elif isinstance(saved, dict):
        assert sorted(loaded) == sorted(saved), where
        for key, value in saved.items():
            _assert_round_trips(value, loaded[key], f"{where}[{key!r}]")
    elif isinstance(saved, (list, tuple)):  # a tuple comes back as a list
        assert isinstance(loaded, list) and len(loaded) == len(saved), where
        for index, (value, back) in enumerate(zip(saved, loaded)):
            _assert_round_trips(value, back, f"{where}[{index}]")
    elif isinstance(saved, float):  # NaN, ±inf and -0.0 by their spelling
        assert type(loaded) is float and repr(loaded) == repr(saved), where
    else:
        assert type(loaded) is type(saved) and loaded == saved, where


@st.composite
def _arrays(draw):
    """An array of a checkpointed dtype: 0-d or empty, C, Fortran or a strided view."""
    array = draw(
        hnp.arrays(
            st.sampled_from([np.float32, np.float64, np.int64, np.uint8, np.bool_]),
            hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        )
    )
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided" and array.ndim:
        return array[..., ::-2]
    return array


_SCALARS = (
    st.integers(min_value=-(1 << 128), max_value=1 << 128)  # a PCG64 state is 128-bit
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.booleans()
    | st.none()
    | st.text(max_size=6)
)
_VALUES = st.recursive(
    _SCALARS | _arrays(),
    lambda children: (
        st.lists(children, max_size=3)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=4), children, max_size=3)
    ),
    max_leaves=12,
)


class TestRoundTrip:
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(value=_VALUES)
    def test_any_payload_round_trips_and_saves_to_the_same_bytes(self, tmp_path, value):
        checkpoint = ClusterCheckpoint(_payload(value=value))
        first = checkpoint.save(tmp_path / "first.ckpt").read_bytes()
        second = checkpoint.save(tmp_path / "second.ckpt").read_bytes()
        assert first == second
        _assert_round_trips(value, ClusterCheckpoint.load(tmp_path / "first.ckpt").payload["value"])

    def test_two_saves_of_one_capture_are_byte_identical(self, blobs_workload, tmp_path):
        cluster, _ = build_cluster(blobs_workload)
        strategy = FDAStrategy(threshold=0.5).attach(cluster)
        strategy.run_steps(3)
        checkpoint = ClusterCheckpoint.capture(cluster, strategy, {"history": [{"step": 3}]})
        first = checkpoint.save(tmp_path / "a.ckpt").read_bytes()
        assert checkpoint.save(tmp_path / "b.ckpt").read_bytes() == first
        _assert_round_trips(checkpoint.payload, ClusterCheckpoint.load(tmp_path / "a.ckpt").payload)

    def test_the_file_is_the_header_and_the_array_bytes(self, blobs_workload, tmp_path):
        cluster, _ = build_cluster(blobs_workload)
        cluster.step_all()
        checkpoint = ClusterCheckpoint.capture(cluster)
        data = checkpoint.save(tmp_path / "snap.ckpt").read_bytes()
        assert data.startswith(MAGIC)
        size = _header_size(data)
        header = json.loads(data[len(MAGIC) + 8:len(MAGIC) + 8 + size])
        assert header["version"] == VERSION == 7
        assert header["parameters"]["dtype"] == "<f8"
        assert header["parameters"]["shape"] == list(cluster.parameter_matrix.shape)
        # The header lists its references in the order the arrays follow it.
        arrays = list(_arrays_in(checkpoint.payload))
        assert list(_references_in(header)) == list(range(len(arrays)))
        assert len(data) == len(MAGIC) + 8 + size + sum(array.nbytes for array in arrays)


class TestOptimizerConfiguration:
    """An Adam checkpoint restores only into a cluster running the same Adam."""

    @pytest.mark.parametrize(
        "target, differences",
        [
            (
                make_optimizer("sgd-nm"),
                [
                    "__class__: 'Adam' in the checkpoint, 'SGD' here",
                    "learning_rate: 0.01 in the checkpoint, 0.05 here",
                    "momentum: absent in the checkpoint, 0.9 here",
                    "nesterov: absent in the checkpoint, True here",
                    "weight_decay: absent in the checkpoint, 0.0 here",
                ],
            ),
            (
                make_optimizer("adam", learning_rate=0.05),
                ["learning_rate: 0.01 in the checkpoint, 0.05 here"],
            ),
            (
                make_optimizer("adamw", learning_rate=0.01),
                [
                    "__class__: 'Adam' in the checkpoint, 'AdamW' here",
                    "weight_decay: absent in the checkpoint, 0.01 here",
                ],
            ),
            (
                make_optimizer("sgd", learning_rate=0.01),
                [
                    "__class__: 'Adam' in the checkpoint, 'SGD' here",
                    "momentum: absent in the checkpoint, 0.0 here",
                    "nesterov: absent in the checkpoint, False here",
                    "weight_decay: absent in the checkpoint, 0.0 here",
                ],
            ),
        ],
        ids=["sgd-nm", "adam-lr-0.05", "adamw", "sgd"],
    )
    def test_a_differently_configured_optimizer_is_refused(
        self, blobs_workload, tmp_path, target, differences
    ):
        cluster, _ = build_cluster(blobs_workload)  # Adam at learning rate 0.01
        cluster.step_all()
        path = ClusterCheckpoint.capture(cluster).save(tmp_path / "adam.ckpt")
        other, _ = build_cluster(replace(blobs_workload, optimizer_factory=target))
        before = state_bytes(other.state_dict())
        with pytest.raises(ExperimentError, match="differently configured optimizer") as caught:
            ClusterCheckpoint.load(path).restore(other)
        message = str(caught.value)
        assert all(difference in message for difference in differences), message
        assert message.count(" in the checkpoint, ") == len(differences), message
        assert state_bytes(other.state_dict()) == before

    def test_the_same_optimizer_restores(self, blobs_workload, tmp_path):
        # Built by a second call of the factory, so equal configuration (not
        # identity) is what lets the state through: moments and step counts
        # come back byte for byte, and the next step is the one the captured
        # cluster takes.
        cluster, _ = build_cluster(blobs_workload)
        cluster.step_all()
        cluster.step_all(active=np.array([True, False, True, False]))
        path = ClusterCheckpoint.capture(cluster).save(tmp_path / "adam.ckpt")
        other, _ = build_cluster(blobs_workload)
        ClusterCheckpoint.load(path).restore(other)
        assert state_bytes(other.state_dict()) == state_bytes(cluster.state_dict())
        assert other.engine.stacked_optimizer.step_counts.tolist() == [2, 1, 2, 1]
        cluster.step_all()
        other.step_all()
        assert state_bytes(other.state_dict()) == state_bytes(cluster.state_dict())

    def test_the_header_records_the_optimizer_configuration(self, blobs_workload, tmp_path):
        # Configuration only: what training moves is in the arrays.
        cluster, _ = build_cluster(blobs_workload)
        cluster.step_all()
        path = ClusterCheckpoint.capture(cluster).save(tmp_path / "adam.ckpt")
        data = path.read_bytes()
        size = _header_size(data)
        header = json.loads(data[len(MAGIC) + 8 : len(MAGIC) + 8 + size])
        assert json.loads(header["optimizer_config"]) == {
            "__class__": "Adam",
            "learning_rate": 0.01,
        }

    def test_the_optimizer_state_is_one_matrix_per_name(self, blobs_workload, tmp_path):
        # One (K, d) array per state name and one (K,) int64 step-count
        # vector, row k being worker k's, in the plane's dtype.
        cluster, _ = build_cluster(blobs_workload)
        cluster.step_all(active=np.array([True, True, False, True]))
        path = ClusterCheckpoint.capture(cluster).save(tmp_path / "adam.ckpt")
        payload = ClusterCheckpoint.load(path).payload
        shape = (cluster.num_workers, cluster.model_dimension)
        stack = cluster.engine.stacked_optimizer
        for name in ("m", "v"):
            saved = payload[f"optimizer_{name}"]
            assert (saved.shape, saved.dtype) == (shape, cluster.parameter_matrix.dtype)
            assert saved.tobytes() == stack.state[name].tobytes()
            assert not saved[2].any() and saved[[0, 1, 3]].any(axis=1).all()
        steps = payload["optimizer_steps"]
        assert steps.dtype == np.int64 and steps.tolist() == [1, 1, 0, 1]
        assert sorted(key for key in payload if key.startswith("optimizer_")) == [
            "optimizer_config", "optimizer_m", "optimizer_steps", "optimizer_v"
        ]


def _arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, list, tuple)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _arrays_in(item)


def _references_in(header):
    if isinstance(header, dict) and "__ndarray__" in header:
        yield header["__ndarray__"]
    elif isinstance(header, (dict, list)):
        for item in header.values() if isinstance(header, dict) else header:
            yield from _references_in(item)


class TestFailedSave:
    @pytest.mark.parametrize(
        "bad, kind",
        [
            ({1, 2}, "set"),
            (np.array([None, 1], dtype=object), "object array"),
            (np.array(["a"]), "<U1 array"),
            (1j, "complex"),
        ],
        ids=["set", "object-array", "str-array", "complex"],
    )
    def test_an_unencodable_value_is_named_and_writes_nothing(self, tmp_path, bad, kind):
        path = tmp_path / "bad.ckpt"
        checkpoint = ClusterCheckpoint(_payload(run_state={"history": [{"ok": 1, "bad": bad}]}))
        with pytest.raises(
            ExperimentError,
            match=re.escape(f"cannot checkpoint payload['run_state']['history'][0]['bad']: a {kind}"),
        ):
            checkpoint.save(path)
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_write_removes_its_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "snap.ckpt"
        ClusterCheckpoint(_payload(parameters=np.arange(4.0))).save(path)
        before = path.read_bytes()

        def failing_fsync(descriptor):
            raise OSError("disk gone")

        monkeypatch.setattr(checkpoint_module.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk gone"):
            ClusterCheckpoint(_payload(parameters=np.arange(8.0))).save(path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before  # the previous checkpoint survives


def _good_file(tmp_path):
    payload = _payload(parameters=np.arange(12.0).reshape(3, 4), steps=np.arange(3))
    return ClusterCheckpoint(payload).save(tmp_path / "good.ckpt").read_bytes()


class TestDamagedFile:
    @pytest.mark.parametrize(
        "damage, defect",
        [
            (lambda data: data[:len(MAGIC) + 3], "is truncated inside its header"),
            (
                lambda data: data[:len(MAGIC) + 8 + _header_size(data) // 2],
                "is truncated inside its header",
            ),
            (lambda data: data[:-1], "is truncated inside its arrays"),
            (lambda data: data + b"\0", "has trailing bytes after its arrays"),
            (lambda data: b"", r"is not a cluster checkpoint \(no magic tag\)"),
            (lambda data: b"PK\x03\x04" + data, r"is not a cluster checkpoint \(no magic tag\)"),
            (lambda data: b'{"format": "repro.clus', r"is not a cluster checkpoint \(no magic tag\)"),
            (
                lambda data: data[:len(MAGIC) + 8] + b"}" + data[len(MAGIC) + 9:],
                "has a malformed header",
            ),
        ],
        ids=[
            "short-length", "short-header", "short-arrays", "trailing-bytes", "empty",
            "foreign", "truncated-json", "malformed-header",
        ],
    )
    def test_a_damaged_file_is_refused_by_name(self, tmp_path, damage, defect):
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(damage(_good_file(tmp_path)))
        with pytest.raises(ExperimentError, match=re.escape(str(path)) + " " + defect):
            ClusterCheckpoint.load(path)

    @pytest.mark.parametrize(
        "edit, defect",
        [
            (lambda ref: ref.update(shape=[2**42]), "is truncated inside its arrays"),
            (lambda ref: ref.update(shape=[3, 5]), "is truncated inside its arrays"),
            (lambda ref: ref.pop("dtype"), "has an array of unreadable dtype None"),
            (lambda ref: ref.pop("shape"), "has an array of unreadable shape None"),
            (lambda ref: ref.update(dtype="<f9"), "has an array of unreadable dtype '<f9'"),
            (lambda ref: ref.update(dtype="|O"), "has an array of unreadable dtype '|O'"),
            (lambda ref: ref.update(shape=[3, -4]), r"has an array of unreadable shape \[3, -4\]"),
            (lambda ref: ref.update(shape=[3.0, 4]), r"has an array of unreadable shape \[3.0, 4\]"),
            (lambda ref: ref.update(shape=12), "has an array of unreadable shape 12"),
        ],
        ids=[
            "huge-shape", "bigger-shape", "no-dtype", "no-shape", "unknown-dtype",
            "object-dtype", "negative-axis", "float-axis", "scalar-shape",
        ],
    )
    def test_a_re_edited_header_is_refused_before_allocating(self, tmp_path, edit, defect):
        # The length prefix stays consistent, so only the reference is wrong.
        data = _good_file(tmp_path)
        size = _header_size(data)
        header = json.loads(data[len(MAGIC) + 8:len(MAGIC) + 8 + size])
        edit(header["parameters"])
        edited = json.dumps(header, sort_keys=True).encode("ascii")
        path = tmp_path / "edited.ckpt"
        path.write_bytes(
            MAGIC + len(edited).to_bytes(8, "little") + edited + data[len(MAGIC) + 8 + size:]
        )
        with pytest.raises(ExperimentError, match=re.escape(str(path)) + " " + defect):
            ClusterCheckpoint.load(path)

    def test_a_version_5_json_checkpoint_is_refused_as_version_5(self, tmp_path):
        path = tmp_path / "v5.json"
        array = {"__ndarray__": "AAAAAAAA8D8=", "dtype": "float64", "shape": [1]}
        path.write_text(json.dumps({"format": FORMAT, "version": 5, "parameters": array}))
        with pytest.raises(ExperimentError, match="is a version 5 cluster checkpoint"):
            ClusterCheckpoint.load(path)


class TestMemory:
    """Neither a save nor a load holds a second copy of the arrays (≈ 24 MiB here)."""

    def test_save_and_load_allocate_only_the_arrays(self, tmp_path):
        rng = np.random.default_rng(0)
        payload = _payload(
            parameters=rng.normal(size=(16, 131_072)),
            residuals=rng.normal(size=(16, 131_072)).astype(np.float32),
            run_state={"history": [{"step": step, "accuracy": 0.5} for step in range(100)]},
        )
        array_bytes = sum(array.nbytes for array in _arrays_in(payload))
        assert array_bytes == 24 * MIB
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            ClusterCheckpoint(payload).save(path)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            baseline, _ = tracemalloc.get_traced_memory()
            loaded = ClusterCheckpoint.load(path)
            _, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert save_peak < MIB
        assert load_peak - baseline < array_bytes + MIB
        _assert_round_trips(payload, loaded.payload)
