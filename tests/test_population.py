"""Property suite of the population plane.

The population plane's contract has two bit-exactness halves:

* **Cohort parity** — training through a :class:`ClientPopulation` with
  ``N == K`` clients (the workers' own shards) and cohort=all must be
  *bit-identical* to training the materialized cluster directly: binding a
  full cohort is fresh-reset followed by the client's own snapshot overlay,
  an identity round-trip executing identical arithmetic.  Checked across
  strategies (FDA / FedOpt / Local-SGD), the engine and the per-worker
  oracle, both dtypes, with
  compression+error-feedback and RNG-stateful Dropout models, and under
  Hypothesis-drawn worker counts / budgets / round counts.
* **Eviction transparency** — spilling a stateful client to disk and
  rematerializing it on its next binding must reproduce the never-evicted
  trajectory bit-for-bit (Adam moments, error-feedback residuals, RNG
  stream states, per-client step counts), for arbitrary eviction orders and
  memory budgets; and evicting a cohort's victims ahead, in the background,
  must evict the clients, write the files and count what evicting in line
  does (the CI population-smoke job compares a squeezed run's digest across
  two processes).

The rest of the suite covers the sampler's distributional invariants, the
LRU store's budget accounting, the client directory's lazy shards, the
weighted-aggregation seams, the cohort-aware model-pool fix in
:class:`~repro.experiments.setup.SetupCache`, and the experiment-layer
plumbing (fingerprints, persistence, run labels).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import tempfile
import threading
from collections import OrderedDict
from concurrent.futures import wait
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers.parity import (
    dropout_factory,
    make_cluster,
    mlp_factory,
    run_population_parity,
)
from repro.compression import CompressionConfig
from repro.data.datasets import Dataset
from repro.data.synthetic import gaussian_blobs
from repro.distributed.participation import Participation
from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments.executor import workload_fingerprint
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.experiments.run import TrainingRun
from repro.experiments.setup import (
    SetupCache,
    WorkloadConfig,
    build_cluster,
    make_optimizer,
)
from repro.population import store as store_module
from repro.population import (
    ClientDirectory,
    ClientPopulation,
    ClientStateStore,
    CohortSampler,
    PopulationConfig,
)
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import fedadam_strategy
from repro.strategies.local_sgd import LocalSGDStrategy

pytestmark = pytest.mark.population

SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STRATEGIES = {
    "local-sgd": lambda: LocalSGDStrategy(tau=3),
    "linear-fda": lambda: FDAStrategy(threshold=0.5, variant="linear"),
    "fedadam": fedadam_strategy,
}


# -- cohort=all parity (satellite 1) ---------------------------------------------


class TestCohortParity:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_population_mode_is_bit_identical(self, name, dtype):
        run_population_parity(STRATEGIES[name], rounds=5, dtype=dtype, exact=True)

    def test_parity_survives_dropout_rng_state(self):
        # RNG-stateful Dropout layers: the snapshot must carry every layer's
        # private mask stream across unbind/bind.
        run_population_parity(
            STRATEGIES["local-sgd"],
            rounds=5,
            model_factory=dropout_factory,
            sample_shape=(6,),
            num_classes=3,
        )

    def test_parity_with_error_feedback_compression(self):
        # The (K, d) error-feedback residual rows must round-trip through
        # client snapshots bit-exactly.
        run_population_parity(
            STRATEGIES["local-sgd"],
            rounds=5,
            compression=CompressionConfig("topk", ratio=0.25, error_feedback=True),
        )

    @SETTINGS
    @given(
        num_workers=st.integers(min_value=2, max_value=5),
        budget=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        tau=st.integers(min_value=1, max_value=4),
        rounds=st.integers(min_value=2, max_value=5),
    )
    def test_parity_property(self, num_workers, budget, tau, rounds):
        run_population_parity(
            lambda: LocalSGDStrategy(tau=tau),
            rounds=rounds,
            num_workers=num_workers,
            memory_budget=budget,
            sides=("batched",),
        )


# -- eviction transparency (satellite 2) -----------------------------------------


def _force_spill(store, client_id) -> bool:
    """Spill one resident snapshot to disk, as the LRU does to its oldest entry."""
    snapshot = store._resident.pop(int(client_id), None)
    if snapshot is None:
        return False
    store._write(store._evict([(int(client_id), snapshot)]))
    return True


def _run_population(
    rounds, budget, evict_after_round=None, num_clients=6, cohort=2, spill_dir=None
):
    """One deterministic sampled-population run; returns its observables.

    ``evict_after_round`` maps round index -> list of client ids to
    force-evict from the store after that round's unbind (unknown ids are
    skipped), so Hypothesis can drive arbitrary eviction orders.
    """
    cluster = make_cluster("batched", num_workers=cohort)
    strategy = LocalSGDStrategy(tau=2).attach(cluster)
    rng = np.random.default_rng(123)
    shards = [
        Dataset(rng.normal(size=(30, 6)), rng.integers(0, 3, size=30), 3)
        for _ in range(num_clients)
    ]
    population = ClientPopulation(
        PopulationConfig(
            num_clients=num_clients,
            cohort_size=cohort,
            weighting="data-size",
            memory_budget=budget,
        ),
        shards=shards,
        seed=99,
        client_seed_fn=lambda client_id: 1000 + client_id,
        spill_dir=spill_dir,
    )
    population.attach(cluster, strategy)
    losses = []
    for round_index in range(rounds):
        losses.append(population.run_round().mean_loss)
        if evict_after_round:
            for client_id in evict_after_round.get(round_index, []):
                _force_spill(population.store, client_id)
    return {
        "losses": losses,
        "params": np.array(cluster.parameter_matrix),
        "bytes": cluster.total_bytes,
        "client_steps": dict(population.client_steps),
        "optimizer_steps": [w.optimizer.step_count for w in cluster.workers],
        "population": population,
    }


class TestEvictionTransparency:
    @SETTINGS
    @given(budget=st.integers(min_value=1, max_value=4))
    def test_budget_eviction_is_bit_exact(self, budget):
        reference = _run_population(rounds=8, budget=None)
        squeezed = _run_population(rounds=8, budget=budget)
        np.testing.assert_array_equal(reference["params"], squeezed["params"])
        assert reference["losses"] == squeezed["losses"]
        assert reference["bytes"] == squeezed["bytes"]
        assert reference["client_steps"] == squeezed["client_steps"]
        assert reference["optimizer_steps"] == squeezed["optimizer_steps"]
        # The squeezed run actually exercised the spill path.
        assert squeezed["population"].store.evictions > 0
        assert squeezed["population"].store.peak_resident <= budget

    @SETTINGS
    @given(
        orders=st.lists(
            st.lists(st.integers(min_value=0, max_value=5), max_size=4),
            min_size=8,
            max_size=8,
        )
    )
    def test_arbitrary_eviction_orders_are_bit_exact(self, orders):
        reference = _run_population(rounds=8, budget=None)
        evicted = _run_population(
            rounds=8,
            budget=None,
            evict_after_round={i: order for i, order in enumerate(orders)},
        )
        np.testing.assert_array_equal(reference["params"], evicted["params"])
        assert reference["losses"] == evicted["losses"]
        assert reference["client_steps"] == evicted["client_steps"]

    def test_evict_then_rebind_restores_adam_state_exactly(self):
        # Direct single-client check: run, snapshot the live slot state, force
        # a disk round-trip, rebind, and compare the slot bit-for-bit.
        cluster = make_cluster("batched", num_workers=2)
        strategy = LocalSGDStrategy(tau=2).attach(cluster)
        population = ClientPopulation(
            PopulationConfig(num_clients=2, cohort_size=2, weighting="uniform"),
            shards=[w.dataset for w in cluster.workers],
            client_seed_fn=lambda client_id: client_id,
        )
        population.attach(cluster, strategy)
        for _ in range(3):
            population.run_round()
        expected_params = np.array(cluster.parameter_matrix)
        expected_m = np.array(cluster.workers[0].optimizer.state_arrays()["m"])
        expected_v = np.array(cluster.workers[0].optimizer.state_arrays()["v"])
        expected_steps = cluster.workers[0].optimizer.step_count
        expected_rng = cluster.workers[0]._sampler._rng.bit_generator.state

        assert _force_spill(population.store, 0) and _force_spill(population.store, 1)
        assert population.store.resident_count == 0
        population.bind_cohort(np.array([0, 1]))
        np.testing.assert_array_equal(cluster.parameter_matrix, expected_params)
        rebound = cluster.workers[0].optimizer.state_arrays()
        np.testing.assert_array_equal(rebound["m"], expected_m)
        np.testing.assert_array_equal(rebound["v"], expected_v)
        assert cluster.workers[0].optimizer.step_count == expected_steps
        assert cluster.workers[0]._sampler._rng.bit_generator.state == expected_rng
        assert population.store.spill_loads == 2
        population.unbind_cohort()


def _population_digest(run) -> dict:
    """A squeezed run's final parameters, spill files and store counters, as hashes and numbers."""
    store = run["population"].store
    return {
        "parameters_sha256": hashlib.sha256(run["params"].tobytes()).hexdigest(),
        "spill_files_sha256": _spill_files(store._spill_dir),
        "counters": {
            "evictions": store.evictions,
            "spill_loads": store.spill_loads,
            "peak_resident": store.peak_resident,
            "stateful_count": store.stateful_count,
        },
    }


class TestSpillDeterminism:
    """A squeezed population spills the same files every run; the CI population-smoke contract."""

    def test_squeezed_population_runs_are_identical(self, tmp_path):
        digests = [
            _population_digest(
                _run_population(
                    rounds=10, budget=3, num_clients=8, cohort=3, spill_dir=tmp_path / run
                )
            )
            for run in ("a", "b")
        ]
        assert digests[0] == digests[1]
        counters = digests[0]["counters"]
        assert counters["evictions"] > 0 and counters["spill_loads"] > 0
        assert counters["peak_resident"] <= 3
        # The CI population-smoke job runs this test in two separate interpreter
        # invocations and byte-compares the digests.
        digest_path = os.environ.get("REPRO_POPULATION_DIGEST")
        if digest_path:
            with open(digest_path, "w", encoding="utf-8") as handle:
                json.dump(digests[0], handle, indent=2, sort_keys=True)


# -- cohort sampler ---------------------------------------------------------------


class TestCohortSampler:
    @SETTINGS
    @given(
        num_clients=st.integers(min_value=10, max_value=10_000),
        cohort=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_fixed_draws_distinct_sorted_in_range(self, num_clients, cohort, seed):
        config = PopulationConfig(num_clients=num_clients, cohort_size=cohort)
        sampler = CohortSampler(config, seed=seed)
        for _ in range(3):
            drawn = sampler.draw()
            assert drawn.shape == (cohort,)
            assert len(set(drawn.tolist())) == cohort
            assert np.all(np.diff(drawn) > 0)
            assert drawn.min() >= 0 and drawn.max() < num_clients

    @SETTINGS
    @given(
        act_prob=st.floats(min_value=0.001, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_bernoulli_count_is_clamped(self, act_prob, seed):
        config = PopulationConfig(
            num_clients=500, cohort_size=6, sampling="bernoulli", act_prob=act_prob
        )
        sampler = CohortSampler(config, seed=seed)
        for _ in range(5):
            drawn = sampler.draw()
            assert 1 <= drawn.size <= 6
            assert len(set(drawn.tolist())) == drawn.size

    def test_draws_are_deterministic_per_seed(self):
        config = PopulationConfig(num_clients=1000, cohort_size=5)
        first = [CohortSampler(config, seed=7).draw() for _ in range(1)]
        second = [CohortSampler(config, seed=7).draw() for _ in range(1)]
        np.testing.assert_array_equal(first[0], second[0])
        assert not np.array_equal(
            CohortSampler(config, seed=7).draw(), CohortSampler(config, seed=8).draw()
        )

    def test_cohort_all_consumes_no_rng(self):
        config = PopulationConfig(num_clients=6, cohort_size=6)
        sampler = CohortSampler(config, seed=3)
        state_before = sampler._rng.bit_generator.state
        np.testing.assert_array_equal(sampler.draw(), np.arange(6))
        np.testing.assert_array_equal(sampler.draw(), np.arange(6))
        assert sampler._rng.bit_generator.state == state_before


# -- the LRU store ----------------------------------------------------------------


def _snapshot(value: float) -> dict:
    rng = np.random.default_rng(int(value))
    return {
        "params": rng.normal(size=17),
        "rng": rng.bit_generator.state,
        "steps": int(value),
    }


class TestClientStateStore:
    @SETTINGS
    @given(
        budget=st.integers(min_value=1, max_value=5),
        saves=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=30),
    )
    def test_resident_set_never_exceeds_budget(self, budget, saves):
        # No spill_dir: the store lazily opens its own TemporaryDirectory
        # (tmp_path is function-scoped and clashes with @given).
        store = ClientStateStore(budget=budget)
        for client_id in saves:
            store.save(client_id, _snapshot(client_id))
            assert store.resident_count <= budget
        assert store.peak_resident <= budget
        assert store.stateful_count == len(set(saves))

    def test_spilled_snapshot_round_trips_bit_exactly(self, tmp_path):
        store = ClientStateStore(budget=1, spill_dir=tmp_path)
        original = _snapshot(42)
        store.save(42, original)
        store.save(43, _snapshot(43))  # evicts 42 to disk
        assert 42 in store and store.resident_count == 1
        loaded = store.load(42)
        np.testing.assert_array_equal(loaded["params"], original["params"])
        assert loaded["rng"] == original["rng"]
        assert loaded["steps"] == original["steps"]
        assert store.spill_loads == 1

    def test_unknown_client_loads_none(self):
        assert ClientStateStore(budget=2).load(7) is None

    def test_each_spill_file_is_released_when_written_and_again_after_the_lag(
        self, tmp_path, monkeypatch
    ):
        released = []
        release = store_module._release_page_cache
        monkeypatch.setattr(
            store_module,
            "_release_page_cache",
            lambda path: (released.append(path.name), release(path))[1],
        )
        lag = store_module._WRITE_BACK_LAG
        store = ClientStateStore(budget=1, spill_dir=tmp_path)
        clients = list(range(lag + 4))
        for client_id in clients:
            store.save(client_id, _snapshot(client_id))
        spilled = [f"client-{client_id}.pkl" for client_id in clients[:-1]]
        # First call when a file is written (starts its write-back), second
        # one ``lag`` spills later (drops the pages): at most ``lag`` files
        # stay cached however many are spilled.
        expected = []
        for index, name in enumerate(spilled):
            expected.append(name)
            if index >= lag:
                expected.append(spilled[index - lag])
        assert released == expected
        # Released or not, every spilled snapshot reads back bit for bit.
        for client_id in clients[:-1]:
            loaded = store.load(client_id)
            original = _snapshot(client_id)
            np.testing.assert_array_equal(loaded["params"], original["params"])
            assert loaded["rng"] == original["rng"]

    def test_releasing_is_only_advice(self, tmp_path, monkeypatch):
        # A file superseded before its second call is skipped ...
        store = ClientStateStore(budget=2, spill_dir=tmp_path)
        store.save(0, _snapshot(0))
        assert _force_spill(store, 0)  # spills 0: first call made, second one pending
        store.save(0, _snapshot(5))  # unlinks 0's file
        for client_id in range(1, store_module._WRITE_BACK_LAG + 3):
            store.save(client_id, _snapshot(client_id))
            assert store.load(0)["steps"] == 5  # keeps 0 the most recent
        assert not (tmp_path / "client-0.pkl").exists()
        assert store.evictions == store_module._WRITE_BACK_LAG + 2

        # ... a filesystem may refuse the advice, and a platform may lack the call.
        def refuse(*args):
            raise OSError("advice refused")

        for patch in (
            lambda: monkeypatch.setattr(store_module.os, "posix_fadvise", refuse),
            lambda: monkeypatch.delattr(store_module.os, "posix_fadvise"),
        ):
            patch()
            store = ClientStateStore(budget=1, spill_dir=tmp_path / "again")
            store.save(0, _snapshot(0))
            store.save(1, _snapshot(1))
            assert store.load(0)["steps"] == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            ClientStateStore(budget=0)


# -- evicting a round ahead -------------------------------------------------------


def _spill_files(spill_dir) -> dict:
    """sha256 of every spill file under ``spill_dir``, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(spill_dir).glob("client-*.pkl"))
    }


def _recording_victims(store) -> list:
    """The clients ``store`` evicts from now on, in order, ahead or in line."""
    victims = []
    evict = store._evict

    def spy(pairs):
        victims.extend(client_id for client_id, _ in pairs)
        return evict(pairs)

    store._evict = spy
    return victims


def _ahead_and_in_line(ahead_class, budget, cohorts) -> list:
    """Per round, what a store evicting ahead and one evicting in line leave behind.

    Each cohort is bound and unbound as :class:`ClientPopulation` does: load
    every member, then save every member.  Only the first store is told the
    cohort (``make_room``) before the loads.
    """
    rounds = []
    with tempfile.TemporaryDirectory() as root:
        stores = (
            ahead_class(budget, spill_dir=Path(root) / "ahead"),
            ClientStateStore(budget, spill_dir=Path(root) / "in-line"),
        )
        victims = [_recording_victims(store) for store in stores]
        for index, cohort in enumerate(cohorts):
            stores[0].make_room(cohort)
            assert stores[0].resident_count + len(stores[0]._in_flight) <= budget
            for store in stores:
                for client_id in cohort:
                    store.load(client_id)
                for client_id in cohort:
                    store.save(client_id, _snapshot(100 * index + client_id))
            rounds.append(
                [
                    (
                        list(evicted),
                        _spill_files(store._spill_dir),
                        list(store._resident),
                        store.evictions,
                        store.spill_loads,
                        store.peak_resident,
                        store.stateful_count,
                    )
                    for store, evicted in zip(stores, victims)
                ]
            )
            for evicted in victims:
                evicted.clear()
    return rounds


class _NewestFirst(ClientStateStore):
    """A wrong victim rule: evicts ahead the most recently bound snapshots first."""

    def make_room(self, cohort):
        self._resident = OrderedDict(reversed(self._resident.items()))
        super().make_room(cohort)
        self._resident = OrderedDict(reversed(self._resident.items()))


class TestEvictingAhead:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        num_clients=st.integers(min_value=2, max_value=10),
        sampling=st.sampled_from(["fixed", "bernoulli"]),
        act_prob=st.floats(min_value=0.1, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
        rounds=st.integers(min_value=1, max_value=10),
        data=st.data(),
    )
    def test_matches_evicting_in_line(self, num_clients, sampling, act_prob, seed, rounds, data):
        cohort_size = data.draw(st.integers(min_value=1, max_value=min(4, num_clients)))
        budget = data.draw(st.integers(min_value=1, max_value=3 * cohort_size))
        sampler = CohortSampler(
            PopulationConfig(
                num_clients=num_clients,
                cohort_size=cohort_size,
                sampling=sampling,
                act_prob=act_prob,
            ),
            seed=seed,
        )
        cohorts = [sampler.draw().tolist() for _ in range(rounds)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the writer and the caller trade the lock often
        try:
            observed = _ahead_and_in_line(ClientStateStore, budget, cohorts)
        finally:
            sys.setswitchinterval(interval)
        for ahead, in_line in observed:
            assert ahead == in_line

    def test_a_newest_first_rule_is_caught(self):
        rounds = _ahead_and_in_line(_NewestFirst, 2, [[0], [1], [2]])
        assert rounds[-1][0] != rounds[-1][1]
        assert rounds[-1][0][0] == [1] and rounds[-1][1][0] == [0]

    @pytest.mark.parametrize("call", ["load", "save"])
    def test_a_client_being_written_waits_for_its_write(self, tmp_path, monkeypatch, call):
        released = threading.Event()
        write = ClientStateStore._write

        def held(self, writes):
            released.wait(10)
            write(self, writes)

        monkeypatch.setattr(ClientStateStore, "_write", held)
        store = ClientStateStore(budget=2, spill_dir=tmp_path)
        store.save(0, _snapshot(0))
        store.save(1, _snapshot(1))
        store.make_room([2])  # 0 is the least recently bound
        assert store._in_flight == {0} and not (tmp_path / "client-0.pkl").exists()
        threading.Timer(0.1, released.set).start()
        if call == "load":
            np.testing.assert_array_equal(store.load(0)["params"], _snapshot(0)["params"])
        else:
            store.save(0, _snapshot(5))
            assert store.load(0)["steps"] == 5 and not (tmp_path / "client-0.pkl").exists()
        assert released.is_set()

    @pytest.mark.parametrize("next_call", ["save", "load the victim", "load a stranger"])
    def test_a_failed_write_surfaces_at_the_next_call_naming_its_file(
        self, tmp_path, monkeypatch, next_call
    ):
        store = ClientStateStore(budget=2, spill_dir=tmp_path)
        store.save(0, _snapshot(0))
        store.save(1, _snapshot(1))
        dump = store_module.pickle.dump

        def disk_full_for_client_1(snapshot, handle, **kwargs):
            if snapshot["steps"] == 1:
                raise OSError(28, "No space left on device")
            dump(snapshot, handle, **kwargs)

        monkeypatch.setattr(store_module.pickle, "dump", disk_full_for_client_1)
        store.make_room([2, 3])  # evicts 0, then 1
        if next_call == "load a stranger":
            wait([store._writing], timeout=10)  # a finished job is settled without waiting
        calls = {
            "save": lambda: store.save(2, _snapshot(2)),
            "load the victim": lambda: store.load(1),
            "load a stranger": lambda: store.load(9),
        }
        with pytest.raises(OSError, match=re.escape(str(tmp_path / "client-1.pkl"))):
            calls[next_call]()
        assert store.load(0)["steps"] == 0  # the victim written before it is intact


# -- the client directory ---------------------------------------------------------


class TestClientDirectory:
    def test_virtual_shards_are_deterministic_at_any_id(self):
        train = gaussian_blobs(200, feature_dim=4, num_classes=3, seed=0)
        config = PopulationConfig(
            num_clients=10**6, cohort_size=8, min_client_samples=10, max_client_samples=20
        )
        directory = ClientDirectory(config, train_dataset=train, seed=5)
        # Far-apart ids resolve instantly (no per-client registry exists).
        for client_id in (0, 123_456, 10**6 - 1):
            shard = directory.shard(client_id)
            again = directory.shard(client_id)
            # A shard is a row view of the training set: equal rows of the
            # same base are equal samples.
            assert shard.base is again.base is train
            np.testing.assert_array_equal(shard.rows, again.rows)
            np.testing.assert_array_equal(shard.y, again.y)
            assert 10 <= len(shard) <= 20

    def test_explicit_shards_must_cover_population(self):
        train = gaussian_blobs(50, feature_dim=4, num_classes=3, seed=0)
        config = PopulationConfig(num_clients=3, cohort_size=2)
        with pytest.raises(ConfigurationError):
            ClientDirectory(config, shards=[train])
        with pytest.raises(ConfigurationError):
            ClientDirectory(config)  # no provider at all
        with pytest.raises(ConfigurationError):
            ClientDirectory(config, shards=[train] * 3, train_dataset=train)

    def test_out_of_range_client_rejected(self):
        train = gaussian_blobs(50, feature_dim=4, num_classes=3, seed=0)
        config = PopulationConfig(num_clients=4, cohort_size=2)
        directory = ClientDirectory(config, train_dataset=train)
        with pytest.raises(ConfigurationError):
            directory.shard(4)
        with pytest.raises(ConfigurationError):
            directory.shard(-1)


# -- weighted aggregation ---------------------------------------------------------


class TestWeightedAggregation:
    def test_cluster_weighted_mean_matches_manual(self):
        cluster = make_cluster("batched", num_workers=3)
        weights = np.array([1.0, 2.0, 5.0])
        cluster.bind_members(Participation(weights=weights))
        expected = (weights / weights.sum()) @ cluster.parameter_matrix
        np.testing.assert_allclose(cluster.average_parameters(), expected, rtol=1e-12)
        cluster.bind_members(Participation())
        np.testing.assert_array_equal(
            cluster.average_parameters(), cluster.parameter_matrix.mean(axis=0)
        )

    def test_invalid_weights_rejected(self):
        cluster = make_cluster("batched", num_workers=3)
        with pytest.raises(Exception):
            cluster.bind_members(Participation(weights=[1.0, 2.0]))  # wrong shape
        with pytest.raises(ConfigurationError):
            cluster.bind_members(Participation(weights=[1.0, -1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            cluster.bind_members(Participation(weights=np.zeros(3)))

    def test_uniform_weighting_keeps_exact_mean_path(self):
        # The parity contract hinges on weights=None for uniform full cohorts.
        cluster = make_cluster("batched", num_workers=2)
        strategy = LocalSGDStrategy(tau=1).attach(cluster)
        population = ClientPopulation(
            PopulationConfig(num_clients=2, cohort_size=2, weighting="uniform"),
            shards=[w.dataset for w in cluster.workers],
            client_seed_fn=lambda client_id: client_id,
        )
        population.attach(cluster, strategy)
        population.bind_cohort(np.array([0, 1]))
        assert cluster.members.weights is None
        population.unbind_cohort()

    def test_data_size_weights_follow_bound_shards(self):
        cluster = make_cluster("batched", num_workers=2)
        strategy = LocalSGDStrategy(tau=1).attach(cluster)
        rng = np.random.default_rng(3)
        shards = [
            Dataset(rng.normal(size=(n, 6)), rng.integers(0, 3, size=n), 3)
            for n in (10, 25, 40)
        ]
        population = ClientPopulation(
            PopulationConfig(num_clients=3, cohort_size=2, weighting="data-size"),
            shards=shards,
            client_seed_fn=lambda client_id: client_id,
        )
        population.attach(cluster, strategy)
        population.bind_cohort(np.array([0, 2]))
        np.testing.assert_array_equal(
            cluster.members.weights, np.array([10.0, 40.0])
        )
        population.unbind_cohort()


# -- partial cohorts --------------------------------------------------------------


class TestPartialCohorts:
    def test_partial_cohort_masks_unbound_slots(self):
        cluster = make_cluster("batched", num_workers=4)
        strategy = FDAStrategy(threshold=1e9).attach(cluster)
        rng = np.random.default_rng(5)
        shards = [
            Dataset(rng.normal(size=(20, 6)), rng.integers(0, 3, size=20), 3)
            for _ in range(8)
        ]
        population = ClientPopulation(
            PopulationConfig(num_clients=8, cohort_size=4, weighting="data-size"),
            shards=shards,
            client_seed_fn=lambda client_id: client_id,
        )
        population.attach(cluster, strategy)
        population.bind_cohort(np.array([1, 5]))  # 2 of 4 slots bound
        assert cluster.members.mask.tolist() == [True, True, False, False]
        assert cluster.members.weights[2] == 0.0
        stale = np.array(cluster.parameter_matrix[2:])
        before = [w.steps_performed for w in cluster.workers]
        result = strategy.run_round()
        # Unbound slots neither step nor change bits.
        assert [w.steps_performed for w in cluster.workers[:2]] == [
            s + 1 for s in before[:2]
        ]
        assert [w.steps_performed for w in cluster.workers[2:]] == before[2:]
        np.testing.assert_array_equal(cluster.parameter_matrix[2:], stale)
        assert result.steps_advanced == 1
        population.unbind_cohort()
        assert sorted(population.client_steps) == [1, 5]

    def test_double_bind_rejected(self):
        cluster = make_cluster("batched", num_workers=2)
        strategy = LocalSGDStrategy(tau=1).attach(cluster)
        population = ClientPopulation(
            PopulationConfig(num_clients=2, cohort_size=2),
            shards=[w.dataset for w in cluster.workers],
        )
        population.attach(cluster, strategy)
        population.bind_cohort(np.array([0, 1]))
        with pytest.raises(ExperimentError):
            population.bind_cohort(np.array([0, 1]))
        population.unbind_cohort()
        with pytest.raises(ExperimentError):
            population.unbind_cohort()


# -- setup-cache pools (satellite 4) ----------------------------------------------


def _blob_workload(**overrides):
    train = gaussian_blobs(240, feature_dim=6, num_classes=3, seed=0)
    test = gaussian_blobs(60, feature_dim=6, num_classes=3, seed=1)
    defaults = dict(
        name="blobs-pop",
        model_factory=mlp_factory,
        train_dataset=train,
        test_dataset=test,
        optimizer_factory=make_optimizer("adam", learning_rate=0.01),
        num_workers=4,
        batch_size=8,
        seed=0,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


class TestSetupCachePools:
    def test_pool_is_keyed_by_physical_slots_not_clients(self):
        cache = SetupCache()
        materialized = _blob_workload(num_workers=4)
        populated = _blob_workload().with_population(
            PopulationConfig(num_clients=64, cohort_size=4)
        )
        first = cache.worker_models(materialized)
        second = cache.worker_models(populated)
        # Same factory, same slot count: one pool serves both cells.
        assert first is not None and len(first) == 4
        assert second is not None and len(second) == 4
        assert cache.model_misses == 1 and cache.model_hits == 1

    def test_cohort_change_builds_a_new_right_sized_pool(self):
        cache = SetupCache()
        small = _blob_workload().with_population(
            PopulationConfig(num_clients=64, cohort_size=4)
        )
        large = _blob_workload().with_population(
            PopulationConfig(num_clients=64, cohort_size=6)
        )
        assert len(cache.worker_models(small)) == 4
        assert len(cache.worker_models(large)) == 6
        assert cache.model_misses == 2

    @pytest.mark.parametrize("cached", [False, True], ids=["eager", "memoized"])
    def test_a_population_cluster_is_its_cohort_window(self, cached):
        # One slot per cohort member, slot s seeded with client s's shard,
        # however many clients the population holds.
        workload = _blob_workload().with_population(
            PopulationConfig(num_clients=64, cohort_size=4)
        )
        cluster, _ = build_cluster(workload, SetupCache() if cached else None)
        assert cluster.num_workers == 4
        for slot, worker in enumerate(cluster.workers):
            shard = cluster.population.directory.shard(slot)
            assert worker.dataset.base is shard.base is workload.train_dataset
            np.testing.assert_array_equal(worker.dataset.rows, shard.rows)
            np.testing.assert_array_equal(worker.dataset.y, shard.y)

    def test_memoized_population_build_matches_eager(self):
        workload = _blob_workload().with_population(
            PopulationConfig(num_clients=32, cohort_size=4)
        )
        eager_cluster, _ = build_cluster(workload)
        cached_cluster, _ = build_cluster(workload, SetupCache())
        np.testing.assert_array_equal(
            eager_cluster.parameter_matrix, cached_cluster.parameter_matrix
        )


# -- experiment-layer plumbing ----------------------------------------------------


class TestExperimentPlumbing:
    def test_with_population_snaps_worker_count(self):
        workload = _blob_workload(num_workers=2).with_population(
            PopulationConfig(num_clients=100, cohort_size=6)
        )
        assert workload.num_workers == 6
        assert workload.with_population(None).population is None
        with pytest.raises(ConfigurationError):
            _blob_workload(
                num_workers=3,
                population=PopulationConfig(num_clients=100, cohort_size=6),
            )

    def test_population_changes_the_sweep_fingerprint(self):
        cache = SetupCache()
        base = _blob_workload()
        populated = base.with_population(PopulationConfig(num_clients=50, cohort_size=4))
        repopulated = base.with_population(PopulationConfig(num_clients=51, cohort_size=4))
        fingerprints = [
            workload_fingerprint(config, cache)
            for config in (base, populated, repopulated)
        ]
        assert fingerprints[0] != fingerprints[1]
        assert fingerprints[1] != fingerprints[2]
        assert fingerprints[1] == workload_fingerprint(populated, cache)

    def test_run_result_population_label_persists(self):
        workload = _blob_workload().with_population(
            PopulationConfig(num_clients=32, cohort_size=4)
        )
        cluster, test_dataset = build_cluster(workload)
        run = TrainingRun(accuracy_target=0.99, max_steps=6, eval_every_steps=3)
        result = run.execute(
            LocalSGDStrategy(tau=2), cluster, test_dataset, workload_name=workload.name
        )
        assert result.population.startswith("pop(N=32,C=4")
        round_trip = result_from_dict(result_to_dict(result))
        assert round_trip.population == result.population
        # Per-client step accounting: every round, 4 bound clients stepped.
        population = cluster.population
        assert sum(population.client_steps.values()) == 4 * result.parallel_steps
        assert population.peak_resident_clients <= workload.population.effective_memory_budget

    def test_bernoulli_population_training_run(self):
        workload = _blob_workload().with_population(
            PopulationConfig(
                num_clients=64, cohort_size=4, sampling="bernoulli", act_prob=0.05
            )
        )
        cluster, test_dataset = build_cluster(workload)
        run = TrainingRun(accuracy_target=0.99, max_steps=8, eval_every_steps=4)
        result = run.execute(
            FDAStrategy(threshold=0.5), cluster, test_dataset, workload_name=workload.name
        )
        population = cluster.population
        assert population.rounds_completed == result.parallel_steps
        assert 0 < len(population.client_steps) <= 4 * population.rounds_completed
