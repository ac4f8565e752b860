"""The legality table (:mod:`repro.composition`) against real construction.

Every row is walked from the call site that sees its two features: a
``Refused`` row raises its own error and message, a ``Degraded`` row shows
its effect, and every feature pair the table does not list builds and runs.
The first class pins the compositions that once ran silently — each setting
was dropped and the run was bit-identical with it on and off.
"""

from __future__ import annotations

import re
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from repro.composition import (
    FAULT_FEATURES,
    FEATURES,
    RULES,
    TOPOLOGY_FEATURES,
    Degraded,
    Refused,
    allows,
    check_composition,
    features,
)
from repro.core.fda import FDATrainer
from repro.core.monitor import make_monitor
from repro.distributed.participation import Participation
from repro.distributed.topology import NAMED_TOPOLOGIES
from repro.exceptions import ConfigurationError
from repro.experiments.run import TrainingRun
from repro.experiments.setup import build_cluster
from repro.experiments.sweep import lower_grid, run_grid
from repro.faults.plan import FaultPlan
from repro.population.config import PopulationConfig
from repro.serving import ServedFDATrainer, ServingConfig
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.fedopt import fedadam_strategy
from repro.strategies.synchronous import SynchronousStrategy

POPULATION = PopulationConfig(num_clients=40, cohort_size=4)


def _served(cluster, config=None):
    monitor = make_monitor("linear", cluster.model_dimension, seed=3)
    return ServedFDATrainer(cluster, monitor, 0.05, config or ServingConfig(arrival="poisson"))


class TestSilentCompositionsAreRefused:
    """Each of these ran at the parent commit with the setting silently dropped."""

    def test_a_server_round_refuses_timeline_dropout(self, blobs_workload):
        cluster, _ = build_cluster(replace(blobs_workload, dropout_rate=0.5))
        with pytest.raises(ConfigurationError, match="ROADMAP item 2f"):
            fedadam_strategy().attach(cluster)

    @pytest.mark.parametrize(
        "change",
        [
            {"dropout_rate": 0.5},
            {"population": POPULATION},
        ],
        ids=["dropout", "population"],
    )
    def test_the_served_coordinator_refuses(self, blobs_workload, change):
        workload = replace(blobs_workload, **change)
        cluster, _ = build_cluster(workload)
        with pytest.raises(ConfigurationError, match="ROADMAP item 2c"):
            _served(cluster)

    def test_a_served_workload_is_not_a_lockstep_sweep_cell(self, blobs_workload):
        serving = ServingConfig(arrival_rate=0.2, queue_capacity=2, service_seconds=5.0)
        cells = lower_grid(
            replace(blobs_workload, serving=serving),
            TrainingRun(accuracy_target=1.0, max_steps=1, eval_every_steps=1),
            lambda: FDAStrategy(threshold=0.05),
        )
        with pytest.raises(ConfigurationError, match="ROADMAP item 2a"):
            run_grid(cells)


# ---------------------------------------------------------------------------
# The walk: one scenario per feature set, driven from the real call sites
# ---------------------------------------------------------------------------

_FAULT_RATES = {
    "churn": {"crash_rate": 0.5, "recovery_rounds": 2},
    "link-loss": {"loss_rate": 0.3},
}
_PROTOCOLS = ("server-round", "served", "quiet-gate")

#: Feature pairs that no call site can put together, so they need no row.
_UNBUILDABLE = {
    **{frozenset(pair): "a run has one protocol" for pair in combinations(_PROTOCOLS, 2)},
    **{frozenset(p): "a fabric has one topology" for p in combinations(TOPOLOGY_FEATURES, 2)},
    frozenset(("served", "lockstep-run")): "the coordinator is not a lockstep run",
    frozenset(("served", "resume")): "the coordinator takes no checkpoint",
    frozenset(("resume", "lockstep-run")): "the sweep executor takes no checkpoint",
    frozenset(("partial-cohort", "lockstep-run")): "the sweep executor binds no cohort",
}


def _workload(blobs_workload, present):
    rates = {k: v for f in FAULT_FEATURES if f in present for k, v in _FAULT_RATES[f].items()}
    topology = [name for name in TOPOLOGY_FEATURES if name in present]
    workload = replace(
        blobs_workload,
        faults=FaultPlan(seed=1, **rates) if rates else None,
        compression="topk" if "compression" in present else None,
        dropout_rate=0.5 if "dropout" in present else 0.0,
        topology=topology[0] if topology else None,
        serving=ServingConfig(arrival="closed") if "serving-config" in present else None,
    )
    return workload.with_population(POPULATION) if "population" in present else workload


def _drive(blobs_workload, present, tmp_path):
    """Build what ``present`` names and run one round through its call sites."""
    present = set(present)
    workload = _workload(blobs_workload, present)
    if "server-round" in present:
        factory = fedadam_strategy
    elif "quiet-gate" in present:
        factory = lambda: FDAStrategy(threshold=0.05)  # noqa: E731
    else:
        factory = SynchronousStrategy
    if "lockstep-run" in present:
        run_grid(lower_grid(workload, TrainingRun(1.0, max_steps=1, eval_every_steps=1), factory))
        return

    def built():
        cluster, test = build_cluster(workload)
        if "partial-cohort" in present:
            cluster.bind_members(Participation(mask=[True, True, False, True]))
        return cluster, test

    cluster, test = built()
    if "served" in present:
        trainer = _served(cluster, workload.serving)
        assert trainer.serve_updates(4) == 4
        return
    checkpoint = tmp_path / "checkpoint.json"
    run = TrainingRun(
        1.0, max_steps=2, eval_every_steps=1, checkpoint_every=1, checkpoint_path=checkpoint
    )
    result = run.execute(factory(), cluster, test)
    assert result.parallel_steps >= 1
    if "resume" in present:
        cluster, test = built()
        resumed = TrainingRun(1.0, max_steps=3, eval_every_steps=1)
        assert resumed.execute(factory(), cluster, test, resume_from=checkpoint).parallel_steps


def _refused_rows():
    return [(sorted(pair), rule) for pair, rule in RULES.items() if isinstance(rule, Refused)]


@pytest.mark.parametrize(
    "pair, verdict", _refused_rows(), ids=["+".join(pair) for pair, _ in _refused_rows()]
)
def test_a_refused_row_raises_from_its_call_site(blobs_workload, tmp_path, pair, verdict):
    with pytest.raises(verdict.error, match=f"^{re.escape(verdict.message)}$"):
        _drive(blobs_workload, pair, tmp_path)


_LEGAL = [
    pair
    for pair in combinations(FEATURES, 2)
    if frozenset(pair) not in RULES and frozenset(pair) not in _UNBUILDABLE
]


@pytest.mark.parametrize("pair", _LEGAL, ids=["+".join(pair) for pair in _LEGAL])
def test_a_pair_not_in_the_table_builds_and_runs(blobs_workload, tmp_path, pair):
    assert allows(*pair)
    _drive(blobs_workload, pair, tmp_path)


def test_churn_turns_the_quiet_gate_off(blobs_workload):
    """The one ``Degraded`` row: under churn every FDA step exchanges states."""
    (verdict,) = [v for v in RULES.values() if isinstance(v, Degraded)]
    assert RULES[frozenset(("churn", "quiet-gate"))] is verdict

    def exchanged(faults):
        cluster, _ = build_cluster(replace(blobs_workload, faults=faults))
        monitor = make_monitor("linear", cluster.model_dimension, seed=3)
        return [step.exchanged for step in FDATrainer(cluster, monitor, 1e9).run_steps(6)]

    assert not any(exchanged(None))  # Θ is out of reach: every step is quiet
    assert all(exchanged(FaultPlan(crash_rate=0.2, recovery_rounds=2, seed=1)))


def test_the_table_speaks_only_of_known_features():
    assert set(TOPOLOGY_FEATURES) == set(NAMED_TOPOLOGIES)
    assert len(set(FEATURES)) == len(FEATURES)
    for pair in RULES:
        assert len(pair) == 2 and pair <= set(FEATURES), sorted(pair)
    assert not set(_UNBUILDABLE) & set(RULES)


def test_check_composition_raises_the_first_refused_row_in_table_order():
    check_composition("churn", "quiet-gate", "star")  # degraded is not refused
    with pytest.raises(ConfigurationError, match="ROADMAP item 2b"):
        check_composition("served", "churn", "compression")
    assert allows("served", "link-loss", "star")
    assert not allows("churn", "quiet-gate")


def test_features_of_a_plain_cluster_is_its_topology(blobs_workload):
    cluster, _ = build_cluster(replace(blobs_workload, topology="ring"))
    assert features(cluster) == ("ring",)
    cluster.bind_members(Participation(mask=np.array([True, False, True, True])))
    assert features(cluster) == ("ring", "partial-cohort")
