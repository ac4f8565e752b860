"""The legality table: which plane settings compose, and what happens when two do not.

:data:`RULES` maps a pair of :data:`FEATURES` to :class:`Refused` (the call
site that sees both raises its error) or :class:`Degraded` (the run goes on
with one behaviour off); an unlisted pair composes.  Rules inside one config
and checks of one input stay where they are.  This module imports no plane.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Tuple, Type

from repro.exceptions import ConfigurationError, ExperimentError, ReproError

FAULT_FEATURES = ("churn", "link-loss")
TOPOLOGY_FEATURES = ("star", "ring", "hierarchical", "gossip")
#: Every feature; the first six in the order :func:`features` tests them.
FEATURES = (
    *FAULT_FEATURES, "compression", "population", "partial-cohort", "dropout", *TOPOLOGY_FEATURES,
    "server-round", "served", "serving-config", "lockstep-run", "resume", "quiet-gate",
)
Refused = NamedTuple("Refused", [("error", Type[ReproError]), ("message", str)])
Degraded = NamedTuple("Degraded", [("what_turns_off", str)])


def _pending(item: str, message: str) -> Refused:
    return Refused(ConfigurationError, f"{message} yet (ROADMAP item {item})")


_SERVED = {
    "churn": "worker churn", "partial-cohort": "a partial cohort",
    "population": "a client population", "dropout": "timeline dropout",
}
_SERVERLESS = Refused(ConfigurationError, "a server round needs a star or hierarchical server")

#: ``{feature, feature} → verdict``, checked in this order.
RULES = {
    **{frozenset((fault, "compression")): _pending(
        "2b", "fault injection and collective compression cannot be combined"
    ) for fault in FAULT_FEATURES},
    **{frozenset(("served", feature)): _pending(
        "2c", f"the served coordinator never opens a round, so it cannot drive {what}"
    ) for feature, what in _SERVED.items()},
    frozenset(("server-round", "ring")): _SERVERLESS,
    frozenset(("server-round", "gossip")): _SERVERLESS,
    frozenset(("server-round", "dropout")): _pending(
        "2f", "a server round trains every worker, so it cannot drop workers per round"
    ),
    frozenset(("serving-config", "lockstep-run")): _pending(
        "2a", "a sweep cell runs lockstep, so it cannot run a served workload"
    ),
    frozenset(("population", "resume")): Refused(ExperimentError, (
        "cannot resume a population run: the checkpoint does not hold the cohort sampler's "
        "stream, the ClientStateStore, client_steps or rounds_completed (ROADMAP item 8)"
    )),
    frozenset(("churn", "quiet-gate")): Degraded("the quiet gate is off; every step exchanges"),
}


def features(cluster) -> Tuple[str, ...]:
    """The features a built :class:`~repro.distributed.cluster.SimulatedCluster` carries."""
    faults, cohort = cluster.faults, cluster.members.mask
    active = (False,) * len(FAULT_FEATURES) if faults is None else (
        faults.churn_active, faults.loss_active)
    active += (cluster.compression is not None, cluster.population is not None,
               cohort is not None and not cohort.all(), bool(cluster.timeline.dropout_rate))
    return (cluster.fabric.topology.name, *(f for f, on in zip(FEATURES, active) if on))


def check_composition(*present: str) -> None:
    """Raise the first :class:`Refused` row whose two features are both ``present``."""
    for pair, verdict in RULES.items():
        if isinstance(verdict, Refused) and pair.issubset(present):
            raise verdict.error(verdict.message)


def allows(*present: str) -> bool:
    """Whether no pair of ``present`` features is in the table, refused or degraded."""
    return not any(frozenset(pair) in RULES for pair in combinations(set(present), 2))
