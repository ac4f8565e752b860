"""Distributed training strategies.

A strategy drives a :class:`~repro.distributed.cluster.SimulatedCluster`
through its synchronization protocol.  The paper compares five algorithms —
SketchFDA, LinearFDA, Synchronous (BSP), FedAdam and FedAvgM — and this
subpackage implements all of them plus Local-SGD with a fixed period and
FedProx/SCAFFOLD drift control.  Compression — the orthogonal technique
discussed in Section 2 — is not a strategy: every strategy here picks it up
uniformly when the cluster carries a compression config
(:mod:`repro.compression`, ``SimulatedCluster(compression=...)``).
"""

from repro.strategies.base import Strategy, StrategyRound
from repro.strategies.synchronous import SynchronousStrategy
from repro.strategies.local_sgd import (
    LocalSGDStrategy,
    decreasing_tau,
    fixed_tau,
    increasing_tau,
    post_local_sgd_tau,
)
from repro.strategies.fedopt import FedOptStrategy
from repro.strategies.fda_strategy import FDAStrategy
from repro.strategies.drift_control import FedProxStrategy, ScaffoldStrategy

__all__ = [
    "Strategy",
    "StrategyRound",
    "SynchronousStrategy",
    "LocalSGDStrategy",
    "fixed_tau",
    "increasing_tau",
    "decreasing_tau",
    "post_local_sgd_tau",
    "FedOptStrategy",
    "FDAStrategy",
    "FedProxStrategy",
    "ScaffoldStrategy",
]
