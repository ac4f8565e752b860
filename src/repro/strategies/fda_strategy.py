"""FDA as a strategy: SketchFDA and LinearFDA.

Thin adapter that exposes the :class:`~repro.core.fda.FDATrainer` through the
uniform :class:`~repro.strategies.base.Strategy` interface used by the
experiment harness.  One round is one FDA step (local step + state AllReduce +
conditional synchronization).
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.core.fda import FDATrainer
from repro.core.monitor import VARIANTS, VarianceMonitor, check_variant, make_monitor
from repro.core.theta import DynamicThetaController
from repro.distributed.cluster import SimulatedCluster
from repro.exceptions import ConfigurationError
from repro.strategies.base import Strategy


class FDAStrategy(Strategy):
    """Federated Dynamic Averaging with a chosen variance monitor.

    ``variant`` selects the monitor: ``"linear"`` (LinearFDA), ``"sketch"``
    (SketchFDA) or ``"exact"`` (the ablation monitor) — a key of
    :data:`repro.core.monitor.VARIANTS`, checked here.  An explicit
    ``monitor`` replaces the one ``variant`` names; the trainer works on a
    copy of it, so the strategy's configuration never changes while it
    trains.  ``threshold`` is the paper's Θ.  An optional
    :class:`DynamicThetaController` enables the future-work
    bandwidth-targeting extension.  On a cluster built with
    collective-level compression (``WorkloadConfig.compression``) every
    triggered synchronization goes through ``cluster.synchronize`` and
    exchanges compressed model deltas instead of full-precision parameters
    (Section 2: FDA is orthogonal to compression), with non-trainable buffers
    averaged and charged exactly as on the uncompressed path.

    Partial participation comes from the cluster's timeline: the underlying
    :class:`FDATrainer` samples the per-step mask and only active workers
    compute and report states; the engine runs the active rows as one masked
    vectorized pass.
    """

    name = "FDA"

    def __init__(
        self,
        threshold: float,
        variant: str = "linear",
        sketch_depth: int = 5,
        sketch_width: int = 250,
        seed: int = 0,
        theta_controller: Optional[DynamicThetaController] = None,
        monitor: Optional[VarianceMonitor] = None,
    ) -> None:
        super().__init__()
        if threshold < 0:
            raise ConfigurationError(f"threshold (Theta) must be non-negative, got {threshold}")
        self.threshold = float(threshold)
        self.variant = check_variant(variant)
        self.sketch_depth = int(sketch_depth)
        self.sketch_width = int(sketch_width)
        self.seed = int(seed)
        self.theta_controller = theta_controller
        self._explicit_monitor = monitor
        self._trainer: Optional[FDATrainer] = None
        self.name, _ = VARIANTS[variant]

    def _setup(self, cluster: SimulatedCluster) -> None:
        monitor = copy.deepcopy(self._explicit_monitor) or make_monitor(
            self.variant,
            cluster.model_dimension,
            sketch_depth=self.sketch_depth,
            sketch_width=self.sketch_width,
            seed=self.seed,
        )
        self._trainer = FDATrainer(
            cluster,
            monitor,
            self.threshold,
            theta_controller=self.theta_controller,
        )

    @property
    def trainer(self) -> FDATrainer:
        """The underlying FDA trainer (available after :meth:`attach`)."""
        if self._trainer is None:
            raise ConfigurationError("FDAStrategy is not attached to a cluster yet")
        return self._trainer

    def _run_round(self, cluster: SimulatedCluster) -> float:
        del cluster  # the trainer already holds the cluster
        result = self._trainer.step()
        return result.mean_loss

    def spec(self) -> dict:
        # An explicit monitor replaces the one ``variant`` names; listed only
        # when given, so the run keys of monitor-less strategies stay put.
        config = super().spec()
        if self._explicit_monitor is not None:
            config["monitor"] = self._explicit_monitor
        return config

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        state["trainer"] = self.trainer.state_dict()
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.trainer.load_state_dict(state["trainer"])

    @property
    def synchronization_count(self) -> int:
        """Number of model synchronizations triggered so far."""
        return self.trainer.synchronization_count

    @property
    def current_threshold(self) -> float:
        """The Θ currently in force (may differ from the initial one with dynamic Θ)."""
        return self.trainer.threshold
