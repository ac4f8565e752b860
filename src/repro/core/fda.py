"""Algorithm 1 of the paper: the Federated Dynamic Averaging trainer.

Each FDA step performs, on every worker in parallel:

1. one local optimization step on a fresh mini-batch,
2. computation of the local drift ``u_t^{(k)} = w_t^{(k)} − w_{t0}`` (the
   difference from the model shared at the last synchronization),
3. construction of the variant-specific local state — one row
   ``[‖u‖² | payload]`` of the protocol's ``(K, s)`` state table,
4. an AllReduce of the (small) local states, skipped on a quiet step: one whose
   rows all keep ‖u‖² inside Θ (Kamp et al.'s local condition) cannot sync,
5. evaluation of the variance over-estimate ``H(S̄_t)`` on their mean; if it
   exceeds Θ the models are synchronized with a (large) AllReduce,
   re-establishing the Round Invariant ``Var(w_t) ≤ Θ``.

The trainer charges both collectives to the cluster's communication tracker
under separate categories so the experiment harness can report the paper's
communication metric exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.monitor import LinearMonitor, VarianceMonitor
from repro.core.theta import DynamicThetaController
from repro.distributed.cluster import CATEGORY_STATE, SimulatedCluster
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class FdaStepResult:
    """Everything observable about one FDA step."""

    step: int
    mean_loss: float
    variance_estimate: float
    threshold: float
    synchronized: bool
    communication_bytes: int
    parallel_steps: int
    virtual_time: float = 0.0
    active_workers: int = 0
    #: The states were AllReduced (a quiet step's ``variance_estimate`` is its mean ‖u‖² bound).
    exchanged: bool = False


class FDAProtocol:
    """What every FDA driver shares, lockstep or event-driven.

    The threshold Θ, a common starting model ``w_0`` (Algorithm 1, line 1),
    the one rotation ``w_{t-1} ← w_{t0} ← w̄`` that follows a model exchange,
    and the local-state table.  ``w_{t0}`` is the cluster's
    ``shared_parameters``, which the exchange itself rebinds; the protocol
    keeps only ``w_{t-1}``, which the monitor needs.

    ``states`` is one float64 ``(K, s)`` table: row ``k`` is worker ``k``'s
    last reported local state ``[‖u‖² | payload]`` (built by the monitor
    alone), and ``reported[k]`` says whether it holds one.  An estimate is
    ``H`` of the mean of some of its rows; which rows is the driver's rule.
    """

    def __init__(
        self, cluster: SimulatedCluster, monitor: VarianceMonitor, threshold: float
    ) -> None:
        if threshold < 0:
            raise ConfigurationError(f"threshold (Theta) must be non-negative, got {threshold}")
        self.cluster = cluster
        self.monitor = monitor
        self.threshold = float(threshold)
        self.synchronization_count = 0
        cluster.broadcast_parameters(cluster.workers[0].get_parameters())
        # w_{t−1}: the model after the second most recent sync.
        self._previous_reference = cluster.shared_parameters
        self.states = np.zeros((cluster.num_workers, self.state_elements_per_step))
        self.reported = np.zeros(cluster.num_workers, dtype=bool)

    @property
    def state_elements_per_step(self) -> int:
        """Elements one worker's local state costs per completed step (the row width)."""
        return self.monitor.state_num_elements(self.cluster.model_dimension)

    def _complete_synchronization(self, notify_monitor: bool = True) -> np.ndarray:
        """Exchange models and rotate the protocol bookkeeping.

        The single place that performs the monitor notification, reference
        rotation (``w_{t-1} ← w_{t0} ← w̄``), and counter update.  The
        exchange is ``cluster.synchronize``: an exact AllReduce, or the
        compressed drift exchange when the cluster carries collective-level
        compression (Section 2: FDA is orthogonal to compression).  It charges
        the fabric, advances the shared clock as a barrier, and makes ``w̄``
        the cluster's shared model ``w_{t0}``.
        """
        previous = self._previous_reference
        self._previous_reference = self.cluster.shared_parameters  # w_{t-1} ← w_{t0}
        new_global = self.cluster.synchronize()
        if notify_monitor:
            self.monitor.on_synchronization(new_global, previous)
        self.synchronization_count += 1
        return new_global


class FDATrainer(FDAProtocol):
    """Drives a :class:`SimulatedCluster` with the FDA protocol (Algorithm 1)."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        monitor: VarianceMonitor,
        threshold: float,
        theta_controller: Optional[DynamicThetaController] = None,
    ) -> None:
        super().__init__(cluster, monitor, threshold)
        self.theta_controller = theta_controller
        self.step_count = 0
        self.last_estimate: Optional[float] = None
        # Reusable (K, d) scratch for the per-step drift matrix; the monitor
        # copies what it keeps into the state table's rows.
        self._drift_scratch = np.empty(
            (cluster.num_workers, cluster.model_dimension), dtype=cluster.dtype
        )

    # -- the protocol -------------------------------------------------------------

    def step(self) -> FdaStepResult:
        """Run one FDA step across all workers and return its observables."""
        bytes_before = self.cluster.total_bytes
        # Partial participation (timeline dropout): inactive workers neither
        # compute nor report a state this step.  With the default timeline the
        # draw is None and every worker runs — the paper's lockstep protocol.
        mean_loss = self.cluster.step_all(
            active=self.cluster.timeline.sample_participation()
        )
        # Who stepped: the draw ∧ the bound cohort ∧ liveness, as the cluster
        # composed it for the engine (None in lockstep).
        stepped = self.cluster.participants.mask
        fresh = slice(None) if stepped is None else stepped

        # The stepped workers' rows, from their drifts relative to the last
        # synchronization point: one vectorized (K, d) subtraction, and the
        # monitor batches what it can without changing bits (e.g. one sparse
        # product sketching every row), so sync decisions, byte ledgers and
        # the golden trajectories do not depend on the mask.
        drifts = self.cluster.drift_matrix(
            self.cluster.shared_parameters, out=self._drift_scratch
        )[fresh]
        # Kamp et al.'s local condition: while every stepped row's ‖u‖² stays
        # inside the ball no H can exceed Θ, so the step is quiet — no payload,
        # no exchange, no estimate.  Churn keeps the exchange on every step.
        faults = self.cluster.faults
        churn = faults is not None and faults.churn_active
        norms = self.monitor.squared_norms(drifts)
        bound = None if churn else self.monitor.quiet_bound(norms, self.threshold)
        states = ()
        if bound is None:
            self.states[fresh] = self.monitor.local_states(drifts, norms)
            self.reported[fresh] = True
            # The estimate reads the rows that stepped and, under churn, the
            # last report of every dead worker: it cannot report, and its
            # stale drift only makes the over-estimate more conservative.  An
            # alive slot that merely sat out (dropout, unbound) is skipped.
            counted = stepped | (self.reported & ~faults.alive) if churn else fresh
            states = self.states[counted]
        if len(states):
            # AllReduce of the local states (charged as small "fda-state"
            # traffic, routed through the fabric's topology and network).
            self.cluster.charge_allreduce(self.state_elements_per_step, CATEGORY_STATE)
            estimate = self.monitor.estimate(self.monitor.average(states))
        else:
            # A quiet step reports its bound.  Without one, nobody stepped and
            # no dead worker ever reported: no traffic, no sync decision.
            estimate = bound if bound is not None else self.last_estimate or 0.0
        self.last_estimate = float(estimate)

        synchronized = len(states) > 0 and estimate > self.threshold
        if synchronized:
            self._complete_synchronization()

        if self.theta_controller is not None:
            self.threshold = self.theta_controller.update(
                self.threshold,
                step_bytes=self.cluster.total_bytes - bytes_before,
                synchronized=synchronized,
            )

        self.step_count += 1
        return FdaStepResult(
            step=self.step_count,
            mean_loss=float(mean_loss),
            variance_estimate=float(estimate),
            threshold=float(self.threshold),
            synchronized=bool(synchronized),
            communication_bytes=int(self.cluster.total_bytes - bytes_before),
            parallel_steps=self.cluster.parallel_steps,
            virtual_time=float(self.cluster.virtual_time),
            active_workers=len(drifts),
            exchanged=len(states) > 0,
        )

    def run_steps(self, num_steps: int) -> List[FdaStepResult]:
        """Run ``num_steps`` FDA steps and return their results."""
        if num_steps < 0:
            raise ConfigurationError(f"num_steps must be non-negative, got {num_steps}")
        return [self.step() for _ in range(num_steps)]

    # -- checkpointing -----------------------------------------------------------

    def state_dict(self) -> dict:
        """Protocol state for a bit-exact resume.

        Everything :meth:`step` mutates outside the cluster: the sync
        reference ``w_{t-1}`` (``w_{t0}`` is the cluster's), the step/sync
        counters, the (possibly dynamically adjusted) threshold, the state
        table with its ``reported`` mask, the Θ controller, and the linear
        monitor's analysis direction ξ, which rotates on every
        synchronization.
        """
        state = {
            "step_count": self.step_count,
            "synchronization_count": self.synchronization_count,
            "threshold": self.threshold,
            "last_estimate": self.last_estimate,
            "previous_reference": self._previous_reference.copy(),
            "states": self.states.copy(),
            "reported": self.reported.copy(),
        }
        if isinstance(self.monitor, LinearMonitor):
            state["monitor_direction"] = self.monitor.direction.copy()
        if self.theta_controller is not None:
            state["theta_controller"] = self.theta_controller.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot taken by :meth:`state_dict` on a fresh trainer."""
        self.step_count = int(state["step_count"])
        self.synchronization_count = int(state["synchronization_count"])
        self.threshold = float(state["threshold"])
        last = state["last_estimate"]
        self.last_estimate = None if last is None else float(last)
        self._previous_reference = np.asarray(
            state["previous_reference"], dtype=self.cluster.dtype
        )
        self.states[...] = state["states"]
        self.reported[...] = state["reported"]
        if "monitor_direction" in state:
            self.monitor.direction = state["monitor_direction"]
        if "theta_controller" in state:
            self.theta_controller.load_state_dict(state["theta_controller"])

    @property
    def synchronization_rate(self) -> float:
        """Fraction of steps that triggered a synchronization so far."""
        if self.step_count == 0:
            return 0.0
        return self.synchronization_count / self.step_count

    def __repr__(self) -> str:
        return (
            f"FDATrainer(variant={self.monitor.name!r}, theta={self.threshold}, "
            f"steps={self.step_count}, syncs={self.synchronization_count})"
        )
