"""The FDA step without the quiet-step gate: the protocol's ungated oracle.

:class:`UngatedFDATrainer` runs Algorithm 1 as it ran before the lockstep
trainer learned to skip a step whose rows all sit inside the ball: every step
builds every stepped worker's full row, AllReduces the counted rows and
evaluates ``H``.  The gated :class:`~repro.core.fda.FDATrainer` must make the
same sync decisions bit for bit, so the two are run side by side.

It also keeps the drift plane the gated trainer no longer holds: every step
writes all ``K`` drifts into its own ``(K, d)`` scratch with
``cluster.drift_matrix`` and hands the monitor the stepped rows of that
plane, so the gated trainer's row-at-a-time drifts are checked against it.
"""

from __future__ import annotations

import numpy as np

from repro.core.fda import FDATrainer, FdaStepResult
from repro.distributed.cluster import CATEGORY_STATE


class UngatedFDATrainer(FDATrainer):
    """:class:`FDATrainer` with the state exchange on every step.

    Step ``t + 1``'s averaged rows leave ``norms[t]``, their ‖u‖² column, and
    ``mean_norms[t]``, the averaged row's column 0 (the mean ‖u‖² that bounds
    ``H``); both are ``None`` if nothing was averaged.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.norms, self.mean_norms = [], []
        cluster = self.cluster
        self._drift_scratch = np.empty(
            (cluster.num_workers, cluster.model_dimension), dtype=cluster.dtype
        )

    def step(self) -> FdaStepResult:
        bytes_before = self.cluster.total_bytes
        mean_loss = self.cluster.step_all(
            active=self.cluster.timeline.sample_participation()
        )
        stepped = self.cluster.participants.mask
        fresh = slice(None) if stepped is None else stepped

        drifts = self.cluster.drift_matrix(
            self.cluster.shared_parameters, out=self._drift_scratch
        )
        fresh_states = self.monitor.local_states(drifts[fresh])
        self.states[fresh] = fresh_states
        self.reported[fresh] = True
        counted = fresh
        faults = self.cluster.faults
        if faults is not None and faults.churn_active:
            counted = stepped | (self.reported & ~faults.alive)
        states = self.states[counted]
        if len(states):
            self.cluster.fabric.allreduce(self.state_elements_per_step, CATEGORY_STATE)
            average = self.monitor.average(states)
            self.norms.append(states[:, 0].copy())
            self.mean_norms.append(float(average[0]))
            estimate = self.monitor.estimate(average)
        else:
            self.norms.append(None)
            self.mean_norms.append(None)
            estimate = self.last_estimate if self.last_estimate is not None else 0.0
        self.last_estimate = float(estimate)

        synchronized = len(states) > 0 and estimate > self.threshold
        if synchronized:
            self._complete_synchronization()

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
            active_workers=len(fresh_states),
            exchanged=len(states) > 0,
        )
