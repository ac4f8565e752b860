"""The per-worker loop: the oracle the engine is held to.

Algorithm 1 has ``K`` workers each run ``Optimize(w, B)`` in lockstep.  The
engine (:class:`repro.distributed.engine.BatchedEngine`) runs that as one
stacked ``(K, d)`` pass; :class:`PerWorkerLoop` runs it the way the paper
writes it, one worker at a time, and every cross-engine suite compares the
two.  For each stepping row the loop does what a lone worker would:

* draws the mini-batch from the worker's own sampler (a local epoch: from its
  own shuffled epoch stream);
* runs the worker's own :class:`~repro.nn.model.Sequential` forward and
  backward (:func:`train_batch`), forming no input gradient for the first
  layer;
* applies the row's rule through the cluster's stack
  (``StackedOptimizer.step_rows`` on that one row), after the strategy's
  gradient transform if it has one;
* on a non-finite loss, finishes the round for every other worker and then
  raises one ``TrainingError`` naming every diverged worker — so, unlike the
  engine's atomic failure, every non-diverged worker has stepped once.

:func:`per_worker` installs the loop beneath a normal cluster's
``step_all`` / ``step_worker`` / ``epoch_worker``: everything above the
engine — the protocols, the fabric, the ledgers, the stack itself — is the
cluster's own.  :func:`solo_step` steps an optimizer that belongs to no
cluster, as the one row of a private stack (:func:`solo_stack`).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.distributed.cluster import SimulatedCluster
from repro.exceptions import TrainingError
from repro.nn.layers import Conv2D, Dense
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.optim.base import Optimizer, StackedOptimizer


def backward(model: Sequential, grad_output: np.ndarray, input_gradient: bool = True):
    """Backpropagate through every layer of ``model``; returns ∂L/∂input.

    With ``input_gradient=False`` a Dense or Conv2D first layer skips the
    product (and ``col2im``) that would form it, and ``None`` is returned.
    """
    grad = grad_output
    for index, layer in reversed(list(enumerate(model.layers))):
        if index == 0 and not input_gradient and isinstance(layer, (Dense, Conv2D)):
            return layer.backward(grad, input_gradient=False)
        grad = layer.backward(grad)
    return grad


def train_batch(model: Sequential, x, y) -> float:
    """One forward/backward pass of a lone model; gradients are left in its layers."""
    outputs = model.forward(x, training=True)
    loss_value, grad = SoftmaxCrossEntropy.gradient(outputs, y)
    backward(model, grad, input_gradient=False)
    return loss_value


class PerWorkerLoop:
    """``K`` independent per-worker steps, beneath one cluster's engine."""

    def __init__(self, cluster: SimulatedCluster) -> None:
        # The engine's weak proxy: the loop's methods live on the engine, so
        # a strong reference would make the cluster a cycle.
        self.cluster = cluster.engine.cluster
        self._stack: StackedOptimizer = cluster.engine.stacked_optimizer

    def step_all(self, active: Optional[np.ndarray] = None) -> float:
        workers = self.cluster.workers
        if active is not None:
            workers = [worker for worker, is_active in zip(workers, active) if is_active]
        losses: List[float] = []
        failures: List[str] = []
        for worker in workers:
            # Complete the round for every worker before reporting failures,
            # so the error names *all* diverged workers (not just the first)
            # and every non-diverged worker has stepped exactly once.
            try:
                losses.append(self.step_worker(worker.worker_id))
            except TrainingError as error:
                failures.append(str(error))
        if failures:
            raise TrainingError("; ".join(failures))
        return float(np.mean(losses)) if losses else 0.0

    def step_worker(self, worker_id: int) -> float:
        worker = self.cluster.workers[worker_id]
        worker.last_loss = self._train(worker, *worker._sampler.sample())
        return worker.last_loss

    def epoch_worker(self, worker_id: int, transform=None) -> float:
        worker = self.cluster.workers[worker_id]
        losses = [
            self._train(worker, x, y, transform) for x, y in worker._epoch_iterator.epoch()
        ]
        worker.last_loss = float(np.mean(losses)) if losses else worker.last_loss
        return worker.last_loss if worker.last_loss is not None else 0.0

    def _train(self, worker, batch_x, batch_y, transform=None) -> float:
        """Forward, backward and the row's optimizer update on one mini-batch."""
        loss_value = train_batch(worker.model, batch_x, batch_y)
        if not np.isfinite(loss_value):
            raise TrainingError(
                f"worker {worker.worker_id}: loss became non-finite ({loss_value}); "
                "reduce the learning rate or variance threshold"
            )
        rows = np.array([worker.worker_id])
        params = worker.model.parameters_view()[None]
        grads = worker.model.gradients_view()[None]
        if transform is not None:
            transform(rows, params, grads)
        self._stack.step_rows(params, grads, rows)
        worker.steps_performed += 1
        return float(loss_value)


def per_worker(cluster: SimulatedCluster) -> SimulatedCluster:
    """``cluster``, stepping through a :class:`PerWorkerLoop` from now on."""
    loop = PerWorkerLoop(cluster)
    engine = cluster.engine
    engine.step_all = loop.step_all
    engine.step_worker = loop.step_worker
    engine.epoch_worker = loop.epoch_worker
    return cluster


#: The two sides of every parity pair: the per-worker oracle and the engine.
SIDES = ("per-worker", "batched")


def on_side(side: str, cluster: SimulatedCluster) -> SimulatedCluster:
    """``cluster`` as built (``"batched"``) or under the per-worker loop."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return per_worker(cluster) if side == "per-worker" else cluster


def solo_stack(optimizer: Optimizer, dimension: int, dtype=None) -> StackedOptimizer:
    """The private one-row stack that holds the state of an optimizer no cluster owns.

    Built on the optimizer's first step and kept on it, so every later step
    (and a test reading the state) finds the same row.
    """
    stack = vars(optimizer).get("_solo_stack")
    if stack is None:
        stack = StackedOptimizer(optimizer, 1, dimension, dtype=dtype)
        optimizer._solo_stack = stack
    return stack


def solo_step(optimizer: Optimizer, params, grads) -> np.ndarray:
    """One step of an optimizer no cluster owns; returns the updated copy.

    The step runs gather → rule → scatter through the optimizer's
    :func:`solo_stack` (float32 inputs step in float32, everything else in
    float64).
    """
    params = np.asarray(params)
    grads = np.asarray(grads)
    if params.dtype not in (np.float32, np.float64) or grads.dtype != params.dtype:
        params = np.asarray(params, dtype=np.float64)
        grads = np.asarray(grads, dtype=np.float64)
    stack = solo_stack(optimizer, params.size, params.dtype)
    updated = np.array(params)
    stack.step_rows(updated[None], grads[None], np.array([0]))
    return updated
