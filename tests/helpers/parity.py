"""Reusable cross-engine parity harness.

The engine must be an *execution* optimization only: for every protocol,
every timeline (full or partial participation), every supported model
(including RNG-stateful ``Dropout``), and every optimizer configuration
(homogeneous or per-worker heterogeneous), a run on the engine must
reproduce the per-worker oracle's training trajectory
(:mod:`helpers.per_worker`) and its communication ledger.  This module owns
the scenario grid and the assertions; the parity tests parametrize over it.

Conventions:

* Floating-point trajectories are compared with :data:`RTOL` (documented
  tolerance: batched GEMMs may legally re-associate reductions; in practice
  per-worker slices run the same BLAS kernels and trajectories come out
  bit-identical on common platforms).  ``exact=True`` upgrades a comparison
  to value-exactness (``rtol=0, atol=0`` — bitwise up to the sign of zero),
  which the SGD scenarios are held to.
* Ledgers — byte counts per category, synchronization decisions, per-worker
  step counts — are compared *exactly*: protocol decisions may not drift.
* Both sides of a pair are built identically (same data/model/timeline
  seeds), so any divergence is the engine's fault.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.backend import DEFAULT_DTYPE, resolve_dtype
from repro.core.fda import FDATrainer
from repro.core.monitor import make_monitor
from repro.core.timeline import Timeline
from repro.data.datasets import Dataset
from repro.distributed.cluster import SimulatedCluster
from repro.distributed.worker import Worker
from repro.nn.architectures import densenet_mini, lenet5, mlp, transfer_head
from repro.nn.layers import (
    Activation,
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
)
from repro.nn.model import Sequential
from repro.optim.adam import Adam

from helpers.per_worker import SIDES, on_side


def tolerance(dtype=None, scale: float = 1.0) -> dict:
    """Dtype-aware comparison bounds as ``{"rtol": ..., "atol": ...}``.

    float64 is the bit-exact reference: both bounds are zero, so comparisons
    against it assert value-exactness.  float32 gets bounds scaled from its
    machine epsilon (``eps ≈ 1.2e-7``): ``rtol = 1e3·eps·scale`` absorbs the
    per-step rounding of a cast pipeline accumulated over a training run,
    ``atol`` guards values near zero.  ``scale`` lets long trajectories widen
    the bounds proportionally.
    """
    resolved = resolve_dtype(dtype)
    if resolved == DEFAULT_DTYPE:
        return {"rtol": 0.0, "atol": 0.0}
    eps = float(np.finfo(resolved).eps)
    return {"rtol": 1e3 * eps * scale, "atol": 10.0 * eps * scale}


def parity_tolerance(dtype=None, steps: int = 1) -> dict:
    """Tolerance for comparing a ``dtype`` trajectory to the float64 golden.

    Rounding error in a float32 run grows with the number of optimizer steps
    taken; ``steps`` scales the bounds sub-linearly (``sqrt``), matching the
    random-walk accumulation of independent rounding errors.
    """
    return tolerance(dtype, scale=max(1.0, float(steps)) ** 0.5)


#: Documented cross-engine trajectory tolerance (see module docstring).
RTOL = 1e-6

def engine_tolerances(dtype=None, steps: int = 1) -> dict:
    """Cross-engine comparison bounds for a parity pair running at ``dtype``.

    float64 pairs (the default) are held to the documented :data:`RTOL` with
    zero absolute slack.  float32 pairs widen both bounds to the
    eps-derived parity tolerance (sqrt-in-``steps``): both sides run the
    same arithmetic, but single-precision GEMMs are free to re-associate their
    reductions more visibly than the double-precision ones the golden
    trajectories were recorded with.
    """
    bounds = parity_tolerance(dtype, steps)
    return {"rtol": max(RTOL, bounds["rtol"]), "atol": bounds["atol"]}


# -- model grid -----------------------------------------------------------------


def mlp_factory():
    return mlp(6, 3, hidden_units=(10, 8), seed=11)


def lenet_factory():
    return lenet5(input_shape=(8, 8, 1), num_classes=4, seed=2)


def bn_factory():
    model = Sequential(
        [
            Conv2D(4, kernel_size=3, padding="same", activation=None, name="conv"),
            BatchNorm(name="bn"),
            Activation("relu", name="act"),
            AvgPool2D(2, name="pool"),
            GlobalAvgPool2D(name="gap"),
            Dense(4, activation=None, name="logits"),
        ],
        name="bn-net",
    )
    model.build((8, 8, 1), seed=3)
    return model


def dropout_factory():
    # transfer_head contains Dropout layers with private per-worker RNG
    # streams — the RNG-stateful case the batched kernels must replay.
    return transfer_head(6, num_classes=3, hidden_units=(12, 8), dropout_rate=0.25, seed=4)


def densenet_factory():
    # One DenseBlock, one TransitionDown, one more DenseBlock: the composite
    # layers, which compute through their children's kernels.
    return densenet_mini(input_shape=(8, 8, 1), num_classes=4, blocks=(1, 1), seed=5)


#: name -> (model factory, per-sample shape, num classes); the model axis of
#: the scenario grid.
MODELS = {
    "mlp": (mlp_factory, (6,), 3),
    "lenet-conv": (lenet_factory, (8, 8, 1), 4),
    "batchnorm-net": (bn_factory, (8, 8, 1), 4),
    "dropout-head": (dropout_factory, (6,), 3),
    "densenet-mini": (densenet_factory, (8, 8, 1), 4),
}

#: name -> timeline dropout rate; the timeline axis of the scenario grid
#: (``full`` is the paper's lockstep protocol, ``dropout`` enables per-round
#: partial participation).
TIMELINES = {"full": 0.0, "dropout": 0.35}


# -- cluster construction --------------------------------------------------------


def make_cluster(
    side: str,
    model_factory: Callable[[], Sequential] = mlp_factory,
    sample_shape: Tuple[int, ...] = (6,),
    num_classes: int = 3,
    num_workers: int = 8,
    optimizer_factory: Callable[[int], object] = lambda worker_id: Adam(0.01),
    batch_size: int = 8,
    dropout_rate: float = 0.0,
    timeline_seed: int = 5,
    data_seed: int = 7,
    **cluster_kwargs,
) -> SimulatedCluster:
    """One cluster of the parity pair: ``side`` is ``"per-worker"`` or ``"batched"``.

    Everything random is seeded identically across the pair: worker shards
    (``data_seed``), per-worker sampler streams (the worker id), and the
    timeline (``timeline_seed``), so a per-worker/batched pair sees the same
    data, the same masks, and the same mask-stream draws.
    ``optimizer_factory`` receives the worker id — return different
    configurations for heterogeneous-worker scenarios.
    """
    rng = np.random.default_rng(data_seed)
    workers = []
    for worker_id in range(num_workers):
        x = rng.normal(size=(40,) + tuple(sample_shape))
        y = rng.integers(0, num_classes, size=40)
        workers.append(
            Worker(
                worker_id,
                model_factory(),
                Dataset(x, y, num_classes),
                optimizer_factory(worker_id),
                batch_size=batch_size,
                seed=worker_id,
            )
        )
    if dropout_rate and "timeline" not in cluster_kwargs:
        cluster_kwargs["timeline"] = Timeline(
            num_workers, dropout_rate=dropout_rate, seed=timeline_seed
        )
    return on_side(side, SimulatedCluster(workers, **cluster_kwargs))


def make_cluster_pair(**kwargs) -> Tuple[SimulatedCluster, SimulatedCluster]:
    """The ``(per-worker, batched)`` pair for one scenario."""
    return tuple(make_cluster(side, **kwargs) for side in SIDES)


# -- assertions ------------------------------------------------------------------


def assert_ledgers_equal(cluster_a: SimulatedCluster, cluster_b: SimulatedCluster) -> None:
    """Byte accounting must be *exactly* equal between the two sides."""
    assert cluster_a.total_bytes == cluster_b.total_bytes
    for category in ("model-sync", "fda-state", "other"):
        assert cluster_a.tracker.bytes_for(category) == cluster_b.tracker.bytes_for(
            category
        )
    assert cluster_a.synchronization_count == cluster_b.synchronization_count
    assert [w.steps_performed for w in cluster_a.workers] == [
        w.steps_performed for w in cluster_b.workers
    ]


def assert_same_state(actual, expected, path="slot"):
    """Byte-equality of two nested snapshots (dtype included)."""
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), path
        for key, value in expected.items():
            assert_same_state(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype, path
        np.testing.assert_array_equal(actual, expected, err_msg=path)
    else:
        assert actual == expected, path


def assert_close(actual, desired, exact: bool = False, rtol: float = RTOL, **kwargs) -> None:
    """``allclose`` at the harness tolerance, or value-exact with ``exact=True``."""
    if exact:
        kwargs["atol"] = 0.0
        np.testing.assert_allclose(actual, desired, rtol=0.0, **kwargs)
    else:
        np.testing.assert_allclose(actual, desired, rtol=rtol, **kwargs)


def assert_cluster_states_match(
    cluster_a: SimulatedCluster,
    cluster_b: SimulatedCluster,
    exact: bool = False,
    rtol: float = RTOL,
    atol: float = 0.0,
) -> None:
    """Parameters, buffers, and optimizer step counts must match."""
    assert_close(cluster_a.parameter_matrix, cluster_b.parameter_matrix, exact, rtol=rtol, atol=atol)
    if cluster_a.buffer_matrix.shape[1]:
        assert_close(cluster_a.buffer_matrix, cluster_b.buffer_matrix, exact, rtol=rtol, atol=atol)
    assert [w.optimizer.step_count for w in cluster_a.workers] == [
        w.optimizer.step_count for w in cluster_b.workers
    ]


# -- scenario drivers ------------------------------------------------------------


def run_strategy_parity(
    strategy_factory,
    rounds: int = 12,
    exact: bool = False,
    dtype=None,
    **cluster_kwargs,
) -> Tuple[SimulatedCluster, SimulatedCluster]:
    """Run one strategy on both sides and assert full parity.

    ``strategy_factory`` is invoked once per side (strategies are stateful).
    ``dtype`` selects the plane dtype for *both* clusters of the pair and
    widens the trajectory tolerance via :func:`engine_tolerances`; ledgers
    stay exact regardless.  Returns the ``(per-worker, batched)`` clusters
    for extra assertions.
    """
    if dtype is not None:
        cluster_kwargs["dtype"] = dtype
    tol = engine_tolerances(dtype, steps=rounds)
    outcomes = {}
    for side in SIDES:
        cluster = make_cluster(side, **cluster_kwargs)
        strategy = strategy_factory().attach(cluster)
        outcomes[side] = (cluster, [strategy.run_round() for _ in range(rounds)])
    oracle_cluster, oracle_rounds = outcomes["per-worker"]
    bat_cluster, bat_rounds = outcomes["batched"]
    assert_close(
        [r.mean_loss for r in oracle_rounds], [r.mean_loss for r in bat_rounds], exact, **tol
    )
    assert [r.synchronized for r in oracle_rounds] == [r.synchronized for r in bat_rounds]
    assert [r.communication_bytes for r in oracle_rounds] == [
        r.communication_bytes for r in bat_rounds
    ]
    assert [r.steps_advanced for r in oracle_rounds] == [
        r.steps_advanced for r in bat_rounds
    ]
    assert_cluster_states_match(oracle_cluster, bat_cluster, exact, **tol)
    assert_ledgers_equal(oracle_cluster, bat_cluster)
    return oracle_cluster, bat_cluster


def run_fda_parity(
    variant: str = "linear",
    threshold: float = 0.5,
    steps: int = 40,
    monitor_seed: int = 3,
    exact: bool = False,
    dtype=None,
    **cluster_kwargs,
) -> Tuple[FDATrainer, FDATrainer]:
    """Run the FDA trainer on both sides and assert full parity.

    Compares the per-step observables (losses, variance estimates, sync
    decisions, byte counts, active-worker counts), the final cluster state,
    and the ledgers.  ``dtype`` selects the plane dtype for both sides and
    widens the float tolerances via :func:`engine_tolerances` (decisions and
    ledgers stay exact).  Returns the ``(per-worker, batched)`` trainers.
    """
    if dtype is not None:
        cluster_kwargs["dtype"] = dtype
    tol = engine_tolerances(dtype, steps=steps)
    results = {}
    for side in SIDES:
        cluster = make_cluster(side, **cluster_kwargs)
        monitor = make_monitor(variant, cluster.model_dimension, seed=monitor_seed)
        trainer = FDATrainer(cluster, monitor, threshold=threshold)
        results[side] = (trainer, trainer.run_steps(steps))
    oracle_trainer, oracle_steps = results["per-worker"]
    bat_trainer, bat_steps = results["batched"]
    assert_close(
        [r.mean_loss for r in oracle_steps], [r.mean_loss for r in bat_steps], exact, **tol
    )
    if exact:
        assert_close(
            [r.variance_estimate for r in oracle_steps],
            [r.variance_estimate for r in bat_steps],
            exact,
        )
    else:
        assert_close(
            [r.variance_estimate for r in oracle_steps],
            [r.variance_estimate for r in bat_steps],
            rtol=tol["rtol"],
            atol=max(1e-9, tol["atol"]),
        )
    # Protocol decisions and the communication ledger are exact.
    assert [r.synchronized for r in oracle_steps] == [r.synchronized for r in bat_steps]
    assert [r.communication_bytes for r in oracle_steps] == [
        r.communication_bytes for r in bat_steps
    ]
    assert [r.active_workers for r in oracle_steps] == [
        r.active_workers for r in bat_steps
    ]
    assert_cluster_states_match(oracle_trainer.cluster, bat_trainer.cluster, exact, **tol)
    assert_ledgers_equal(oracle_trainer.cluster, bat_trainer.cluster)
    return oracle_trainer, bat_trainer


def run_population_parity(
    strategy_factory,
    rounds: int = 6,
    num_workers: int = 4,
    exact: bool = True,
    dtype=None,
    memory_budget: Optional[int] = None,
    sides: Sequence[str] = SIDES,
    **cluster_kwargs,
) -> None:
    """Population mode with cohort=all must be bit-identical to no population.

    For each side, builds two identical clusters; one trains the
    strategy directly, the other trains it through a
    :class:`~repro.population.plane.ClientPopulation` with ``N == K`` clients
    (the workers' own shards as explicit client shards), cohort=all, and
    uniform weighting.  Because binding a full cohort is then an identity
    round-trip — fresh-reset followed by the client's own snapshot overlay,
    executing identical arithmetic — every observable must match *exactly*
    (``exact=True`` by default): per-round losses, sync decisions, byte
    ledgers, parameter/buffer planes, optimizer step counts, and the
    per-worker sampler/epoch RNG stream states.  ``memory_budget`` forwards
    to the population (small budgets force evict/rematerialize cycles through
    the middle of training — still bit-exact).
    """
    from repro.population import ClientPopulation, PopulationConfig

    if dtype is not None:
        cluster_kwargs["dtype"] = dtype
    for side in sides:
        plain_cluster = make_cluster(side, num_workers=num_workers, **cluster_kwargs)
        plain_strategy = strategy_factory().attach(plain_cluster)
        plain_rounds = [plain_strategy.run_round() for _ in range(rounds)]

        pop_cluster = make_cluster(side, num_workers=num_workers, **cluster_kwargs)
        pop_strategy = strategy_factory().attach(pop_cluster)
        population = ClientPopulation(
            PopulationConfig(
                num_clients=num_workers,
                cohort_size=num_workers,
                weighting="uniform",
                memory_budget=memory_budget,
            ),
            shards=[worker.dataset for worker in pop_cluster.workers],
            # Mirror make_cluster's int-seeded workers: client c's training
            # streams start exactly where worker c's did.
            client_seed_fn=lambda client_id: client_id,
        )
        population.attach(pop_cluster, pop_strategy)
        pop_rounds = [population.run_round() for _ in range(rounds)]

        assert_close(
            [r.mean_loss for r in plain_rounds],
            [r.mean_loss for r in pop_rounds],
            exact,
        )
        assert [r.synchronized for r in plain_rounds] == [
            r.synchronized for r in pop_rounds
        ]
        assert [r.communication_bytes for r in plain_rounds] == [
            r.communication_bytes for r in pop_rounds
        ]
        assert [r.steps_advanced for r in plain_rounds] == [
            r.steps_advanced for r in pop_rounds
        ]
        assert_cluster_states_match(plain_cluster, pop_cluster, exact)
        assert_ledgers_equal(plain_cluster, pop_cluster)
        # The private training RNG streams must land in identical states: the
        # population consumed exactly the draws the materialized run did.
        for plain_worker, pop_worker in zip(plain_cluster.workers, pop_cluster.workers):
            assert (
                plain_worker._sampler._rng.bit_generator.state
                == pop_worker._sampler._rng.bit_generator.state
            )
            assert (
                plain_worker._epoch_iterator._rng.bit_generator.state
                == pop_worker._epoch_iterator._rng.bit_generator.state
            )


def run_masked_step_parity(
    masks: Sequence[Optional[np.ndarray]],
    exact: bool = False,
    **cluster_kwargs,
) -> Tuple[SimulatedCluster, SimulatedCluster]:
    """Drive both sides through an explicit per-step mask sequence.

    Bypasses the timeline's mask stream so property-based tests can feed
    arbitrary participation patterns (including empty and full masks)
    directly into ``cluster.step_all``.
    """
    oracle_cluster, bat_cluster = make_cluster_pair(**cluster_kwargs)
    for mask in masks:
        loss_oracle = oracle_cluster.step_all(active=mask)
        loss_bat = bat_cluster.step_all(active=mask)
        assert_close(loss_oracle, loss_bat, exact)
    assert_cluster_states_match(oracle_cluster, bat_cluster, exact)
    assert_ledgers_equal(oracle_cluster, bat_cluster)
    return oracle_cluster, bat_cluster
