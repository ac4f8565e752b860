"""Round-trip property of the worker-slot snapshot.

``SimulatedCluster.capture_slot`` / ``restore_slot`` / ``reset_slot`` are the
one answer to "what is worker slot k's state": its rows of the parameter,
buffer, optimizer-state, step-count and error-feedback residual matrices plus
everything the ``Worker`` owns (batch streams, Dropout streams, last loss).  Checkpoints, cohort binding and crash rejoin are all built on them, so
the property is checked where those planes meet: every local optimizer with
state, RNG-stateful and buffer-carrying models, error feedback on and off,
the engine and the per-worker oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers.parity import MODELS, assert_same_state, make_cluster
from helpers.per_worker import SIDES
from repro.compression import CompressionConfig
from repro.optim.adam import Adam, AdamW
from repro.optim.sgd import SGD

OPTIMIZERS = {
    "sgd-nesterov": lambda: SGD(0.05, momentum=0.9, nesterov=True),
    "adam": lambda: Adam(0.01),
    "adamw": lambda: AdamW(0.01, weight_decay=0.01),
}
NUM_WORKERS = 3


def train(cluster, rounds):
    for _ in range(rounds):
        cluster.step_all()
        cluster.synchronize()  # compressed: moves the residual rows too


@settings(max_examples=25, deadline=None)
@given(
    optimizer=st.sampled_from(sorted(OPTIMIZERS)),
    model=st.sampled_from(["dropout-head", "batchnorm-net", "densenet-mini"]),
    error_feedback=st.booleans(),
    side=st.sampled_from(SIDES),
    slot=st.integers(min_value=0, max_value=NUM_WORKERS - 1),
    warmup=st.integers(min_value=0, max_value=2),
    rounds=st.integers(min_value=1, max_value=3),
)
def test_capture_step_restore_and_reset(
    optimizer, model, error_feedback, side, slot, warmup, rounds
):
    model_factory, sample_shape, num_classes = MODELS[model]

    def build():
        cluster = make_cluster(
            side,
            model_factory=model_factory,
            sample_shape=sample_shape,
            num_classes=num_classes,
            num_workers=NUM_WORKERS,
            optimizer_factory=OPTIMIZERS[optimizer],
            compression=CompressionConfig(
                "topk", ratio=0.2, error_feedback=error_feedback
            ),
        )
        cluster.broadcast_parameters(cluster.workers[0].get_parameters())
        return cluster

    restored, untouched, fresh = build(), build(), build()
    for cluster in (restored, untouched):
        train(cluster, warmup)
    captured = restored.capture_slot(slot)
    for cluster in (restored, untouched):
        train(cluster, rounds)

    # capture -> step everything -> restore: the slot is back, byte for byte,
    # and no other slot noticed.
    restored.restore_slot(slot, captured)
    assert_same_state(restored.capture_slot(slot), captured)
    for other in set(range(NUM_WORKERS)) - {slot}:
        assert_same_state(restored.capture_slot(other), untouched.capture_slot(other))

    # reset == a freshly built worker for that seed (make_cluster seeds worker
    # k's streams with k), in state and in what it does next.
    restored.reset_slot(
        slot, fresh.parameter_matrix[slot], fresh.buffer_matrix[slot], seed=slot
    )
    only_slot = np.arange(NUM_WORKERS) == slot
    for _ in range(2):
        assert_same_state(restored.capture_slot(slot), fresh.capture_slot(slot))
        restored.step_all(active=only_slot)
        fresh.step_all(active=only_slot)
