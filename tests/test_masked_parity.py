"""Property-based masked-execution parity (ISSUE-4 satellite).

Hypothesis drives the masked batched engine with *arbitrary* per-round
participation masks (including empty, full, and single-worker rounds) and
randomized initial conditions, and with randomized FDA thresholds θ on
dropout timelines.  The contract under test:

* masked engine trajectories match the per-worker oracle **bit-exactly
  for SGD** (value-exact: ``rtol=0, atol=0``) and to ``rtol=1e-6`` for Adam;
* byte/ledger accounting — totals, per-category bytes, sync decisions,
  per-worker step counts — is **exactly** equal for every configuration.

The harness (cluster pairs, drivers, assertions) lives in
``tests/helpers/parity.py``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers.parity import run_fda_parity, run_masked_step_parity
from repro.optim.adam import Adam
from repro.optim.sgd import SGD

NUM_WORKERS = 5

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A sequence of per-round masks over NUM_WORKERS workers; empty and full
#: rounds are legal (an all-False round is a no-op on both sides).
mask_sequences = st.lists(
    st.lists(st.booleans(), min_size=NUM_WORKERS, max_size=NUM_WORKERS),
    min_size=1,
    max_size=6,
)


@SETTINGS
@given(masks=mask_sequences, data_seed=st.integers(0, 2**16))
def test_masked_sgd_steps_are_value_exact(masks, data_seed):
    run_masked_step_parity(
        [np.array(mask) for mask in masks],
        exact=True,
        num_workers=NUM_WORKERS,
        data_seed=data_seed,
        optimizer_factory=lambda worker_id: SGD(
            0.05, momentum=0.9, nesterov=True, weight_decay=1e-3
        ),
    )


@SETTINGS
@given(masks=mask_sequences, data_seed=st.integers(0, 2**16))
def test_masked_adam_steps_match_within_rtol(masks, data_seed):
    run_masked_step_parity(
        [np.array(mask) for mask in masks],
        num_workers=NUM_WORKERS,
        data_seed=data_seed,
        optimizer_factory=lambda worker_id: Adam(0.01),
    )


@SETTINGS
@given(
    threshold=st.floats(min_value=0.01, max_value=20.0),
    dropout_rate=st.floats(min_value=0.05, max_value=0.8),
    timeline_seed=st.integers(0, 2**16),
)
def test_masked_fda_runs_are_value_exact_for_sgd(threshold, dropout_rate, timeline_seed):
    """Random θ × random participation stream: trajectories value-exact,
    sync decisions and byte ledgers exactly equal."""
    run_fda_parity(
        threshold=threshold,
        steps=12,
        num_workers=NUM_WORKERS,
        dropout_rate=dropout_rate,
        timeline_seed=timeline_seed,
        optimizer_factory=lambda worker_id: SGD(0.05, momentum=0.9),
        exact=True,
    )
