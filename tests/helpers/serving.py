"""Test-only references for the served coordinator.

:class:`ServedFDATrainer` computes a produced update's local step when
something reads it (``_settle``: rank by rank, as masked rows of one
``engine.step_all``).  :class:`PerEventTrainer` is the semantics that replaced:
every step computed at its own event, one worker at a time — the oracle the
settle-by-rank trainer must equal in every observable bit.
"""

from __future__ import annotations

from repro.serving import ServedFDATrainer


class RecordingTrainer(ServedFDATrainer):
    """Keeps every :class:`~repro.serving.ServedUpdate`, whichever driver ran."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records = []

    def _aggregate(self, update):
        record = super()._aggregate(update)
        self.records.append(record)
        return record


class PerEventTrainer(RecordingTrainer):
    """The per-event oracle: nothing produced stays uncomputed past its event."""

    def _process_event(self):
        record = super()._process_event()
        self._settle()
        return record


def drive(trainer, driver: str, amount) -> None:
    """Run one public driver; ``amount`` is updates (virtual seconds for ``serve_for``)."""
    if driver == "serve_next":
        for _ in range(amount):
            trainer.serve_next()
    else:
        getattr(trainer, driver)(amount)


def served_snapshot(trainer: RecordingTrainer) -> dict:
    """Everything a served run leaves behind, for ``helpers.parity.assert_same_state``.

    The cluster's own ``state_dict`` refuses while updates are in flight (the
    timeline cannot encode their payloads), so the parts are taken from their
    owners one by one.  Floats that may be NaN travel as their ``repr``.
    """
    cluster, timeline = trainer.cluster, trainer.timeline
    return {
        "records": [tuple(map(repr, record)) for record in trainer.records],
        "parameters": cluster.parameter_matrix.copy(),
        "buffers": cluster.buffer_matrix.copy(),
        # Step counts, last losses, optimizer moments, sampler and dropout streams.
        **{f"worker{w.worker_id}": w.state_dict() for w in cluster.workers},
        # The tracker's byte ledger and the fabric's link/second ledgers.
        "fabric": cluster.fabric.state_dict(),
        # The loss plan's retransmission stream and log.
        "injector": None if cluster.faults is None else cluster.faults.state_dict(),
        "clock": (timeline.now, timeline.compute_seconds, cluster.fabric.comm_seconds),
        "latency": trainer.latency.ledger.values().tolist(),
        "report": {key: repr(value) for key, value in trainer.report().to_dict().items()},
        "produced": trainer._update_seq,
    }
