"""Tests for the shared virtual-time engine (lockstep + event modes)."""

import numpy as np
import pytest

from repro.core.timeline import (
    ARRIVAL,
    COMPLETION,
    ENQUEUE,
    SERVICE,
    StragglerProfile,
    Timeline,
)
from repro.exceptions import ConfigurationError, ExperimentError


class TestConstruction:
    def test_defaults_are_unperturbed(self):
        timeline = Timeline(4)
        assert timeline.now == 0.0
        assert timeline.sample_participation() is None
        np.testing.assert_allclose(timeline.step_durations, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Timeline(0)
        with pytest.raises(ConfigurationError):
            Timeline(4, dropout_rate=1.0)
        with pytest.raises(ConfigurationError):
            Timeline(4, dropout_rate=-0.1)


class TestLockstepMode:
    def test_advance_round_uses_slowest_worker(self):
        profile = StragglerProfile(straggler_fraction=0.25, straggler_factor=3.0)
        timeline = Timeline(4, profile=profile, seed=0)
        elapsed = timeline.advance_round(10)
        assert elapsed == pytest.approx(10 * timeline.step_durations.max())
        assert timeline.now == pytest.approx(elapsed)
        assert timeline.compute_seconds == pytest.approx(elapsed)

    def test_active_mask_excludes_stragglers_from_the_critical_path(self):
        profile = StragglerProfile(straggler_fraction=0.25, straggler_factor=5.0)
        timeline = Timeline(4, profile=profile, seed=0)
        durations = timeline.step_durations
        fast_only = durations < durations.max()
        elapsed = timeline.advance_round(1, active=fast_only)
        assert elapsed == pytest.approx(1.0)  # base step time, straggler excluded

    def test_zero_steps_is_free(self):
        timeline = Timeline(3)
        assert timeline.advance_round(0) == 0.0
        assert timeline.now == 0.0

    def test_jitter_draws_are_seed_deterministic(self):
        profile = StragglerProfile(jitter=0.2)
        first = Timeline(5, profile=profile, seed=7)
        second = Timeline(5, profile=profile, seed=7)
        assert first.advance_round(20) == pytest.approx(second.advance_round(20))

    def test_jitter_round_is_at_least_the_jitter_free_maximum_on_average(self):
        # max over workers of jittered durations >= a single worker's duration
        # in expectation; just sanity-check it stays positive and finite.
        timeline = Timeline(6, profile=StragglerProfile(jitter=0.5), seed=1)
        elapsed = timeline.advance_round(50)
        assert np.isfinite(elapsed) and elapsed > 0

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigurationError):
            Timeline(2).advance_round(-1)


class TestDropout:
    def test_mask_always_has_a_participant(self):
        timeline = Timeline(3, seed=0, dropout_rate=0.95)
        for _ in range(50):
            mask = timeline.sample_participation()
            assert mask is not None
            assert mask.any()

    def test_no_dropout_consumes_no_randomness(self):
        profile = StragglerProfile(jitter=0.3)
        polled = Timeline(4, profile=profile, seed=3)
        reference = Timeline(4, profile=profile, seed=3)
        for _ in range(10):
            assert polled.sample_participation() is None
        # Identical subsequent jittered rounds prove no rng stream divergence.
        assert polled.advance_round(5) == pytest.approx(reference.advance_round(5))


class TestEventMode:
    def test_completions_pop_in_time_order(self):
        profile = StragglerProfile(straggler_fraction=0.5, straggler_factor=4.0)
        timeline = Timeline(6, profile=profile, seed=0)
        for worker in range(6):
            timeline.schedule_step(worker, start_time=0.0)
        times = []
        for _ in range(12):
            time, _, worker, _ = timeline.pop_event()
            times.append(time)
            timeline.schedule_step(worker)
        assert times == sorted(times)
        assert timeline.now == times[-1]

    def test_pop_without_pending_raises(self):
        with pytest.raises(ExperimentError):
            Timeline(2).pop_event()

    def test_schedule_validates_worker_id(self):
        with pytest.raises(ConfigurationError):
            Timeline(2).schedule_step(5)

    def test_add_communication_delays_pending_completions(self):
        timeline = Timeline(2)
        timeline.schedule_step(0, start_time=0.0)  # completes at t=1
        timeline.add_communication(2.5)
        assert timeline.now == pytest.approx(2.5)
        time, _, worker, _ = timeline.pop_event()
        assert worker == 0
        assert time == pytest.approx(3.5)  # 1.0 compute + 2.5 barrier

    def test_add_communication_zero_is_a_noop(self):
        timeline = Timeline(2)
        timeline.schedule_step(0, start_time=0.0)
        timeline.add_communication(0.0)
        assert timeline.now == 0.0
        assert timeline.next_event_time() == pytest.approx(1.0)

    def test_add_communication_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            Timeline(2).add_communication(-1.0)

    def test_advance_to_never_goes_backwards(self):
        timeline = Timeline(2)
        timeline.advance_to(5.0)
        timeline.advance_to(1.0)
        assert timeline.now == 5.0

    def test_duplicate_completion_times_pop_in_worker_order(self):
        # With a uniform profile every worker scheduled at t=0 completes at
        # the same instant; the contract says ties break by ascending worker
        # id regardless of heap insertion order.
        timeline = Timeline(5)
        for worker in (3, 0, 4, 1, 2):
            timeline.schedule_step(worker, start_time=0.0)
        order = [timeline.pop_event() for _ in range(5)]
        assert [worker for _, _, worker, _ in order] == [0, 1, 2, 3, 4]
        assert all(time == pytest.approx(1.0) for time, _, _, _ in order)

    def test_same_worker_duplicate_times_pop_fifo(self):
        # Two completions of the same worker at the same instant pop in
        # scheduling order (the monotone sequence number, not heap luck).
        timeline = Timeline(2)
        first = timeline.schedule_step(1, start_time=0.0)
        second = timeline.schedule_step(1, start_time=0.0)
        assert first == second
        popped = [timeline.pop_event() for _ in range(2)]
        assert popped == [(first, COMPLETION, 1, None), (second, COMPLETION, 1, None)]

    def test_delay_pending_preserves_tie_break_order(self):
        timeline = Timeline(4)
        for worker in (2, 0, 3, 1):
            timeline.schedule_step(worker, start_time=0.0)
        timeline.add_communication(3.0)  # barrier delays all pending equally
        order = [timeline.pop_event()[2] for _ in range(4)]
        assert order == [0, 1, 2, 3]

    def test_mixed_kinds_pop_service_enqueue_arrival_then_worker_then_fifo(self):
        # One timestamp, every kind: the coordinator is freed first, then
        # uploaded updates are admitted, then arrivals and finished steps are
        # processed; equal kinds by ascending worker, one worker's by seq.
        timeline = Timeline(3)
        scheduled = [
            (COMPLETION, 0, None),
            (ARRIVAL, 2, None),
            (ARRIVAL, 0, None),
            (ENQUEUE, 1, "b"),
            (SERVICE, 2, "s"),
            (ENQUEUE, 1, "c"),
            (ENQUEUE, 0, "a"),
            (ARRIVAL, 2, None),
        ]
        for kind, worker, payload in scheduled:
            timeline.schedule(4.0, kind, worker, payload)
        timeline.schedule(3.0, COMPLETION, 2)  # earlier time beats every priority
        popped = [timeline.pop_event() for _ in range(len(scheduled) + 1)]
        assert popped == [
            (3.0, COMPLETION, 2, None),
            (4.0, SERVICE, 2, "s"),
            (4.0, ENQUEUE, 0, "a"),
            (4.0, ENQUEUE, 1, "b"),
            (4.0, ENQUEUE, 1, "c"),
            (4.0, ARRIVAL, 0, None),
            (4.0, ARRIVAL, 2, None),
            (4.0, ARRIVAL, 2, None),
            (4.0, COMPLETION, 0, None),
        ]
        assert timeline.next_event_time() is None

    def test_barriers_delay_compute_not_arrivals(self):
        timeline = Timeline(4)
        for worker in (2, 0, 3, 1):
            timeline.schedule_step(worker, start_time=0.0)  # all complete at t=1
        timeline.schedule(1.0, ARRIVAL, 1)
        timeline.schedule(1.5, ENQUEUE, 0, "update")
        timeline.schedule(2.0, SERVICE, 3, "update")
        timeline.add_communication(3.0)
        popped = [timeline.pop_event()[:3] for _ in range(7)]
        # Exogenous and in-flight events keep their times (and pop although the
        # barrier carried the clock past them); the completions all moved by
        # the barrier and kept their tie order.
        assert popped == [
            (1.0, ARRIVAL, 1),
            (1.5, ENQUEUE, 0),
            (2.0, SERVICE, 3),
            (4.0, COMPLETION, 0),
            (4.0, COMPLETION, 1),
            (4.0, COMPLETION, 2),
            (4.0, COMPLETION, 3),
        ]

    def test_only_completions_are_charged_as_compute(self):
        timeline = Timeline(2)
        timeline.schedule(0.5, ARRIVAL, 0)
        timeline.schedule_step(1, start_time=0.0)
        timeline.pop_event()
        assert (timeline.now, timeline.compute_seconds) == (0.5, 0.0)
        timeline.pop_event()
        assert (timeline.now, timeline.compute_seconds) == (1.0, 0.5)
        # A late pop (the clock is already past the event) never rewinds.
        timeline.schedule(0.25, ENQUEUE, 0, "late")
        assert timeline.pop_event()[0] == 0.25
        assert timeline.now == 1.0

    def test_state_dict_round_trips_a_heap_of_completions(self):
        profile = StragglerProfile(straggler_fraction=0.5, straggler_factor=3.0, jitter=0.3)
        timeline = Timeline(4, profile=profile, seed=3)
        for worker in range(4):
            timeline.schedule_step(worker, start_time=0.0)
        timeline.schedule(0.75, ARRIVAL, 2)
        for _ in range(3):
            timeline.schedule_step(timeline.pop_event()[2])
        restored = Timeline(4, profile=profile, seed=99)
        restored.load_state_dict(timeline.state_dict())
        assert restored.now == timeline.now
        assert restored.compute_seconds == timeline.compute_seconds
        for _ in range(10):
            expected = timeline.pop_event()
            assert restored.pop_event() == expected
            # Same jitter stream, same sequence numbers from here on.
            assert restored.schedule_step(expected[2]) == timeline.schedule_step(expected[2])

    def test_state_dict_refuses_an_update_in_flight(self):
        timeline = Timeline(2)
        timeline.schedule_step(0, start_time=0.0)
        timeline.schedule(0.5, ENQUEUE, 1, object())
        with pytest.raises(ExperimentError, match="in flight"):
            timeline.state_dict()
