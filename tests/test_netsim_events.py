"""Tests for the discrete-event scheduler."""

import pytest

from repro.exceptions import SimulationError
from repro.netsim.events import Event, Future, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(1.5, order.append, "middle")
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "first")
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5]
        assert sim.now == 0.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule_at(12.5, fired.append, True)
        sim.run()
        assert fired and sim.now == 12.5

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        order = []

        def chain():
            order.append("first")
            sim.schedule(1.0, order.append, "second")

        sim.schedule(1.0, chain)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0

    @pytest.mark.parametrize("delay", [float("nan"), -float("nan"), -1e-12, float("-inf")])
    def test_delay_that_is_not_at_least_zero_rejected(self, delay):
        # NaN passes a ``delay < 0`` guard; an event at time NaN would fire
        # with ``now == nan`` and leave the heap order undefined.
        sim = Simulator(start_time=1.0)
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(delay, lambda: None)
        assert sim.pending() == 0
        sim.schedule(0.5, lambda: None)
        sim.run()
        assert sim.now == 1.5

    def test_kwargs_passed_to_callback(self):
        sim = Simulator()
        received = {}
        sim.schedule(0.0, lambda **kw: received.update(kw), value=42)
        sim.run()
        assert received == {"value": 42}


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_twice_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run() == 0


class TestCompaction:
    def test_cancelled_events_do_not_pile_up_in_the_heap(self):
        sim = Simulator()
        live = [sim.schedule(100.0 + index, lambda: None) for index in range(50)]
        for index in range(10_000):
            # A backstop armed and cancelled long before its time, 10k times.
            sim.schedule(5.0, lambda: None).cancel()
            assert sim.pending() <= 2 * len(live)
        assert sim.run() == len(live)
        assert sim.pending() == 0

    @pytest.mark.parametrize("perturb_ties", [False, True])
    def test_compaction_keeps_same_instant_order(self, perturb_ties):
        sim = Simulator(perturb_ties=perturb_ties)
        fired = []
        events = [sim.schedule(1.0, fired.append, index) for index in range(40)]
        sim.schedule(0.5, fired.append, "early")
        for index, event in enumerate(events):
            if index % 4:
                event.cancel()  # 30 of 41 records die: the heap is rebuilt
        assert sim.pending() < 41
        sim.run()
        survivors = [index for index in range(40) if index % 4 == 0]
        expected = survivors[::-1] if perturb_ties else survivors
        assert fired == ["early", *expected]

    def test_cancel_after_firing_or_twice_does_not_miscount(self):
        sim = Simulator()
        fired_first = sim.schedule(0.0, lambda: None)
        keep = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        sim.run(until=0.5)
        # Neither a fired event nor a repeated cancel is a dead heap record.
        fired_first.cancel()
        fired_first.cancel()
        keep[0].cancel()
        keep[0].cancel()
        assert sim.pending() == 3
        assert sim.run() == 2

    def test_cancel_from_inside_a_callback_compacts_under_the_running_loop(self):
        sim = Simulator()
        fired = []
        doomed = [sim.schedule(2.0, fired.append, "doomed") for _ in range(10)]
        sim.schedule(3.0, fired.append, "after")

        def cancel_all():
            for event in doomed:
                event.cancel()

        sim.schedule(1.0, cancel_all)
        assert sim.run() == 2
        assert fired == ["after"]

    def test_reset_forgets_cancelled_records(self):
        sim = Simulator()
        events = [sim.schedule(1.0, lambda: None) for _ in range(4)]
        events[0].cancel()
        sim.reset()
        for event in events:
            event.cancel()  # no longer queued: must not count against the new queue
        sim.schedule(1.0, lambda: None)
        assert sim.pending() == 1
        assert sim.run() == 1


class TestEventOrdering:
    def test_events_order_by_time_then_sequence(self):
        def callback():
            return None

        early, tie_first, tie_second = Event(0.5, 9, callback), Event(1.0, 2, callback), Event(1.0, 3, callback)
        assert early < tie_first < tie_second
        assert tie_second > tie_first >= early
        assert sorted([tie_second, early, tie_first]) == [early, tie_first, tie_second]
        # The callback, arguments and label take no part in the ordering.
        assert Event(1.0, 2, print, ("x",), {"y": 1}, label="other") == tie_first

    def test_event_keeps_its_seven_fields_and_constructor(self):
        event = Event(time=1.5, seq=4, callback=print, args=(1,), kwargs={"k": 2}, label="l")
        assert (event.time, event.seq, event.callback, event.args, event.kwargs,
                event.cancelled, event.label) == (1.5, 4, print, (1,), {"k": 2}, False, "l")
        assert Event(0.0, 0, print).kwargs == {}
        event.cancel()
        assert event.cancelled
        with pytest.raises(AttributeError):
            event.extra = 1  # slotted

    def test_scheduled_event_carries_what_was_scheduled(self):
        sim = Simulator(start_time=2.0)
        event = sim.schedule(0.5, print, "a", label="hello", end="")
        assert (event.time, event.args, event.kwargs, event.label) == (2.5, ("a",), {"end": ""}, "hello")
        assert sim.schedule(0.5, print).seq == event.seq + 1


class TestRunLimits:
    def test_run_until_before_now_fires_nothing_and_keeps_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "first")
        sim.schedule(7.0, fired.append, "queued")
        sim.run(until=5.0)
        assert sim.now == 5.0
        # The clock used to be rewound to 3, and the event below then
        # fired at 4.0: before work that had already happened.
        assert sim.run(until=3.0) == 0
        assert sim.now == 5.0
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == ["first", 6.0, "queued"]

    def test_run_until_stops_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["early", "late"]

    def test_max_events_limit(self):
        sim = Simulator()
        for index in range(5):
            sim.schedule(float(index), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending() == 2

    def test_run_returns_processed_count(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.run() == 2
        assert sim.events_processed == 2

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(0.0, nested)
        sim.run()

    def test_step_returns_none_when_empty(self):
        assert Simulator().step() is None

    def test_reset(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending() == 0


class TestScheduleAtEdgeCases:
    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_schedule_at_the_current_instant_fires(self):
        sim = Simulator(start_time=5.0)
        fired = []
        sim.schedule_at(5.0, fired.append, True)
        sim.run()
        assert fired == [True]
        assert sim.now == 5.0

    def test_schedule_at_after_run_until_advanced_the_clock(self):
        # run(until=) moves the clock even when no event fired; absolute
        # scheduling must be relative to the *new* now, not the old one.
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)
        fired = []
        sim.schedule_at(6.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [6.0]


class TestRepeatingEventEdgeCases:
    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_repeating(0.0, lambda: True)
        with pytest.raises(SimulationError):
            sim.schedule_repeating(-1.0, lambda: True)

    def test_cancel_while_scheduled_suppresses_the_pending_firing(self):
        sim = Simulator()
        fires = []
        repeating = sim.schedule_repeating(1.0, lambda: fires.append(sim.now) or True)
        assert repeating.scheduled
        repeating.cancel()
        assert not repeating.scheduled
        sim.run()
        assert fires == []

    def test_start_after_cancel_resumes_the_cycle(self):
        sim = Simulator()
        fires = []
        repeating = sim.schedule_repeating(1.0, lambda: fires.append(sim.now) or len(fires) < 2)
        repeating.cancel()
        repeating.start()
        sim.run()
        assert fires == [1.0, 2.0]
        # The callback's falsy return stopped it; start() re-arms again.
        repeating.start()
        sim.run(until=3.5)
        assert fires == [1.0, 2.0, 3.0]

    def test_start_is_idempotent_while_scheduled(self):
        sim = Simulator()
        fires = []
        repeating = sim.schedule_repeating(1.0, lambda: fires.append(sim.now) or False)
        repeating.start()
        repeating.start()
        sim.run()
        # One queued firing despite the extra start() calls.
        assert fires == [1.0]

    def test_reschedule_across_run_until_boundary(self):
        # A firing queued beyond the until= horizon survives the pause
        # and fires (at its original time) on the next run.
        sim = Simulator()
        fires = []
        repeating = sim.schedule_repeating(1.0, lambda: fires.append(sim.now) or True)
        sim.run(until=2.5)
        assert fires == [1.0, 2.0]
        assert sim.now == 2.5
        assert repeating.scheduled
        sim.run(until=4.5)
        assert fires == [1.0, 2.0, 3.0, 4.0]
        repeating.cancel()
        sim.run()
        assert fires == [1.0, 2.0, 3.0, 4.0]

    def test_cancel_from_inside_the_callback_stops_the_cycle(self):
        sim = Simulator()
        fires = []
        repeating = sim.schedule_repeating(
            1.0, lambda: fires.append(sim.now) or repeating.cancel() or True
        )
        sim.run()
        # The truthy return asked to continue, but cancel() from inside
        # the callback wins: _fire re-starts, cancel suppresses it...
        # the cycle must end either way without firing twice.
        assert fires == [1.0]


class TestFuture:
    def test_set_result_completes_and_stores_the_value(self):
        future = Future()
        assert not future.done
        future.set_result(42)
        assert future.done
        assert future.result() == 42

    def test_result_before_completion_raises(self):
        with pytest.raises(SimulationError):
            Future().result()

    def test_double_completion_raises(self):
        future = Future()
        future.set_result(1)
        with pytest.raises(SimulationError):
            future.set_result(2)

    def test_callbacks_run_synchronously_on_completion(self):
        future = Future()
        seen = []
        future.add_done_callback(seen.append)
        future.add_done_callback(lambda value: seen.append(value * 2))
        future.set_result(3)
        assert seen == [3, 6]

    def test_late_subscriber_runs_immediately(self):
        future = Future()
        future.set_result("answer")
        seen = []
        future.add_done_callback(seen.append)
        assert seen == ["answer"]

    def test_completion_from_a_scheduled_event_runs_continuations_at_that_instant(self):
        sim = Simulator()
        future = Future()
        seen = []
        future.add_done_callback(lambda value: seen.append((sim.now, value)))
        sim.schedule(2.0, future.set_result, "landed")
        sim.run()
        assert seen == [(2.0, "landed")]
