"""Tests for the virtual clock and the event scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.events import EventScheduler


class TestClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(100) == 100
        assert clock.now == 100

    def test_advance_to(self):
        clock = VirtualClock(50)
        clock.advance_to(80)
        assert clock.now == 80

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_rewind_rejected(self):
        clock = VirtualClock(100)
        with pytest.raises(ValueError):
            clock.advance_to(99)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(-5)


class TestScheduler:
    def test_fires_due_events_in_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(30, lambda t: fired.append(("b", t)))
        sched.schedule(10, lambda t: fired.append(("a", t)))
        count = sched.run_due(50)
        assert count == 2
        assert fired == [("a", 10), ("b", 30)]

    def test_does_not_fire_future_events(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(100, lambda t: fired.append(t))
        assert sched.run_due(99) == 0
        assert fired == []

    def test_callback_gets_scheduled_time_not_now(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(10, seen.append)
        sched.run_due(1000)
        assert seen == [10]

    def test_fifo_among_equal_times(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(5, lambda t: fired.append("first"))
        sched.schedule(5, lambda t: fired.append("second"))
        sched.run_due(5)
        assert fired == ["first", "second"]

    def test_cancel(self):
        sched = EventScheduler()
        fired = []
        event = sched.schedule(5, lambda t: fired.append(t))
        event.cancel()
        assert sched.run_due(10) == 0
        assert fired == []

    def test_len_ignores_cancelled(self):
        sched = EventScheduler()
        keep = sched.schedule(5, lambda t: None)
        drop = sched.schedule(6, lambda t: None)
        drop.cancel()
        assert len(sched) == 1
        assert keep.when_ns == 5

    def test_next_due(self):
        sched = EventScheduler()
        assert sched.next_due() is None
        sched.schedule(42, lambda t: None)
        assert sched.next_due() == 42

    def test_next_due_skips_cancelled(self):
        sched = EventScheduler()
        first = sched.schedule(1, lambda t: None)
        sched.schedule(9, lambda t: None)
        first.cancel()
        assert sched.next_due() == 9

    def test_reschedule_from_callback(self):
        sched = EventScheduler()
        fired = []

        def periodic(now):
            fired.append(now)
            if len(fired) < 3:
                sched.schedule(now + 10, periodic)

        sched.schedule(0, periodic)
        sched.run_due(100)
        assert fired == [0, 10, 20]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule(-1, lambda t: None)

    def test_clear(self):
        sched = EventScheduler()
        sched.schedule(1, lambda t: None)
        sched.clear()
        assert sched.next_due() is None


class TestNextEventNs:
    """The quantum-fusion horizon: earliest pending *hard* event."""

    def test_empty_queue(self):
        assert EventScheduler().next_event_ns() is None

    def test_matches_next_due_without_soft_events(self):
        sched = EventScheduler()
        sched.schedule(42, lambda t: None)
        sched.schedule(7, lambda t: None)
        assert sched.next_event_ns() == sched.next_due() == 7

    def test_ignores_soft_events(self):
        sched = EventScheduler()
        sched.schedule(5, lambda t: None, soft=True)
        sched.schedule(30, lambda t: None)
        assert sched.next_due() == 5
        assert sched.next_event_ns() == 30

    def test_all_soft_means_no_horizon(self):
        sched = EventScheduler()
        sched.schedule(5, lambda t: None, soft=True)
        assert sched.next_event_ns() is None

    def test_skips_cancelled_hard_events(self):
        sched = EventScheduler()
        first = sched.schedule(1, lambda t: None)
        sched.schedule(9, lambda t: None)
        first.cancel()
        assert sched.next_event_ns() == 9

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 50),
                st.sampled_from(["hard", "soft", "cancelled"]),
            ),
            max_size=40,
        ),
        st.integers(0, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_heap_walk_matches_linear_scan(self, events, fire_until):
        """The best-first walk returns what a scan of every pending
        event returns, on random heaps of hard, soft and cancelled
        events, before and after firing a prefix."""
        sched = EventScheduler()
        for when, kind in events:
            event = sched.schedule(
                when, lambda t: None, soft=kind == "soft"
            )
            if kind == "cancelled":
                event.cancel()

        def linear_scan():
            hard = [
                e.when_ns
                for e in sched._heap
                if not (e.cancelled or e.soft)
            ]
            return min(hard) if hard else None

        assert sched.next_event_ns() == linear_scan()
        sched.run_due(fire_until)
        assert sched.next_event_ns() == linear_scan()

    def test_soft_events_still_fire_with_scheduled_time(self):
        """Deferral changes *when* a soft callback runs, not its argument."""
        sched = EventScheduler()
        fired = []
        sched.schedule(5, fired.append, soft=True)
        sched.schedule(15, fired.append, soft=True)
        assert sched.run_due(100) == 2
        assert fired == [5, 15]
