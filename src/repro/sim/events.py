"""Event scheduler used by kernel daemons.

Kernel-side periodic work (Ticking-scan passes, DCSC probes, reclaim
wakeups, tuning updates) registers callbacks here.  The simulation runner
drains due events every time it advances the clock, which mirrors how the
kernel's deferred work runs at timer-interrupt granularity rather than
instantaneously.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

EventCallback = Callable[[int], None]


@dataclass(order=True)
class ScheduledEvent:
    """An event in the timer queue, ordered by (time, insertion order).

    ``soft`` marks a wakeup that is *idempotent under deferral*: firing it
    at any point at or after its scheduled time (still with the scheduled
    time as its argument) is acceptable.  Soft events do not constrain the
    engine's quantum-fusion horizon (:meth:`EventScheduler.next_event_ns`);
    they still fire, in order, whenever the clock passes them.
    """

    when_ns: int
    seq: int
    callback: EventCallback = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    soft: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when it becomes due."""
        self.cancelled = True


class EventScheduler:
    """A min-heap timer queue over simulated time."""

    def __init__(self) -> None:
        self._heap: List[ScheduledEvent] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def schedule(
        self,
        when_ns: int,
        callback: EventCallback,
        name: str = "",
        soft: bool = False,
    ) -> ScheduledEvent:
        """Schedule ``callback(now)`` to fire at absolute time ``when_ns``.

        ``soft=True`` declares the callback deferral-tolerant: it must
        still fire once the clock reaches ``when_ns``, but the engine may
        advance past it in one fused step and fire it (with the scheduled
        time) at the end.  Use it only for idempotent periodic checks
        (e.g. kswapd watermark polls) whose effect does not depend on the
        exact observation instant.
        """
        if when_ns < 0:
            raise ValueError("cannot schedule an event before time zero")
        event = ScheduledEvent(
            when_ns=int(when_ns),
            seq=next(self._counter),
            callback=callback,
            name=name,
            soft=soft,
        )
        heapq.heappush(self._heap, event)
        return event

    def next_due(self) -> Optional[int]:
        """Time of the earliest pending event, or ``None`` if queue empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].when_ns

    def next_event_ns(self) -> Optional[int]:
        """Time of the earliest pending *hard* (non-soft) event.

        This is the quantum-fusion horizon: the engine may not step past
        this instant in one fused macro-quantum, because a hard event
        (scan tick, aging pass, policy adaptation) observes or mutates
        state and must see the timeline at its scheduled boundary.  Soft
        events are ignored here; they fire during the catch-up
        :meth:`run_due` at the fused boundary, each still receiving its
        scheduled time, so periodic soft daemons stay drift-free.

        Returns ``None`` when no hard event is pending.

        The heap is walked best-first from its root, stepping over soft
        and cancelled events: a child never precedes its parent, so the
        first hard event reached is the earliest, and the walk visits
        only the events that precede it (and their children) instead of
        the whole queue.
        """
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        n = len(heap)
        if not n:
            return None
        root = heap[0]
        frontier = [(root.when_ns, root.seq, 0)]
        while frontier:
            when_ns, _, index = heapq.heappop(frontier)
            event = heap[index]
            if not (event.cancelled or event.soft):
                return when_ns
            for child in (2 * index + 1, 2 * index + 2):
                if child < n:
                    event = heap[child]
                    heapq.heappush(
                        frontier, (event.when_ns, event.seq, child)
                    )
        return None

    def run_due(self, now_ns: int) -> int:
        """Fire every event with ``when_ns <= now_ns``; return count fired.

        Callbacks receive the *scheduled* firing time, not ``now_ns``, so a
        periodic daemon that reschedules itself keeps a drift-free cadence
        even when the runner advances time in coarse quanta.
        """
        fired = 0
        while self._heap and self._heap[0].when_ns <= now_ns:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.callback(event.when_ns)
            fired += 1
        return fired

    def take_due(
        self, now_ns: int, prefix: str
    ) -> List[ScheduledEvent]:
        """Pop every due event whose name starts with ``prefix``.

        Returns the matching events in firing order (``when_ns``, then
        insertion order) *without* invoking their callbacks; the caller
        becomes responsible for the work they represented.  Non-matching
        due events stay queued and fire from :meth:`run_due` as usual.

        This is the batching hook for fleet-wide transient passes: a
        periodic per-process daemon (e.g. the Ticking-scan) whose event
        fires first at a clock boundary can drain its due *siblings*
        and run one batched pass over all of them.  All events due at a
        boundary share the same effective time (the advanced clock), so
        reordering them relative to other due events is observable only
        through cross-subsystem state -- acceptable exactly when the
        subsystems' per-boundary work commutes (see the transient-hook
        contract of :class:`~repro.policies.base.TieringPolicy`).
        """
        taken: List[ScheduledEvent] = []
        kept: List[ScheduledEvent] = []
        while self._heap and self._heap[0].when_ns <= now_ns:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.name.startswith(prefix):
                taken.append(event)
            else:
                kept.append(event)
        for event in kept:
            heapq.heappush(self._heap, event)
        return taken

    def clear(self) -> None:
        """Drop all pending events."""
        self._heap.clear()
