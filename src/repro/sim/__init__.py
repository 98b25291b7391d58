"""Discrete-event simulation substrate.

This package provides the timing foundation every other subsystem builds on:

* :mod:`repro.sim.timeunits` -- integer-nanosecond time constants and helpers.
* :mod:`repro.sim.rng` -- named, deterministic random-number streams so that
  workload randomness, scan randomness, and sampling randomness never
  interfere with one another across runs.
* :mod:`repro.sim.clock` -- the virtual clock.
* :mod:`repro.sim.events` -- a simple event scheduler (timer wheel) used by
  kernel daemons (scanner ticks, reclaim wakeups, DCSC probes).
"""

from repro.sim.clock import VirtualClock
from repro.sim.events import EventScheduler, ScheduledEvent
from repro.sim.rng import RngStreams
from repro.sim.timeunits import (
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    format_ns,
    ns_to_ms,
    ns_to_sec,
)

__all__ = [
    "EventScheduler",
    "MICROSECOND",
    "MILLISECOND",
    "NANOSECOND",
    "RngStreams",
    "SECOND",
    "ScheduledEvent",
    "VirtualClock",
    "format_ns",
    "ns_to_ms",
    "ns_to_sec",
]
