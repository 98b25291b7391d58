"""Lightweight per-subsystem wall-time instrumentation.

A :class:`Profiler` attached to a kernel (``kernel.profiler``) splits the
real (host) wall time of a run across the simulator's subsystems:

===================  ==================================================
``engine``           the quantum loop itself (pricing, fault
                     generation)
``policy``           tiering-policy work (per-quantum hooks, fault
                     handlers, scan hooks, policy daemons)
``fault``            hint-fault delivery and bookkeeping
``migrate``          the migration engine (frame accounting, cost
                     charging)
``scan``             Ticking/NUMA-balancing scan passes
``aging``            LRU reference-bit aging passes
``accounting``       deferred ground-truth ledger flushes (the
                     O(pages) materialisation of ``access_count`` /
                     ``last_window_count``, charged where the
                     consuming read happens)
``arena_build``      arena stepping only: the per-segment gather pass
                     (workload advance, distribution-swap detection,
                     tier-mass journal repair)
``segment_fold``     arena stepping only: the vectorised
                     pricing/ledger/latency/demand folds over the
                     segment axis
``fault_partition``  arena stepping only: the fault plan's upkeep,
                     draw and resolve
===================  ==================================================

Sections nest (a policy fault handler may migrate pages); the profiler
charges *exclusive* time to each section, so the shares sum to the
instrumented wall time without double counting.  When ``kernel.profiler``
is ``None`` (the default) every hook site is a single ``is None`` check,
keeping the uninstrumented hot path free of overhead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List


class Profiler:
    """Exclusive-time accumulator over nested named sections."""

    def __init__(self) -> None:
        self.exclusive_ns: Dict[str, float] = {}
        #: section stack: [name, time of last entry/resume]
        self._stack: List[List] = []

    # ------------------------------------------------------------------
    def push(self, name: str) -> None:
        """Enter a section, pausing the enclosing one."""
        now = time.perf_counter_ns()
        if self._stack:
            top = self._stack[-1]
            self.exclusive_ns[top[0]] = (
                self.exclusive_ns.get(top[0], 0.0) + (now - top[1])
            )
        self._stack.append([name, now])

    def pop(self) -> None:
        """Leave the current section, resuming the enclosing one."""
        now = time.perf_counter_ns()
        name, resumed = self._stack.pop()
        self.exclusive_ns[name] = (
            self.exclusive_ns.get(name, 0.0) + (now - resumed)
        )
        if self._stack:
            self._stack[-1][1] = now

    @contextmanager
    def section(self, name: str):
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    # ------------------------------------------------------------------
    @property
    def total_ns(self) -> float:
        return sum(self.exclusive_ns.values())

    def report(self) -> Dict[str, Dict[str, float]]:
        """``{section: {"seconds": ..., "share": ...}}``, largest first."""
        total = self.total_ns
        items = sorted(
            self.exclusive_ns.items(), key=lambda kv: -kv[1]
        )
        return {
            name: {
                "seconds": ns / 1e9,
                "share": ns / total if total else 0.0,
            }
            for name, ns in items
        }

    def format_table(self) -> str:
        """A small aligned text table of the report."""
        report = self.report()
        if not report:
            return "(no profile data)"
        width = max(len(name) for name in report)
        lines = [f"{'subsystem'.ljust(width)}  seconds  share"]
        for name, row in report.items():
            lines.append(
                f"{name.ljust(width)}  {row['seconds']:7.3f}  "
                f"{100 * row['share']:5.1f}%"
            )
        lines.append(
            f"{'total'.ljust(width)}  {self.total_ns / 1e9:7.3f}"
        )
        return "\n".join(lines)
