"""The Ticking-scan / NUMA-balancing address-space scanner.

The kernel periodically walks each process's virtual address space, one
*scan step* worth of pages at a time, marking PTEs ``PROT_NONE`` so the next
access traps.  Vanilla NUMA balancing uses the trap to learn which CPU
touched the page; Chrono's Ticking-scan additionally stamps the scan time on
each marked page so the fault handler can compute CIT.

Scan events for a process are spaced so that one full pass over its address
space takes one *scan period* (default 60 s, as in the kernel), i.e. the
inter-event gap is ``scan_period * scan_step / n_pages``.

Scan events are *hard* scheduler events: they bound the quantum-fusion
horizon (``EventScheduler.next_event_ns``), so under fusion each scan step
fires at exactly the quantum boundary per-quantum stepping would have used
-- the PROT_NONE marking sequence is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.vm.process import SimProcess

ScanHook = Callable[["SimProcess", np.ndarray, int], None]


@dataclass
class ScanConfig:
    """Scanner tunables (the paper's *Scan step* and *Scan period*)."""

    scan_period_ns: int = 60_000_000_000  # 60 s to loop the address space
    scan_step_pages: int = 65_536  # 256 MB of base pages
    tier_filter: Optional[int] = None  # only mark pages in this tier

    def __post_init__(self) -> None:
        if self.scan_period_ns <= 0:
            raise ValueError("scan period must be positive")
        if self.scan_step_pages <= 0:
            raise ValueError("scan step must be positive")


class TickingScanner:
    """Periodic PROT_NONE scanner over every registered process."""

    def __init__(self, kernel: "Kernel", config: ScanConfig) -> None:
        self.kernel = kernel
        self.config = config
        self.on_scan: Optional[ScanHook] = None
        self._started: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    def interval_ns(self, process: "SimProcess") -> int:
        """Gap between consecutive scan events for ``process``."""
        step = min(self.config.scan_step_pages, process.n_pages)
        interval = self.config.scan_period_ns * step // process.n_pages
        return max(interval, 1)

    def start(self) -> None:
        """Schedule the first scan event for every process.

        Events are staggered across processes (by a deterministic fraction
        of the interval) so 50 processes do not all scan in the same tick,
        the same way task_numa_work is driven by each task's own timer.
        """
        for index, process in enumerate(self.kernel.processes):
            if self._started.get(process.pid):
                continue
            self._started[process.pid] = True
            interval = self.interval_ns(process)
            offset = (index * interval) // max(
                len(self.kernel.processes), 1
            )
            self._schedule(process, self.kernel.clock.now + offset + 1)

    def _schedule(self, process: "SimProcess", when_ns: int) -> None:
        self.kernel.scheduler.schedule(
            when_ns,
            lambda now, proc=process: self._tick(proc, now),
            name=f"ticking-scan:{process.pid}",
        )

    def _tick(self, process: "SimProcess", now_ns: int) -> None:
        # The first scan event firing at a clock boundary drains its due
        # siblings (other processes' scan events that the same
        # ``run_due`` would fire next, all sharing the same effective
        # time) and runs them as one fleet pass.  With a single entry --
        # always the case for single-process runs -- this is exactly the
        # sequential path.
        entries = [(process, now_ns)]
        if getattr(self.kernel.policy, "batched_transients", True):
            siblings = self.kernel.scheduler.take_due(
                self.kernel.clock.now, "ticking-scan:"
            )
            if siblings:
                by_pid = {p.pid: p for p in self.kernel.processes}
                for event in siblings:
                    proc = by_pid.get(int(event.name.rsplit(":", 1)[1]))
                    if proc is not None:
                        entries.append((proc, event.when_ns))
        if len(entries) == 1:
            if process.finished:
                return
            # Stamp protections with the *effective* time (the clock,
            # already advanced to the engine boundary), but keep the
            # drift-free cadence by rescheduling from the nominal expiry.
            self.scan_once(process, self.kernel.clock.now)
            self._schedule(process, now_ns + self.interval_ns(process))
            return
        self.scan_fleet(entries)

    def scan_fleet(
        self, entries: List[Tuple["SimProcess", int]]
    ) -> None:
        """One batched Ticking-scan pass over several due scan events.

        ``entries`` holds ``(process, nominal_expiry_ns)`` pairs in
        firing order.  Equivalent to running each entry's
        :meth:`scan_once` in sequence: every entry stamps protections
        with the same effective time (the advanced clock), the window
        advance / tier filter / PROT_NONE marking is the per-process
        code either way, and the ``on_scan`` hooks fire afterwards in
        the same order -- exact whenever a hook only touches its own
        process (the ``batched_transients`` contract).  The pass runs
        under one ``scan_pass`` profiler section with one global-stats
        and obs-counter update instead of per-event dispatch.
        """
        kernel = self.kernel
        now_ns = kernel.clock.now
        profiler = kernel.profiler
        if profiler is not None:
            profiler.push("scan_pass")
        try:
            tier_filter = self.config.tier_filter
            scan_cost_ns = kernel.machine.spec.effective_scan_cost_ns
            results: List[Tuple["SimProcess", np.ndarray, bool, int, int]]
            results = []
            total_cost = 0
            total_marked = 0
            wrapped_count = 0
            for process, when in entries:
                if process.finished:
                    continue
                step = min(self.config.scan_step_pages, process.n_pages)
                window, wrapped = process.aspace.next_scan_window(step)
                if tier_filter is not None:
                    window = window[
                        process.pages.tier[window] == tier_filter
                    ]
                marked = process.pages.protect(window, now_ns)
                cost = window.size * scan_cost_ns
                process.charge_kernel(cost)
                total_cost += cost
                total_marked += marked
                if wrapped:
                    wrapped_count += 1
                results.append((process, window, wrapped, marked, when))
            kernel.stats.kernel_time_ns += total_cost
            kernel.stats.pages_scanned += total_marked
            kernel.stats.scan_passes += wrapped_count
            obs = kernel.obs
            if obs is not None:
                obs.inc("scan.windows", len(results))
                obs.inc("scan.pages_marked", total_marked)
                if wrapped_count:
                    obs.inc("scan.passes", wrapped_count)
                for process, window, wrapped, marked, _ in results:
                    obs.emit(
                        "scan.window",
                        now_ns,
                        pid=process.pid,
                        n_window=int(window.size),
                        n_marked=int(marked),
                        wrapped=bool(wrapped),
                        vpns=window,
                    )
            if self.on_scan is not None:
                if profiler is not None:
                    profiler.push("policy")
                try:
                    for process, window, _, _, _ in results:
                        self.on_scan(process, window, now_ns)
                finally:
                    if profiler is not None:
                        profiler.pop()
            for process, _, _, _, when in results:
                self._schedule(process, when + self.interval_ns(process))
        finally:
            if profiler is not None:
                profiler.pop()

    # ------------------------------------------------------------------
    def scan_once(self, process: "SimProcess", now_ns: int) -> np.ndarray:
        """Run one scan event: mark a window PROT_NONE, stamp scan times.

        Returns the window vpns (after tier filtering).  Charges the
        per-page PTE-walk cost to the process and bumps the global scan
        counters.
        """
        profiler = self.kernel.profiler
        if profiler is not None:
            profiler.push("scan")
        step = min(self.config.scan_step_pages, process.n_pages)
        window, wrapped = process.aspace.next_scan_window(step)
        if self.config.tier_filter is not None:
            window = window[
                process.pages.tier[window] == self.config.tier_filter
            ]
        marked = process.pages.protect(window, now_ns)

        cost = window.size * self.kernel.machine.spec.effective_scan_cost_ns
        process.charge_kernel(cost)
        self.kernel.stats.kernel_time_ns += cost
        self.kernel.stats.pages_scanned += marked
        if wrapped:
            self.kernel.stats.scan_passes += 1
        obs = self.kernel.obs
        if obs is not None:
            obs.inc("scan.windows")
            obs.inc("scan.pages_marked", marked)
            if wrapped:
                obs.inc("scan.passes")
            obs.emit(
                "scan.window",
                now_ns,
                pid=process.pid,
                n_window=int(window.size),
                n_marked=int(marked),
                wrapped=bool(wrapped),
                vpns=window,
            )

        if self.on_scan is not None:
            if profiler is not None:
                profiler.push("policy")
            try:
                self.on_scan(process, window, now_ns)
            finally:
                if profiler is not None:
                    profiler.pop()
        if profiler is not None:
            profiler.pop()
        return window
