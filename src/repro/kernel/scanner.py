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

Every scan event runs through one implementation: the first event due at
a clock boundary drains its due siblings and scans them all in one fleet
pass (:meth:`TickingScanner.scan_fleet`); ``scan_once`` is the same pass
over one process.  The per-event loop it replaced is kept as the test
oracle in ``tests/transient_oracle.py``.
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
        # time) and runs them as one fleet pass.
        entries = [(process, now_ns)]
        siblings = self.kernel.scheduler.take_due(
            self.kernel.clock.now, "ticking-scan:"
        )
        if siblings:
            by_pid = {p.pid: p for p in self.kernel.processes}
            for event in siblings:
                proc = by_pid.get(int(event.name.rsplit(":", 1)[1]))
                if proc is not None:
                    entries.append((proc, event.when_ns))
        self.scan_fleet(entries)

    def scan_fleet(
        self, entries: List[Tuple["SimProcess", int]]
    ) -> None:
        """One Ticking-scan pass over several due scan events.

        ``entries`` holds ``(process, nominal_expiry_ns)`` pairs in
        firing order.  Finished processes are dropped; every other
        entry is scanned with protections stamped at the *effective*
        time (the clock, already advanced to the engine boundary) and
        rescheduled from its nominal expiry, which keeps the cadence
        drift-free.
        """
        live = [
            (process, when) for process, when in entries
            if not process.finished
        ]
        self._scan([process for process, _ in live], self.kernel.clock.now)
        for process, when in live:
            self._schedule(process, when + self.interval_ns(process))

    def scan_once(self, process: "SimProcess", now_ns: int) -> np.ndarray:
        """Run one scan event for ``process``, stamped at ``now_ns``;
        return its window vpns (after tier filtering)."""
        return self._scan([process], now_ns)[0]

    def _scan(
        self, processes: List["SimProcess"], now_ns: int
    ) -> List[np.ndarray]:
        """Mark one scan window ``PROT_NONE`` per process, stamping
        ``now_ns``; return the windows (after tier filtering).

        Per process: advance the scan window, apply the tier filter,
        protect, and charge the per-page PTE-walk cost.  Then one
        global-stats and obs-counter update, and the ``on_scan`` hooks
        in process order -- exact whenever a hook touches only its own
        process (the transient-hook contract of
        :class:`~repro.policies.base.TieringPolicy`).
        """
        kernel = self.kernel
        tier_filter = self.config.tier_filter
        scan_cost_ns = kernel.machine.spec.effective_scan_cost_ns
        results: List[Tuple["SimProcess", np.ndarray, bool, int]] = []
        total_cost = 0
        total_marked = 0
        wrapped_count = 0
        for process in processes:
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
            results.append((process, window, wrapped, marked))
        kernel.stats.kernel_time_ns += total_cost
        kernel.stats.pages_scanned += total_marked
        kernel.stats.scan_passes += wrapped_count
        obs = kernel.obs
        if obs is not None:
            obs.inc("scan.windows", len(results))
            obs.inc("scan.pages_marked", total_marked)
            if wrapped_count:
                obs.inc("scan.passes", wrapped_count)
            for process, window, wrapped, marked in results:
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
            for process, window, _, _ in results:
                self.on_scan(process, window, now_ns)
        return [window for _, window, _, _ in results]
