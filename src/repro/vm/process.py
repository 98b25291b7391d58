"""A simulated process.

A :class:`SimProcess` bundles the page state, the address-space layout, the
workload driving it, and per-process accounting.  Processes execute in
parallel (the paper runs up to 50 concurrent pmbench tasks on a 56-core
machine); the engine advances each one through the same wall-clock quantum.

The kernel time queued against a process lives next to its page state:
it is its segment's element of the page table's ``debt`` vector, so the
arena finds indebted processes with one vector compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.mem.tier import FAST_TIER
from repro.vm.address_space import AddressSpace
from repro.vm.page_state import PageState


@dataclass
class ProcessStats:
    """Per-process run-time accounting.

    ``accesses`` is fractional because the batched engine works with
    expected per-page counts; totals converge to the exact values.
    """

    accesses: float = 0.0
    fast_accesses: float = 0.0
    slow_accesses: float = 0.0
    user_time_ns: float = 0.0
    kernel_time_ns: float = 0.0
    stall_time_ns: float = 0.0
    hint_faults: int = 0
    context_switches: int = 0
    pages_promoted: int = 0
    pages_demoted: int = 0
    thrash_events: int = 0

    @property
    def total_time_ns(self) -> float:
        return self.user_time_ns + self.kernel_time_ns + self.stall_time_ns

    def fast_access_ratio(self) -> float:
        """The paper's FMAR for this process."""
        if self.accesses <= 0:
            return 0.0
        return self.fast_accesses / self.accesses

    def throughput_per_sec(self) -> float:
        """Completed accesses per second of simulated time."""
        if self.total_time_ns <= 0:
            return 0.0
        return self.accesses / (self.total_time_ns / 1e9)


class SimProcess:
    """One workload-driven process on the simulated machine."""

    def __init__(
        self,
        pid: int,
        workload: Any,
        rng: np.random.Generator,
        name: Optional[str] = None,
        cgroup: Optional[str] = None,
    ) -> None:
        self.pid = int(pid)
        self.workload = workload
        self.rng = rng
        self.name = name or f"proc-{pid}"
        self.cgroup = cgroup
        n_pages = int(workload.n_pages)
        self.pages = PageState(n_pages)
        self.aspace = AddressSpace.linear(n_pages)
        self.stats = ProcessStats()
        self.finished = False
        # Fixed-work runs (e.g. Graph500 execution time) set a target; the
        # engine marks the process finished once it completes this many
        # accesses.  ``None`` means run until the experiment ends.
        self.target_accesses: Optional[float] = None

    @property
    def n_pages(self) -> int:
        return self.pages.n_pages

    @property
    def pending_kernel_ns(self) -> float:
        """Kernel overhead incurred on this process's behalf that has not
        yet been charged against its quantum budget."""
        pages = self.pages
        return pages.table.debt[pages.seg].item()

    def charge_kernel(self, ns: float) -> None:
        """Queue kernel time to deduct from the next quantum's budget."""
        if ns < 0:
            raise ValueError("kernel time cannot be negative")
        pages = self.pages
        pages.table.debt[pages.seg] += ns

    def drain_pending_kernel(self, budget_ns: float) -> float:
        """Consume up to ``budget_ns`` of queued kernel time; return used."""
        pages = self.pages
        debt, seg = pages.table.debt, pages.seg
        pending = debt[seg].item()
        used = min(pending, budget_ns)
        debt[seg] = pending - used
        self.stats.kernel_time_ns += used
        return used

    def dram_page_percentage(self) -> float:
        """Fast-tier share of this process's resident pages (Figure 9)."""
        return 100.0 * self.pages.fast_page_fraction()

    def record_accesses(
        self,
        n_total: float,
        n_fast: float,
        user_ns: float,
        stall_ns: float = 0.0,
    ) -> None:
        """Account one quantum's completed accesses."""
        self.stats.accesses += n_total
        self.stats.fast_accesses += n_fast
        self.stats.slow_accesses += n_total - n_fast
        self.stats.user_time_ns += user_ns
        self.stats.stall_time_ns += stall_ns

    def __repr__(self) -> str:
        return (
            f"SimProcess(pid={self.pid}, name={self.name!r}, "
            f"pages={self.n_pages}, "
            f"fast={self.pages.count_in_tier(FAST_TIER)})"
        )
