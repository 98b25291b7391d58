"""The kernel facade.

:class:`Kernel` wires together the machine, the clock and timer queue, the
process table, and every MM subsystem.  Tiering policies attach to it and
get access to the scanner, the LRU lists, the reclaim daemon, the migration
engine, and the sysctl/stats plumbing -- the same surface Chrono's 1.9k-SLOC
patch touches in Linux.
"""

from __future__ import annotations

from typing import Any, List, Optional, Set

import numpy as np

from repro.kernel.cgroup import CgroupRegistry
from repro.kernel.lru import LruLists
from repro.kernel.migration import MigrationEngine
from repro.kernel.reclaim import ReclaimDaemon, Watermarks
from repro.kernel.scanner import ScanConfig, TickingScanner
from repro.kernel.stats import GlobalStats, SeriesBank
from repro.kernel.sysctl import Sysctl, positive
from repro.mem.machine import TieredMachine
from repro.sim.clock import VirtualClock
from repro.sim.events import EventScheduler
from repro.sim.rng import RngStreams
from repro.sim.timeunits import SECOND
from repro.vm.process import SimProcess

#: per-page cost of one LRU aging pass (reference-bit harvest)
AGING_PAGE_COST_NS: int = 25


def _round_robin_prefixes(
    sizes: np.ndarray, chunk_pages: int, budget: int
) -> np.ndarray:
    """Pages of each process among the first ``budget`` of a round-robin.

    The walk visits chunks in (round, process) order; round ``r`` gives
    process ``i`` its pages ``[r * chunk_pages, (r + 1) * chunk_pages)``
    clipped to ``sizes[i]``, so whatever the walk covers of a process is
    a vpn prefix.  The first ``r`` rounds cover ``sum(min(sizes, r *
    chunk_pages))`` pages; bisection finds the most whole rounds within
    ``budget``, and the next round hands out the rest in process order.
    O(processes * log(max(sizes) / chunk_pages)).
    """
    def covered(rounds: int) -> int:
        return int(np.minimum(sizes, rounds * chunk_pages).sum())

    lo = 0
    hi = -(-int(sizes.max(initial=0)) // chunk_pages)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if covered(mid) <= budget:
            lo = mid
        else:
            hi = mid - 1
    base = np.minimum(sizes, lo * chunk_pages)
    take = np.minimum(sizes - base, chunk_pages)
    before = np.cumsum(take) - take
    return base + np.clip(budget - int(base.sum()) - before, 0, take)


class Kernel:
    """Simulated kernel: machine + MM subsystems + process table."""

    def __init__(
        self,
        machine: Optional[TieredMachine] = None,
        rng: Optional[RngStreams] = None,
        aging_period_ns: int = 10 * SECOND,
        reclaim_period_ns: int = SECOND // 10,
    ) -> None:
        self.machine = machine or TieredMachine()
        self.rng = rng or RngStreams(0)
        self.clock = VirtualClock()
        self.scheduler = EventScheduler()
        self.stats = GlobalStats()
        self.series = SeriesBank()
        self.sysctl = Sysctl()
        self.lru = LruLists(self.rng.get("kernel.lru"))
        self.watermarks = Watermarks(
            capacity_pages=self.machine.fast.capacity_pages
        )
        self.reclaim = ReclaimDaemon(
            self, self.watermarks, period_ns=reclaim_period_ns
        )
        self.migration = MigrationEngine(self)
        self.cgroups = CgroupRegistry()
        self.processes: List[SimProcess] = []
        #: pids of ``processes``: the duplicate check is O(1) per tenant
        self._pids: Set[int] = set()
        self.policy: Any = None
        self.scanner: Optional[TickingScanner] = None
        #: optional :class:`repro.obs.hub.ObsHub`; when set, kernel paths
        #: emit structured trace events and maintain the metrics
        #: registry.  ``None`` (the default) keeps every instrumentation
        #: site to a single ``is None`` check.
        self.obs: Any = None
        self.aging_period_ns = int(aging_period_ns)
        self._register_core_sysctls()
        self._started = False

    def _register_core_sysctls(self) -> None:
        self.sysctl.register(
            "kernel.numa_balancing",
            1,
            "0=off, 1=NUMA balancing, 2=tiering mode (Chrono)",
        )
        self.sysctl.register(
            "vm.demotion_enabled",
            1,
            "allow reclaim to demote instead of swapping",
        )
        self.sysctl.register(
            "vm.aging_period_sec",
            self.aging_period_ns / SECOND,
            "period of the LRU reference-bit aging pass",
            validator=positive,
            unit="sec",
        )

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------
    def register_process(
        self, process: SimProcess, cgroup: Optional[str] = None
    ) -> None:
        """Add a process to the table (placement happens separately)."""
        if process.pid in self._pids:
            raise ValueError(f"pid {process.pid} already registered")
        self._pids.add(process.pid)
        self.processes.append(process)
        if cgroup is not None:
            self.cgroups.attach(process, cgroup)

    def allocate_initial_placement(self, chunk_pages: int = 64) -> None:
        """Demand-allocate every process's pages, round-robin in chunks.

        Mirrors concurrent startup on the real machine: allocations land on
        the fast tier while it has headroom above the high watermark, then
        spill to the slow tier.  Chunked round-robin interleaves the
        processes so each gets a proportional share of DRAM.

        Computed in closed form: in (round, process) order the fast tier
        takes exactly the first ``max(0, fast.free - high)`` pages, so
        each process's fast pages are a vpn prefix
        (:func:`_round_robin_prefixes`), written with one
        :meth:`~repro.vm.page_state.PageState.place_prefix` per process.
        Set-up is O(processes) Python work plus two slice writes each.

        Raises ``MemoryError`` when the working sets exceed the usable
        capacity, ``max(0, fast.free - high) + slow.free``: placement
        never dips into the fast tier's watermark reserve, so the slow
        tier must hold everything above the headroom.
        """
        if chunk_pages <= 0:
            raise ValueError("chunk size must be positive")
        fast = self.machine.fast
        slow = self.machine.slow
        sizes = np.array(
            [p.n_pages for p in self.processes], dtype=np.int64
        )
        total = int(sizes.sum())
        headroom = max(0, fast.free_pages - self.watermarks.high_pages)
        if total > headroom + slow.free_pages:
            raise MemoryError(
                f"working sets ({total} pages) exceed usable capacity "
                f"({headroom} fast pages above the high watermark + "
                f"{slow.free_pages} free slow pages)"
            )
        n_fast = _round_robin_prefixes(
            sizes, chunk_pages, min(headroom, total)
        )
        placed_fast = int(n_fast.sum())
        fast.allocate(placed_fast)
        slow.allocate(total - placed_fast)
        for process, prefix in zip(self.processes, n_fast.tolist()):
            process.pages.place_prefix(prefix)

    # ------------------------------------------------------------------
    # Policy plumbing
    # ------------------------------------------------------------------
    def set_policy(self, policy: Any) -> None:
        """Install a tiering policy; it may create a scanner, adjust
        watermarks, and register sysctls during ``attach``."""
        self.policy = policy
        policy.attach(self)

    def create_scanner(self, config: ScanConfig) -> TickingScanner:
        """Create (or replace) the address-space scanner."""
        self.scanner = TickingScanner(self, config)
        return self.scanner

    def start(self) -> None:
        """Start kernel daemons.  Idempotent."""
        if self._started:
            return
        self._started = True
        if self.scanner is not None:
            self.scanner.start()
        self.reclaim.start()
        self._schedule_aging(self.clock.now + self.aging_period_ns)
        if self.policy is not None and hasattr(self.policy, "start"):
            self.policy.start()

    def _schedule_aging(self, when_ns: int) -> None:
        self.scheduler.schedule(when_ns, self._aging_tick, name="lru-aging")

    def _aging_tick(self, now_ns: int) -> None:
        # Visit processes in random order: policies that migrate from
        # their aging hook (Multi-Clock) compete for fast-tier space, and
        # a fixed visiting order would systematically favour low pids.
        order = self.rng.get("kernel.aging").permutation(
            len(self.processes)
        )
        visit = [
            self.processes[int(index)]
            for index in order
            if not self.processes[int(index)].finished
        ]
        # One fleet pass ages every live process (``LruLists.age_fleet``);
        # the ``on_lru_age`` hooks then fire in the same visiting order,
        # under the transient-hook contract of ``TieringPolicy``.
        touched_list = self.lru.age_fleet(visit, now_ns)
        obs = self.obs
        for process, touched in zip(visit, touched_list):
            if obs is not None:
                obs.inc("aging.passes")
                obs.emit(
                    "aging.pass",
                    now_ns,
                    pid=process.pid,
                    n_touched=int(np.count_nonzero(touched)),
                )
            cost = (
                process.n_pages
                * AGING_PAGE_COST_NS
                * self.machine.spec.page_scale
            )
            process.charge_kernel(cost)
            self.stats.kernel_time_ns += cost
            if self.policy is not None and hasattr(
                self.policy, "on_lru_age"
            ):
                self.policy.on_lru_age(process, touched, now_ns)
        self._schedule_aging(now_ns + self.aging_period_ns)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def advance_to(self, when_ns: int) -> None:
        """Advance the clock to ``when_ns`` and fire every due timer.

        Deferred work runs at clock-advance granularity: the clock moves to
        the target first, then due events fire (callbacks still receive
        their *scheduled* times for drift-free rescheduling, and read
        ``kernel.clock.now`` for the effective time).  This matters for
        CIT fidelity -- a scan that fires between engine quanta takes
        effect at the quantum boundary, so protection timestamps must be
        stamped there, not at the nominal timer expiry inside the dead
        window.
        """
        self.clock.advance_to(when_ns)
        self.scheduler.run_due(when_ns)

    def next_event_ns(self) -> Optional[int]:
        """Earliest pending *hard* kernel event (quantum-fusion horizon).

        Facade over :meth:`EventScheduler.next_event_ns`: the engine may
        fuse quanta up to -- but not across -- this instant.  Soft events
        (kswapd watermark polls) do not constrain the horizon.
        """
        return self.scheduler.next_event_ns()

    def deliver_faults(self, process: SimProcess, fault_batch: Any) -> None:
        """Account a fault batch and hand it to the policy."""
        n = fault_batch.n_faults
        if n == 0:
            return
        self.stats.hint_faults += n
        process.stats.hint_faults += n
        self.stats.context_switches += n
        process.stats.context_switches += n
        cost = n * self.machine.spec.effective_fault_cost_ns
        process.charge_kernel(cost)
        self.stats.kernel_time_ns += cost
        obs = self.obs
        if obs is not None:
            obs.inc("fault.batches")
            obs.inc("fault.hint_faults", n)
            obs.inc("fault.cost_ns", cost)
            obs.observe_many(
                "fault.cit_ns",
                fault_batch.cit_ns[fault_batch.cit_ns >= 0],
            )
            obs.emit(
                "fault.batch", self.clock.now, **fault_batch.event_fields()
            )
        if self.policy is not None:
            self.policy.on_fault(process, fault_batch)

    def __repr__(self) -> str:
        policy = getattr(self.policy, "name", None)
        return (
            f"Kernel(procs={len(self.processes)}, policy={policy!r}, "
            f"now={self.clock.now}ns)"
        )
