"""The tiering-policy interface.

A policy's contract with the kernel:

* ``attach(kernel)`` -- called once by :meth:`Kernel.set_policy`; the
  policy configures the scanner, watermarks, and its sysctls here.
* ``start()`` -- called from :meth:`Kernel.start`; schedule daemons here.
* ``on_faults(faults)`` -- every NUMA hint fault the fleet took this
  quantum, in one call; the default hands each faulting process's batch
  to ``on_fault(process, batch)``, in segment order (Linux-NB and
  Chrono override it with fleet passes).
* ``on_quantum(process, probs, n_accesses, start_ns, quantum_ns)`` --
  per-quantum traffic summary (PEBS-style policies sample from it).
* ``on_lru_age(process, touched, now_ns)`` -- one LRU aging pass finished
  (access-bit policies read the touch mask here).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.vm.fault import FaultBatch, FleetFaults
    from repro.vm.process import SimProcess


class PromotionRateLimiter:
    """Token-bucket promotion throttle.

    The kernel caps NUMA-balancing promotions (the
    ``numa_balancing_promote_rate_limit_MBps`` sysctl); TPP inherits the
    cap.  The budget is expressed in *real* MB/s and converted to
    simulated pages using the machine's page scale.
    """

    def __init__(self, rate_mbps: float) -> None:
        """Create an unbound limiter with a real-MB/s budget."""
        if rate_mbps <= 0:
            raise ValueError("rate limit must be positive")
        self.rate_mbps = float(rate_mbps)
        self._pages_per_ns = 0.0
        self._tokens = 0.0
        self._last_ns = 0

    def bind(self, kernel: "Kernel") -> None:
        """Resolve the MB/s budget to simulated pages per nanosecond."""
        bytes_per_sim_page = 4096 * kernel.machine.spec.page_scale
        self._pages_per_ns = (
            self.rate_mbps * 1e6 / bytes_per_sim_page / 1e9
        )
        self._last_ns = kernel.clock.now

    def available(self, now_ns: int) -> int:
        """Refill the bucket up to ``now_ns``; the whole pages it holds."""
        if self._pages_per_ns == 0.0:
            raise RuntimeError("rate limiter is not bound to a kernel")
        elapsed = max(now_ns - self._last_ns, 0)
        self._last_ns = now_ns
        # Cap the accumulated burst at one second of budget.
        self._tokens = min(
            self._tokens + elapsed * self._pages_per_ns,
            self._pages_per_ns * 1e9,
        )
        return int(self._tokens)

    def grant(self, requested: int, now_ns: int) -> int:
        """Take up to ``requested`` pages from the bucket."""
        if requested < 0:
            raise ValueError("cannot request negative pages")
        granted = min(requested, self.available(now_ns))
        self._tokens -= granted
        return granted


class TieringPolicy(ABC):
    """Base class wiring a policy into the kernel.

    Quantum-fusion contract: the engine may merge consecutive
    steady-state quanta into one macro-quantum, delivering a single
    ``on_quantum(process, probs, n·K, start_ns, n·quantum_ns)`` call in
    place of ``n`` identical per-quantum calls.  That is exact whenever
    ``on_quantum`` is linear in ``(n_accesses, quantum_ns)`` jointly --
    the in-tree sampling policies qualify (PEBS window budgets scale
    linearly, pending-run ledgers accumulate additively).  Periodic
    policy mechanisms (Memtis cooling/classification, Chrono CIT
    adaptation, Telescope windows) are scheduler events, so they bound
    the fusion horizon to their own periods automatically.

    A policy whose ``on_quantum`` is *not* fusion-linear sets
    ``needs_per_quantum = True`` (fusion disabled while it is attached);
    one that tolerates fusion only up to some window sets
    ``max_fusion_quanta`` instead of disabling it.

    Transient-hook contract: the kernel runs its transient windows
    (Ticking-scan passes, LRU aging, reclaim victim selection, migration
    batches) as *fleet-wide* array programs -- one pass over all
    processes, with per-process policy hooks (``on_scan``,
    ``on_lru_age``) fired afterwards in the same visiting order a
    per-process loop would use.  That is exactly equivalent as long as
    a hook touches only its own process (its window counters, accessed
    bits, LRU state, protection state) and draws from no shared kernel
    RNG stream -- true of every registered policy, whose hooks only
    touch the hooked process's pages and per-process RNG.
    ``tests/test_batched_oracle.py::TestPolicyTransientOracle`` enforces
    it for every registered policy against the per-process loops in
    ``tests/transient_oracle.py``.

    Fault-hook contract: the arena resolves every hint fault of a
    quantum -- CIT, protection cleared, accessed bit set -- for the
    whole fleet before the kernel delivers any of them, and then makes
    one ``on_faults`` call with every faulting process, in segment
    order.  The base ``on_faults`` calls ``on_fault`` once per faulting
    process in that order, which is what a per-process
    resolve-then-deliver loop would do, as long as no fault hook touches
    another process's ``prot_none`` or ``scan_ts_ns`` -- true of every
    registered policy: AutoTiering's and Memtis's synchronous demotions
    move tiers only, and Chrono's ``mark_demoted`` re-protection runs
    from its drain timer and from kswapd, never from a fault hook.  A
    policy that overrides ``on_faults`` must equal that per-process
    loop: Linux-NB, whose pass hands only the tenants that can still
    promote to its ``on_fault``, and Chrono, whose pass handles the
    whole fleet on the page table.  ``tests/test_fault_delivery.py``
    enforces the contract for every registered policy against the
    per-segment loop in ``tests/arena_oracle.py``, and
    ``tests/test_chrono_fleet.py`` holds Chrono's pass to its
    process-by-process form in ``tests/chrono_oracle.py``.
    """

    name: str = "abstract"

    #: True when ``on_quantum`` must observe every quantum individually;
    #: the engine then never fuses.
    needs_per_quantum: bool = False

    #: Optional cap on quanta merged into one macro-quantum
    #: (``None`` = bounded only by the event horizon).
    max_fusion_quanta: Optional[int] = None

    def __init__(self) -> None:
        """Create the policy unattached (see :meth:`attach`)."""
        self.kernel: Optional["Kernel"] = None

    def attach(self, kernel: "Kernel") -> None:
        """Bind to a kernel and configure its subsystems."""
        if self.kernel is not None:
            raise RuntimeError(
                f"policy {self.name!r} is already attached to a kernel"
            )
        self.kernel = kernel
        self._configure(kernel)

    @abstractmethod
    def _configure(self, kernel: "Kernel") -> None:
        """Set up scanner / watermarks / sysctls on the kernel."""

    def start(self) -> None:
        """Schedule policy daemons (called from :meth:`Kernel.start`)."""

    def on_faults(self, faults: "FleetFaults") -> None:
        """Handle one quantum's hint faults of the whole fleet.

        Each faulting process's batch goes to :meth:`on_fault`, in
        segment order.
        """
        on_fault = self.on_fault
        for process, batch in faults.batches():
            on_fault(process, batch)

    def on_fault(self, process: "SimProcess", batch: "FaultBatch") -> None:
        """Handle a batch of NUMA hint faults."""

    def on_quantum(
        self,
        process: "SimProcess",
        probs: np.ndarray,
        n_accesses: float,
        start_ns: int,
        quantum_ns: int,
    ) -> None:
        """Observe one quantum of traffic (sampling-based policies)."""

    def on_lru_age(
        self, process: "SimProcess", touched: np.ndarray, now_ns: int
    ) -> None:
        """Observe one LRU aging pass (access-bit policies)."""

    # ------------------------------------------------------------------
    def _require_kernel(self) -> "Kernel":
        if self.kernel is None:
            raise RuntimeError(f"policy {self.name!r} is not attached")
        return self.kernel

    def __repr__(self) -> str:
        """Class name plus the canonical policy name."""
        return f"{type(self).__name__}(name={self.name!r})"
