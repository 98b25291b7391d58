"""Vanilla Linux NUMA balancing used as a tiering policy (Linux-NB).

The slow tier is a CPU-less NUMA node, so every hint fault on a slow-tier
page looks like a misplaced page to the balancer and triggers promotion --
effectively a *most recently used* policy (Section 2.1).  It cannot tell a
page that faults 1 ms after the scan from one that faults 50 s after; both
get promoted.

Two pieces of vanilla-kernel behaviour matter:

* promotions are throttled by the global
  ``numa_balancing_promote_rate_limit_MBps`` budget, and
* the promotion path never reclaims synchronously -- if the fast tier has
  no free page, the promotion is simply skipped and kswapd's
  watermark-driven demotion (``vm.demotion_enabled``) frees space in the
  background.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.scanner import ScanConfig
from repro.mem.tier import SLOW_TIER
from repro.policies.base import PromotionRateLimiter, TieringPolicy
from repro.sim.timeunits import SECOND


class LinuxNUMABalancing(TieringPolicy):
    """MRU promotion on every hint fault; kswapd watermark demotion."""

    name = "linux-nb"

    # Fusion contract: no ``on_quantum``; promotion rides the
    # hint-fault path (exact under fused Poisson-merged sampling)
    # and scan ticks are hard scheduler events.
    needs_per_quantum = False
    max_fusion_quanta = None

    def __init__(
        self,
        scan_period_ns: int = 60 * SECOND,
        scan_step_pages: int = 65_536,
        promote_rate_limit_mbps: float = 256.0,
    ) -> None:
        """Create the policy with tiering-mode scan and rate knobs."""
        super().__init__()
        # Tiering mode scans only the slow tier: hint faults exist to
        # find promotion candidates, and CPU-less nodes need no locality
        # balancing (the kernel skips toptier nodes in tiering mode).
        self._scan_config = ScanConfig(
            scan_period_ns=scan_period_ns,
            scan_step_pages=scan_step_pages,
            tier_filter=SLOW_TIER,
        )
        self.rate_limiter = PromotionRateLimiter(promote_rate_limit_mbps)

    def _configure(self, kernel) -> None:
        kernel.create_scanner(self._scan_config)
        kernel.sysctl.set("kernel.numa_balancing", 1)
        self.rate_limiter.bind(kernel)

    def on_faults(self, faults) -> None:
        """Hand :meth:`on_fault` the tenants that can still promote.

        One tier gather counts every faulting process's slow-tier
        faults.  A process with none would promote nothing and is
        skipped.  The others go to :meth:`on_fault` in segment order
        until the bucket is dry or the fast tier is full; from then on
        each of them would only take what the bucket holds and drop its
        pages, so the rest are booked with one grant and one sum.  A
        promotion moves only the promoting process's pages, so the
        up-front counts stay exact.
        """
        kernel = self._require_kernel()
        slow = faults.tiers() == SLOW_TIER
        per_proc = np.add.reduceat(slow, faults.bounds[:-1], dtype=np.int64)
        asking = np.flatnonzero(per_proc).tolist()
        now = kernel.clock.now
        fast = kernel.machine.fast
        for pos, k in enumerate(asking):
            if fast.free_pages <= 0 or not self.rate_limiter.available(now):
                rest = int(per_proc[asking[pos:]].sum())
                self.rate_limiter.grant(rest, now)
                kernel.stats.promotion_dropped += rest
                return
            self.on_fault(faults.processes[k], faults.batch(k))

    def on_fault(self, process, batch) -> None:
        """Promote every rate-limited slow-tier fault (MRU order)."""
        kernel = self._require_kernel()
        vpns = batch.vpns
        slow = vpns[process.pages.tier[vpns] == SLOW_TIER]
        if slow.size == 0:
            return
        budget = self.rate_limiter.grant(
            int(slow.size), kernel.clock.now
        )
        budget = min(budget, kernel.machine.fast.free_pages)
        if budget < slow.size:
            kernel.stats.promotion_dropped += int(slow.size) - max(budget, 0)
        if budget <= 0:
            return
        if budget < slow.size:
            # The rate limiter admits whichever faults arrive first; with
            # batched faults that is a random subset, not low addresses.
            slow = process.rng.permutation(slow)[:budget]
        kernel.migration.promote(process, slow)
