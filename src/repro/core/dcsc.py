"""Dynamic CIT Statistic Collection (Section 3.2.2, Figure 5).

DCSC paints a run-time picture of page hotness across *both* tiers:

1. every probe period it samples a small random fraction (``P-victim``,
   default 0.003%) of each process's pages, marks them ``PG_probed`` and
   protects them like a Ticking-scan would;
2. a probed page's first fault yields CIT round one and immediately
   re-protects it (at the fault time); the second fault yields round two,
   and ``max(cit1, cit2)`` -- the same estimator candidate filtering uses
   -- is recorded into the page's tier's *heat map* (a histogram over the
   28 exponential CIT buckets);
3. comparing the heat maps locates the *overlap*: slow-tier pages hotter
   than fast-tier residents.  The overlap point recalibrates the CIT
   threshold; the misplaced-page mass, spread over a scan period, sets the
   promotion rate limit.

Probed pages that never fault within the timeout are, by definition,
extremely cold and are counted into the coldest bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.cit import CIT_BUCKETS, bucket_upper_bound_ns, cit_bucket
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.timeunits import SECOND
from repro.vm.process import SimProcess


def dcsc_fold(
    tiers: np.ndarray, buckets: np.ndarray, n_tiers: int, n_buckets: int
) -> np.ndarray:
    """Count ``(tier, bucket)`` CIT samples into a dense float64
    ``(n_tiers, n_buckets)`` table: one fused ``bincount`` over
    ``tier * n_buckets + bucket`` keys instead of one ``np.add.at``
    scatter per tier."""
    keys = tiers.astype(np.int64) * n_buckets + buckets
    counts = np.bincount(keys, minlength=n_tiers * n_buckets)
    return counts.astype(np.float64).reshape(n_tiers, n_buckets)


@dataclass
class DcscConfig:
    """DCSC tunables (Table 2's ``P-victim`` and ``B-bucket``)."""

    victim_fraction: float = 0.00003  # 0.003%
    n_buckets: int = CIT_BUCKETS
    cit_unit_ns: int = 1_000_000  # 1 ms, the paper's finest CIT level
    probe_period_ns: int = SECOND
    probe_timeout_ns: int = 30 * SECOND
    decay: float = 0.9
    min_samples: float = 32.0
    min_victims_per_process: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.victim_fraction < 1:
            raise ValueError("victim fraction must be in (0, 1)")
        if self.n_buckets < 2:
            raise ValueError("need at least two buckets")
        if self.cit_unit_ns <= 0:
            raise ValueError("CIT unit must be positive")
        if self.probe_period_ns <= 0 or self.probe_timeout_ns <= 0:
            raise ValueError("periods must be positive")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must be in (0, 1]")
        if self.min_samples <= 0:
            raise ValueError("need a positive sample requirement")
        if self.min_victims_per_process < 1:
            raise ValueError("need at least one victim per process")


class DcscCollector:
    """Randomized probing and per-tier CIT heat maps."""

    def __init__(
        self, config: DcscConfig, rng: np.random.Generator
    ) -> None:
        self.config = config
        self._rng = rng
        #: optional :class:`repro.obs.hub.ObsHub` (wired by the owning
        #: policy at attach time); probe and sample events flow to it
        self.obs = None
        self.heat_maps: Dict[int, np.ndarray] = {
            FAST_TIER: np.zeros(config.n_buckets),
            SLOW_TIER: np.zeros(config.n_buckets),
        }
        self._round: Dict[int, np.ndarray] = {}
        self._first_cit: Dict[int, np.ndarray] = {}
        self._probe_ts: Dict[int, np.ndarray] = {}
        self.probes_issued = 0
        self.samples_recorded = 0.0

    def _arrays(self, process: SimProcess):
        pid = process.pid
        if pid not in self._round:
            self._round[pid] = np.zeros(process.n_pages, dtype=np.int8)
            self._first_cit[pid] = np.zeros(process.n_pages, dtype=np.int64)
            self._probe_ts[pid] = np.zeros(process.n_pages, dtype=np.int64)
        return self._round[pid], self._first_cit[pid], self._probe_ts[pid]

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe_process(self, process: SimProcess, now_ns: int) -> int:
        """Select and protect a fresh random victim set; returns count."""
        rounds, _, probe_ts = self._arrays(process)
        self._expire_stale(process, now_ns)
        k = max(
            self.config.min_victims_per_process,
            int(round(self.config.victim_fraction * process.n_pages)),
        )
        k = min(k, process.n_pages)
        victims = self._rng.choice(process.n_pages, size=k, replace=False)
        victims = victims[~process.pages.probed[victims]]
        if victims.size == 0:
            return 0
        # Probe order carries no meaning; sorted victims let the
        # protection path take its monotonic fast paths.
        victims.sort()
        process.pages.probed[victims] = True
        rounds[victims] = 1
        probe_ts[victims] = now_ns
        process.pages.protect_at(
            victims, np.full(victims.size, now_ns, dtype=np.int64)
        )
        self.probes_issued += int(victims.size)
        if self.obs is not None:
            self.obs.inc("dcsc.probes", int(victims.size))
            self.obs.emit(
                "dcsc.probe",
                now_ns,
                pid=process.pid,
                n_probed=int(victims.size),
            )
        return int(victims.size)

    def decay_maps(self) -> None:
        """Age the heat maps so recent windows dominate."""
        for heat_map in self.heat_maps.values():
            heat_map *= self.config.decay

    def _expire_stale(self, process: SimProcess, now_ns: int) -> None:
        """Probes that never faulted are maximally cold."""
        rounds, _, probe_ts = self._arrays(process)
        stale = np.flatnonzero(
            process.pages.probed
            & (now_ns - probe_ts > self.config.probe_timeout_ns)
        )
        if stale.size == 0:
            return
        for tier in (FAST_TIER, SLOW_TIER):
            count = int(
                np.count_nonzero(process.pages.tier[stale] == tier)
            )
            if count:
                self.heat_maps[tier][-1] += count
                self.samples_recorded += count
        process.pages.probed[stale] = False
        process.pages.unprotect(stale)
        rounds[stale] = 0
        if self.obs is not None:
            self.obs.inc("dcsc.expired", int(stale.size))

    # ------------------------------------------------------------------
    # Fault-side collection
    # ------------------------------------------------------------------
    def on_probed_fault(
        self,
        process: SimProcess,
        vpns: np.ndarray,
        cit_ns: np.ndarray,
        fault_ts_ns: np.ndarray,
        quantum_ns: int,
    ) -> None:
        """Handle faults on PG_probed pages (both measurement rounds).

        ``quantum_ns`` is the stepping engine's quantum: round two's
        protection is stamped at the first quantum boundary after the
        fault.  The engine resolves at most one fault per page per
        quantum, so stamping mid-quantum would inflate every round-two
        CIT by up to a quantum of dead time; the simulated arrival
        process is memoryless, so restarting the measurement at the
        boundary draws from the same inter-access distribution.
        """
        rounds, first_cit, _ = self._arrays(process)
        vpns = np.asarray(vpns, dtype=np.int64)
        cit_ns = np.asarray(cit_ns, dtype=np.int64)
        fault_ts_ns = np.asarray(fault_ts_ns, dtype=np.int64)

        # Evaluate both round memberships before mutating, or a page
        # advanced to round two by this batch would also be *recorded* by
        # this batch.
        in_round1 = rounds[vpns] == 1
        in_round2 = rounds[vpns] == 2
        round1 = vpns[in_round1]
        if round1.size:
            first_cit[round1] = cit_ns[in_round1]
            rounds[round1] = 2
            # Second measurement round starts at the next engine
            # boundary after the fault.
            q = quantum_ns
            restart_ts = (fault_ts_ns[in_round1] // q + 1) * q
            process.pages.protect_at(round1, restart_ts)

        round2 = vpns[in_round2]
        if round2.size:
            max_cit = np.maximum(first_cit[round2], cit_ns[in_round2])
            buckets = cit_bucket(
                max_cit, self.config.n_buckets, self.config.cit_unit_ns
            )
            # One fused (tier, bucket) reduction instead of a per-tier
            # ``np.add.at`` scatter; the counts are integer-valued
            # float64, so adding them per tier matches the sequential
            # unit-increments exactly for integer-valued heat cells and
            # to 1 ulp per cell otherwise (decayed maps).
            counts = dcsc_fold(
                process.pages.tier[round2],
                buckets,
                max(FAST_TIER, SLOW_TIER) + 1,
                self.config.n_buckets,
            )
            for tier in (FAST_TIER, SLOW_TIER):
                tier_counts = counts[tier]
                if tier_counts.any():
                    self.heat_maps[tier] += tier_counts
            self.samples_recorded += float(round2.size)
            rounds[round2] = 0
            process.pages.probed[round2] = False
            if self.obs is not None:
                self.obs.inc("dcsc.samples", int(round2.size))
                self.obs.emit(
                    "cit.sample",
                    int(fault_ts_ns[in_round2].max()),
                    pid=process.pid,
                    vpns=round2,
                    cit_ns=max_cit,
                    tiers=process.pages.tier[round2],
                )

    # ------------------------------------------------------------------
    # Overlap identification -> parameter targets
    # ------------------------------------------------------------------
    def compute_targets(
        self,
        fast_capacity_pages: int,
        total_pages: int,
        scan_period_ns: int,
    ) -> Optional[Tuple[int, float]]:
        """Derive (CIT threshold ns, promotion rate pages/sec).

        Returns ``None`` until the heat maps hold enough samples.  The
        threshold is the CIT cutoff under which the page population just
        fills the fast tier; the rate limit is the misplaced (hot-in-slow)
        page mass divided by the scan period.
        """
        if fast_capacity_pages <= 0 or total_pages <= 0:
            raise ValueError("capacities must be positive")
        if scan_period_ns <= 0:
            raise ValueError("scan period must be positive")
        fast_map = self.heat_maps[FAST_TIER]
        slow_map = self.heat_maps[SLOW_TIER]
        total_mass = float(fast_map.sum() + slow_map.sum())
        if total_mass < self.config.min_samples:
            return None

        combined = fast_map + slow_map
        fast_fraction = min(fast_capacity_pages / total_pages, 1.0)
        cumulative = np.cumsum(combined) / total_mass
        cutoff = int(np.searchsorted(cumulative, fast_fraction, side="left"))
        cutoff = min(cutoff, self.config.n_buckets - 1)
        # Repeated-trial correction: the quantile answers "one max-of-two
        # sample below TH", but candidate filtering retries every scan
        # round and promotion is absorbing until demotion, so the
        # effective selected set is larger than one-shot capacity.  One
        # bucket (2x) of tightening keeps the steady-state admitted set
        # near the capacity target.
        threshold_ns = bucket_upper_bound_ns(
            max(cutoff - 1, 0), self.config.cit_unit_ns
        )

        misplaced_fraction = float(slow_map[: cutoff + 1].sum()) / total_mass
        misplaced_pages = misplaced_fraction * total_pages
        rate = misplaced_pages / (scan_period_ns / 1e9)
        rate = max(rate, 1.0)
        return threshold_ns, rate
