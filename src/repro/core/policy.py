"""ChronoPolicy: meticulous promotion + adaptive tuning + proactive
demotion, assembled (Figure 3).

The default configuration is *Chrono-full*: two-round candidate filtering
with DCSC-driven fully automatic tuning of both the CIT threshold and the
promotion rate limit.  The Figure 13 ablation variants are built by
:func:`make_chrono_variant`:

===============  =========  ===========================================
variant          rounds     tuning
===============  =========  ===========================================
``basic``        1          semi-auto (fixed rate limit)
``twice``        2          semi-auto (fixed rate limit)
``thrice``       3          semi-auto (fixed rate limit)
``full``         2          DCSC fully automatic (the default)
``manual``       2          semi-auto, user-supplied rate limit
===============  =========  ===========================================

The fault path (:meth:`ChronoPolicy.on_faults`) and the DCSC probe
tick each handle the whole fleet in one pass over the page table.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.candidates import CandidateFilter
from repro.core.cit import CIT_BUCKETS
from repro.core.dcsc import DcscCollector, DcscConfig
from repro.core.demotion import ThrashingMonitor, pro_watermark_gap_pages
from repro.core.hugepage import scaled_threshold_ns
from repro.core.promotion import PromotionQueue
from repro.core.tuning import SemiAutoTuner
from repro.kernel.scanner import ScanConfig
from repro.kernel.sysctl import fraction, positive
from repro.mem.machine import PAGE_SIZE
from repro.mem.tier import SLOW_TIER
from repro.policies.base import TieringPolicy
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.fault import FleetFaults
from repro.vm.hugepage import HUGE_2MB_PAGES
from repro.vm.page_state import runs


class ChronoPolicy(TieringPolicy):
    """The paper's system: CIT promotion, adaptive tuning, pro demotion."""

    name = "chrono"

    # Fusion contract: Chrono has no ``on_quantum``; CIT measurement
    # rides the hint-fault path (exact under fused Poisson-merged
    # sampling) and drain/tune/DCSC adaptation are scheduler events
    # (``chrono-drain``/``chrono-tune``/``chrono-dcsc``), so the event
    # horizon bounds fusion to the drain period without a policy cap.
    needs_per_quantum = False
    max_fusion_quanta = None

    def __init__(
        self,
        n_filter_rounds: int = 2,
        tuning: str = "dcsc",
        cit_threshold_ns: float = 1000 * MILLISECOND,
        rate_limit_pages_per_sec: Optional[float] = None,
        delta: float = 0.5,
        scan_period_ns: int = 60 * SECOND,
        scan_step_pages: int = 65_536,
        drain_period_ns: int = 100 * MILLISECOND,
        tune_period_ns: Optional[int] = None,
        dcsc_config: Optional[DcscConfig] = None,
        thrash_threshold: float = 0.20,
        page_granularity: str = "base",
        hp_pages: int = HUGE_2MB_PAGES,
    ) -> None:
        """Create a Chrono policy.

        Args:
            n_filter_rounds: CIT measurement rounds before promotion
                (2 = candidate filtering on, 1 = Chrono-basic).
            tuning: ``dcsc`` (fully automatic) or ``semi``
                (user-fixed rate limit, auto threshold).
            cit_threshold_ns: initial CIT threshold (Table 2: 1000 ms,
                auto-tuned from there).
            rate_limit_pages_per_sec: initial promotion rate limit;
                ``None`` derives a default from the machine at attach
                time (Table 2's 100 MBps scaled to the machine).
            delta: semi-auto adaption step.
            scan_period_ns / scan_step_pages: Ticking-scan cadence.
            drain_period_ns: promotion-queue drain period.
            tune_period_ns: parameter retune period (default: one scan
                period).
            dcsc_config: DCSC knobs (P-victim, B-bucket, probe period).
            thrash_threshold: thrash ratio that halves the rate limit.
            page_granularity: ``base`` or ``huge`` (2 MB migration
                granularity with TH/512 scaling).
            hp_pages: simulated pages per 2 MB region in huge mode
                (scaled-down runs pass ``512 // page_scale``).
        """
        super().__init__()
        if tuning not in ("dcsc", "semi"):
            raise ValueError("tuning must be 'dcsc' or 'semi'")
        if page_granularity not in ("base", "huge"):
            raise ValueError("granularity must be 'base' or 'huge'")
        if cit_threshold_ns <= 0:
            raise ValueError("CIT threshold must be positive")
        if drain_period_ns <= 0:
            raise ValueError("drain period must be positive")
        self.tuning = tuning
        self.page_granularity = page_granularity
        self.scan_period_ns = int(scan_period_ns)
        self.scan_step_pages = int(scan_step_pages)
        self.drain_period_ns = int(drain_period_ns)
        self.tune_period_ns = int(tune_period_ns or scan_period_ns)
        self.cit_threshold_ns = float(cit_threshold_ns)
        self._initial_rate = rate_limit_pages_per_sec
        self.base_rate_limit: float = 0.0  # set at attach
        if hp_pages < 2:
            raise ValueError("a huge-page group needs at least two pages")
        self.hp_pages = int(hp_pages)
        self.filter = CandidateFilter(n_rounds=n_filter_rounds)
        self.dcsc_config = dcsc_config or DcscConfig()
        self.tuner = SemiAutoTuner(
            threshold_ns=float(cit_threshold_ns),
            delta=delta,
            # The threshold can tighten down to the finest CIT level the
            # deployment measures (1 ms on the paper's testbed, finer in
            # scaled simulations).
            min_threshold_ns=float(self.dcsc_config.cit_unit_ns),
        )
        self.dcsc: Optional[DcscCollector] = None
        self.monitor = ThrashingMonitor(
            threshold_ratio=thrash_threshold,
            window_ns=self.tune_period_ns,
        )
        self.queue: Optional[PromotionQueue] = None
        self._last_drain_ns = 0
        self._last_tune_ns = 0
        # Smoothed submission-rate signal: the two-round pipeline makes
        # raw per-window rates bursty (submissions cluster on second-
        # round scan passes), and feeding bursts straight into the
        # multiplicative update ratchets the threshold.  The paper
        # averages the enqueue rate within each Ticking-scan period; the
        # EMA extends that smoothing across periods.
        self._enqueue_rate_ema: Optional[float] = None
        # Persistent thrash backoff: halved on a thrashing window,
        # recovered gradually on clean windows.  Without persistence the
        # next DCSC retarget would undo the halving and the system would
        # oscillate instead of converging to a quiescent placement.
        self._thrash_backoff = 1.0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _configure(self, kernel) -> None:
        kernel.create_scanner(
            ScanConfig(
                scan_period_ns=self.scan_period_ns,
                scan_step_pages=self.scan_step_pages,
                # Ticking-scan records CIT for slow-tier pages; like the
                # kernel's tiering mode it skips top-tier PTEs (DCSC
                # probes cover the fast tier separately).
                tier_filter=SLOW_TIER,
            )
        )
        kernel.sysctl.set("kernel.numa_balancing", 2)
        self._register_sysctls(kernel)

        if self._initial_rate is None:
            # Table 2's 100 MBps on a 64 GB fast tier, scaled: enough
            # budget to turn the fast tier over in ~20 s.
            self.base_rate_limit = kernel.machine.fast.capacity_pages / 20.0
        else:
            self.base_rate_limit = float(self._initial_rate)
        self.queue = PromotionQueue(self.base_rate_limit)

        if self.tuning == "dcsc":
            self.dcsc = DcscCollector(
                self.dcsc_config, kernel.rng.get("chrono.dcsc")
            )
            self.dcsc.obs = kernel.obs

        # Proactive demotion: mark demoted pages (thrashing monitor) and
        # size the pro watermark for the current rate limit.
        kernel.reclaim.mark_demoted = True
        self._resize_pro_watermark(kernel)

    def _register_sysctls(self, kernel) -> None:
        sysctl = kernel.sysctl
        sysctl.register(
            "chrono.scan_step_pages", 65_536,
            "marked page-set size of a Ticking-scan event (256 MB)",
            validator=positive, unit="pages",
        )
        sysctl.register(
            "chrono.scan_period_sec", 60,
            "period for Ticking-scan to loop over the address space",
            validator=positive, unit="sec",
        )
        sysctl.register(
            "chrono.p_victim", 0.00003,
            "ratio of pages sampled in the DCSC scheme (0.003%)",
            validator=fraction,
        )
        sysctl.register(
            "chrono.b_bucket", CIT_BUCKETS,
            "number of CIT levels in DCSC statistics",
            validator=positive,
        )
        sysctl.register(
            "chrono.delta_step", 0.5,
            "adaption step for CIT threshold adjustment",
            validator=fraction,
        )
        sysctl.register(
            "chrono.cit_threshold_ms", 1000,
            "CIT classification threshold (auto-tuned)",
            validator=positive, unit="ms",
        )
        sysctl.register(
            "chrono.rate_limit_mbps", 100,
            "promotion rate limit (auto-tuned)",
            validator=positive, unit="MBps",
        )

    def _resize_pro_watermark(self, kernel) -> None:
        gap = pro_watermark_gap_pages(
            self.scan_period_ns, self.queue.rate_limit_pages_per_sec
        )
        kernel.watermarks.set_pro_gap(gap)

    # ------------------------------------------------------------------
    # Daemons
    # ------------------------------------------------------------------
    def start(self) -> None:
        kernel = self._require_kernel()
        now = kernel.clock.now
        self._last_drain_ns = now
        self._last_tune_ns = now
        kernel.scheduler.schedule(
            now + self.drain_period_ns, self._drain_tick,
            name="chrono-drain",
        )
        kernel.scheduler.schedule(
            now + self.tune_period_ns, self._tune_tick, name="chrono-tune"
        )
        if self.dcsc is not None:
            kernel.scheduler.schedule(
                now + self.dcsc_config.probe_period_ns,
                self._probe_tick,
                name="chrono-dcsc",
            )

    # -- promotion drain ------------------------------------------------
    def _drain_tick(self, now_ns: int) -> None:
        kernel = self._require_kernel()
        elapsed = now_ns - self._last_drain_ns
        self._last_drain_ns = now_ns
        batches = self.queue.drain(elapsed)
        for process, vpns in batches:
            free = kernel.machine.fast.free_pages
            if free < vpns.size:
                kernel.reclaim.demote_cold_pages(
                    vpns.size - free, now_ns
                )
            moved = kernel.migration.promote(process, vpns)
            self.monitor.record_promotions(int(moved.size))
        if kernel.obs is not None:
            kernel.obs.set_gauge(
                "promotion.queue_depth", len(self.queue)
            )
        kernel.scheduler.schedule(
            now_ns + self.drain_period_ns, self._drain_tick,
            name="chrono-drain",
        )

    # -- parameter tuning ------------------------------------------------
    def _tune_tick(self, now_ns: int) -> None:
        kernel = self._require_kernel()
        window = max(now_ns - self._last_tune_ns, 1)
        self._last_tune_ns = now_ns
        raw_rate = self.queue.enqueue_rate_per_sec(window)
        if self._enqueue_rate_ema is None:
            self._enqueue_rate_ema = raw_rate
        else:
            self._enqueue_rate_ema = (
                0.5 * self._enqueue_rate_ema + 0.5 * raw_rate
            )
        enqueue_rate = self._enqueue_rate_ema

        if self.dcsc is not None:
            targets = self.dcsc.compute_targets(
                fast_capacity_pages=kernel.machine.fast.capacity_pages,
                total_pages=max(
                    sum(p.n_pages for p in kernel.processes), 1
                ),
                scan_period_ns=self.scan_period_ns,
            )
            if targets is not None:
                # DCSC's overlap identification sets the *rate limit*
                # (misplaced mass per scan period -- this is what decays
                # to near zero as placement converges, Figure 10c) and
                # anchors the threshold search range around the capacity
                # quantile.  The threshold itself keeps tracking the
                # enqueue-rate feedback loop: with few misplaced pages
                # the rate target shrinks, the loop tightens the
                # threshold, and promotion traffic quiesces instead of
                # churning DRAM forever.
                anchor_ns, rate = targets
                self.base_rate_limit = min(
                    rate, kernel.machine.fast.capacity_pages / 10.0
                )
                # The anchor is a hard ceiling: pages colder than the
                # capacity quantile cannot all fit in the fast tier, so a
                # threshold above it only manufactures churn.  Below the
                # anchor the enqueue-rate loop is free to tighten.
                self.tuner.min_threshold_ns = max(anchor_ns / 8.0, 1.0)
                self.tuner.max_threshold_ns = float(anchor_ns)
                self.tuner.threshold_ns = float(
                    np.clip(
                        self.tuner.threshold_ns,
                        self.tuner.min_threshold_ns,
                        self.tuner.max_threshold_ns,
                    )
                )
        self.cit_threshold_ns = self.tuner.update(
            self.base_rate_limit * self._thrash_backoff, enqueue_rate
        )

        # Thrashing backoff applies to the effective rate for the next
        # window, whatever produced the base value.  The backoff state is
        # persistent: it halves while thrash windows continue and creeps
        # back up on clean ones.
        if self.monitor.end_window(1.0) < 1.0:
            self._thrash_backoff = max(self._thrash_backoff * 0.5, 0.25)
        else:
            self._thrash_backoff = min(self._thrash_backoff * 1.5, 1.0)
        effective = max(self.base_rate_limit * self._thrash_backoff, 1.0)
        self.queue.set_rate_limit(effective)
        self._resize_pro_watermark(kernel)

        kernel.series.record(
            "chrono.cit_threshold_ms", now_ns,
            self.cit_threshold_ns / MILLISECOND,
        )
        kernel.series.record(
            "chrono.rate_limit_mbps", now_ns,
            effective * PAGE_SIZE / 1e6,
        )
        obs = kernel.obs
        if obs is not None:
            obs.set_gauge("chrono.cit_threshold_ns", self.cit_threshold_ns)
            obs.set_gauge("chrono.rate_limit_pages_per_sec", effective)
            obs.emit(
                "tune.update",
                now_ns,
                cit_threshold_ns=float(self.cit_threshold_ns),
                rate_limit_pages_per_sec=float(effective),
                enqueue_rate=float(enqueue_rate),
                backoff=float(self._thrash_backoff),
            )
        kernel.scheduler.schedule(
            now_ns + self.tune_period_ns, self._tune_tick,
            name="chrono-tune",
        )

    # -- DCSC probing ------------------------------------------------------
    def _probe_tick(self, now_ns: int) -> None:
        """One DCSC probe pass over the live processes; each one's
        probes are charged to it as kernel time."""
        kernel = self._require_kernel()
        self.dcsc.decay_maps()
        live = [p for p in kernel.processes if not p.finished]
        # Stamp probes at the effective (clock) time; see
        # Kernel.advance_to for why this differs from now_ns.
        counts = self.dcsc.probe(live, kernel.clock.now)
        hit = np.flatnonzero(counts)
        if hit.size:
            probed = counts[hit]
            costs = probed * kernel.machine.spec.effective_scan_cost_ns
            segs = np.fromiter(
                (live[k].pages.seg for k in hit.tolist()), np.int64, hit.size
            )
            live[0].pages.table.debt[segs] += costs
            stats = kernel.stats
            # Booked process by process, as sequential sums.
            stats.kernel_time_ns = float(
                np.cumsum(np.r_[stats.kernel_time_ns, costs])[-1]
            )
            stats.dcsc_probes += int(probed.sum())
        kernel.scheduler.schedule(
            now_ns + self.dcsc_config.probe_period_ns,
            self._probe_tick,
            name="chrono-dcsc",
        )

    # ------------------------------------------------------------------
    # Fault path
    # ------------------------------------------------------------------
    def on_fault(self, process, batch) -> None:
        """One process's faults: the fleet pass on a one-process
        delivery."""
        self.on_faults(FleetFaults.single(process, batch))

    def on_faults(self, faults) -> None:
        """Handle one quantum's hint faults of the whole fleet in one
        pass over the page table.

        Faults on DCSC-probed pages feed DCSC's two measurement rounds;
        the rest that hit the slow tier go through thrash detection and
        the candidate filter, and the pages that pass enqueue for
        promotion -- in segment order, each process's in fault order.
        This equals handling the processes one by one (no step reads
        another process's pages), heat maps and every other float sum
        included, and with a hub attached each process's events are
        emitted in turn.  ``tests/chrono_oracle.py`` keeps that
        process-by-process form.
        """
        if not faults.n_faults:
            return
        kernel = self._require_kernel()
        table = faults.table
        index = faults.index
        obs = kernel.obs
        #: ``(process position, type, time, fields)`` per obs event
        events = None if obs is None else []

        keep = table.tier[index] == SLOW_TIER
        probed = table.probed[index] != 0
        if probed.any():
            if self.dcsc is not None:
                self.dcsc.on_probed_fault(
                    faults, np.flatnonzero(probed), kernel.quantum_ns, events
                )
            keep &= ~probed
        rows = np.flatnonzero(keep)
        if rows.size:
            pages = index[rows]
            cits = faults.cit_ns[rows]
            self._detect_thrash(faults, rows, pages, cits, events)
            if self.page_granularity == "huge":
                ready = self._observe_huge(faults, rows, pages, cits)
            else:
                ready = self.filter.observe(
                    table, pages, cits, int(self.cit_threshold_ns)
                ).ready
            self._submit(faults, ready, events)
        if events:
            events.sort(key=lambda event: event[0])
            for _, type_, t, fields in events:
                obs.emit(type_, t, **fields)

    def _detect_thrash(self, faults, rows, pages, cits, events) -> None:
        """Thrashing detection (Section 3.3.2): a page demoted within the
        last scan period whose CIT already re-qualifies it as a
        promotion candidate is a wasted round trip.  The event fires at
        *candidate entry* -- waiting for the full n-round submission
        would push it outside the detection window."""
        table = faults.table
        hit = np.flatnonzero(table.demoted[pages])
        if not hit.size:
            return
        kernel = self._require_kernel()
        now = kernel.clock.now
        cits = cits[hit]
        hit = hit[
            (now - table.demote_ts_ns[pages[hit]] < self.scan_period_ns)
            & (cits >= 0)
            & (cits < self.cit_threshold_ns)
        ]
        if not hit.size:
            return
        self.monitor.record_thrash(int(hit.size))
        kernel.stats.thrash_events += int(hit.size)
        bounds, owners = runs(faults.positions(rows[hit]))
        obs = kernel.obs
        for k, a, b in zip(
            owners.tolist(), bounds[:-1].tolist(), bounds[1:].tolist()
        ):
            process = faults.processes[k]
            process.stats.thrash_events += b - a
            if obs is not None:
                obs.inc("thrash.events", b - a)
                events.append((
                    k,
                    "thrash.detect",
                    now,
                    dict(
                        pid=process.pid,
                        n_pages=b - a,
                        vpns=faults.vpns[rows[hit[a:b]]],
                    ),
                ))
        # Each round trip is counted once.
        table.demoted[pages[hit]] = False

    def _observe_huge(self, faults, rows, pages, cits) -> np.ndarray:
        """Huge-page mode: filter at 2 MB group granularity with the
        scaled threshold -- each group keyed by its first page and
        measured by its smallest CIT -- and return the ready groups'
        slow-tier pages."""
        table = faults.table
        hp = self.hp_pages
        leaders = pages - faults.vpns[rows] % hp
        order = np.argsort(cits)
        groups, first_idx = np.unique(leaders[order], return_index=True)
        group_cits = cits[order][first_idx]  # min CIT per group
        threshold = scaled_threshold_ns(self.cit_threshold_ns, hp)
        ready = self.filter.observe(
            table, groups, group_cits, max(int(threshold), 1)
        ).ready
        if not ready.size:
            return ready
        # Every ready group's pages, clipped to its process's end.
        ends = table.starts[
            np.searchsorted(table.starts, ready, side="right")
        ]
        base = ready[:, None] + np.arange(hp)
        base = base[base < ends[:, None]]
        return base[table.tier[base] == SLOW_TIER]

    def _submit(self, faults, ready: np.ndarray, events) -> None:
        """Enqueue promotion-ready pages (global page indices, grouped by
        process in segment order); thrash accounting happens at
        candidate entry in :meth:`_detect_thrash`."""
        if not ready.size:
            return
        kernel = self._require_kernel()
        depth = len(self.queue)
        added = self.queue.enqueue(faults.processes, ready)
        kernel.stats.promotion_enqueued += int(added.size)
        obs = kernel.obs
        if obs is None:
            return
        table = faults.table
        bounds, segs = runs(
            np.searchsorted(table.starts, ready, side="right") - 1
        )
        added_segs = np.searchsorted(table.starts, added, side="right") - 1
        n_added = np.diff(
            np.append(np.searchsorted(added_segs, segs), added.size)
        )
        # Each segment's process: the listed one whose first fault is in it.
        listed = np.searchsorted(
            table.starts, faults.index[faults.bounds[:-1]], side="right"
        ) - 1
        positions = np.searchsorted(listed, segs).tolist()
        now = kernel.clock.now
        for r, (k, n_new) in enumerate(zip(positions, n_added.tolist())):
            a, b = int(bounds[r]), int(bounds[r + 1])
            depth += n_new
            obs.inc("promotion.submitted", b - a)
            obs.inc("promotion.enqueued", n_new)
            events.append((
                k,
                "promotion.decision",
                now,
                dict(
                    pid=faults.processes[k].pid,
                    n_submitted=b - a,
                    n_enqueued=n_new,
                    queue_depth=depth,
                    vpns=ready[a:b] - table.starts[segs[r]],
                ),
            ))
        obs.set_gauge("promotion.queue_depth", len(self.queue))


def make_chrono_variant(variant: str, **overrides) -> ChronoPolicy:
    """Build a Figure 13 ablation variant of Chrono."""
    presets = {
        "basic": dict(n_filter_rounds=1, tuning="semi"),
        "twice": dict(n_filter_rounds=2, tuning="semi"),
        "thrice": dict(n_filter_rounds=3, tuning="semi"),
        "full": dict(n_filter_rounds=2, tuning="dcsc"),
        "manual": dict(n_filter_rounds=2, tuning="semi"),
    }
    if variant not in presets:
        raise KeyError(
            f"unknown Chrono variant {variant!r}; "
            f"known: {', '.join(sorted(presets))}"
        )
    kwargs = dict(presets[variant])
    kwargs.update(overrides)
    policy = ChronoPolicy(**kwargs)
    policy.name = f"chrono-{variant}"
    return policy
