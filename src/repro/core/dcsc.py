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

DCSC's per-page state sits in the page table
(:class:`~repro.vm.page_state.PageTable`), as the paper's ``PG_probed``
flag sits in ``struct page``: ``probed`` holds a victim's measurement
round, ``probe_ts_ns`` its probe time and ``probe_cit_ns`` its round-one
CIT.  The collector keeps only the *probe log*, every probe's page and
time in time order, so the probes that expire at a tick are a prefix of
it.  A probe pass (:meth:`DcscCollector.probe`) and a fault pass
(:meth:`DcscCollector.on_probed_fault`) each handle a whole fleet on one
table; they add each process's heat-map counts in process order, so the
maps hold the sums a process-by-process loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cit import CIT_BUCKETS, bucket_upper_bound_ns, cit_bucket
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.timeunits import SECOND
from repro.vm.page_state import PageTable, runs
from repro.vm.process import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.fault import FleetFaults

#: heat-map rows: one per tier
N_TIERS: int = max(FAST_TIER, SLOW_TIER) + 1


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


def add_in_order(heat_map: np.ndarray, rows: np.ndarray) -> None:
    """Add ``rows`` to ``heat_map`` in place, one row after another:
    the sequential sums a process-by-process loop makes (a cumulative
    sum adds its rows in order; summing them first would not)."""
    heat_map[...] = np.cumsum(
        np.concatenate([heat_map[None], rows]), axis=0
    )[-1]


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
        #: the probe log: the probed pages (global indices into
        #: ``_log_table``) and their probe times, oldest first, in
        #: ``[_log_head, _log_tail)``.  A page probed again after its
        #: earlier probe ended appears twice; only the entry stamped
        #: with its ``probe_ts_ns`` is live.
        self._log_pages = np.empty(0, dtype=np.int64)
        self._log_ts = np.empty(0, dtype=np.int64)
        self._log_head = self._log_tail = 0
        self._log_table: Optional[PageTable] = None
        self.probes_issued = 0
        self.samples_recorded = 0.0

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe_process(self, process: SimProcess, now_ns: int) -> int:
        """Select and protect a fresh random victim set; returns count."""
        return int(self.probe([process], now_ns)[0])

    def probe(
        self, processes: Sequence[SimProcess], now_ns: int
    ) -> np.ndarray:
        """One probe pass over ``processes`` (segments of one page
        table, in segment order); returns each one's probe count.

        First the probes of these processes that outlived the timeout
        expire (:meth:`_expire_stale`).  Then each process draws a
        victim set -- one ``rng.choice`` per process, in the given
        order -- and its victims not probed already are marked, stamped
        and protected, all in one pass over the table.
        """
        counts = np.zeros(len(processes), dtype=np.int64)
        if not processes:
            return counts
        table = processes[0].pages.table
        segs = np.fromiter(
            (p.pages.seg for p in processes), np.int64, len(processes)
        )
        self._expire_stale(table, segs, now_ns)
        config = self.config
        choice = self._rng.choice
        drawn = []
        for process in processes:
            n_pages = process.n_pages
            k = max(
                config.min_victims_per_process,
                int(round(config.victim_fraction * n_pages)),
            )
            drawn.append(choice(n_pages, size=min(k, n_pages), replace=False))
        sizes = np.fromiter((d.size for d in drawn), np.int64, len(drawn))
        victims = np.concatenate(drawn).astype(np.int64, copy=False)
        victims += np.repeat(table.starts[segs], sizes)
        fresh = table.probed[victims] == 0
        victims = victims[fresh]
        if not victims.size:
            return counts
        owner = np.repeat(np.arange(len(processes)), sizes)
        counts += np.bincount(owner[fresh], minlength=len(processes))
        # Probe order carries no meaning; sorted victims let the
        # protection path take its monotonic fast paths.
        victims.sort()
        table.probed[victims] = 1
        table.probe_ts_ns[victims] = now_ns
        table.protect_at(victims, now_ns)
        self._log_append(table, victims, now_ns)
        self.probes_issued += int(victims.size)
        if self.obs is not None:
            for process, n in zip(processes, counts.tolist()):
                if n:
                    self.obs.inc("dcsc.probes", n)
                    self.obs.emit(
                        "dcsc.probe", now_ns, pid=process.pid, n_probed=n
                    )
        return counts

    def decay_maps(self) -> None:
        """Age the heat maps so recent windows dominate."""
        for heat_map in self.heat_maps.values():
            heat_map *= self.config.decay

    def _log_append(
        self, table: PageTable, pages: np.ndarray, now_ns: int
    ) -> None:
        self._use_table(table)
        head, tail, n = self._log_head, self._log_tail, pages.size
        if tail + n > self._log_pages.size:
            size = max(2 * (tail - head + n), 64)
            for name in ("_log_pages", "_log_ts"):
                grown = np.empty(size, dtype=np.int64)
                grown[: tail - head] = getattr(self, name)[head:tail]
                setattr(self, name, grown)
            self._log_head, tail = 0, tail - head
        self._log_pages[tail : tail + n] = pages
        self._log_ts[tail : tail + n] = now_ns
        self._log_tail = tail + n

    def _use_table(self, table: PageTable) -> None:
        """Index ``table`` from now on: logged probes of the table it
        replaced move to their pages' global indices in ``table``."""
        old = self._log_table
        self._log_table = table
        if old is None or old is table:
            return
        logged = self._log_pages[self._log_head : self._log_tail]
        logged[:] = table.rebased(old, logged)

    def _expire_stale(
        self, table: PageTable, segs: np.ndarray, now_ns: int
    ) -> None:
        """Probes of segments ``segs`` that never faulted are maximally
        cold.

        They are the live entries of the probe log's expired prefix
        (probed longer than the timeout ago) that fall in ``segs``; the
        prefix's entries of other segments stay logged, and its dead
        ones go.  Each expiring probe counts into its tier's coldest
        bucket, segment by segment in order.
        """
        self._use_table(table)
        head, tail = self._log_head, self._log_tail
        ts = self._log_ts[head:tail]
        end = int(
            np.searchsorted(
                ts, now_ns - self.config.probe_timeout_ns, side="left"
            )
        )
        if not end:
            return
        pages = self._log_pages[head : head + end]
        ts = ts[:end]
        live = (table.probed[pages] != 0) & (table.probe_ts_ns[pages] == ts)
        seg = np.searchsorted(table.starts, pages, side="right") - 1
        listed = np.zeros(table.n_segs, dtype=bool)
        listed[segs] = True
        mine = listed[seg]
        stale = pages[live & mine]
        # Entries of other segments stay at the log's head, in order.
        others = live & ~mine
        n_kept = int(np.count_nonzero(others))
        self._log_pages[head + end - n_kept : head + end] = pages[others]
        self._log_ts[head + end - n_kept : head + end] = ts[others]
        self._log_head = head + end - n_kept
        if not stale.size:
            return
        stale.sort()
        bounds, _ = table.segments_of(stale)
        rank = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
        rows = np.bincount(
            rank * N_TIERS + table.tier[stale],
            minlength=(bounds.size - 1) * N_TIERS,
        ).astype(np.float64).reshape(-1, N_TIERS)
        for tier in (FAST_TIER, SLOW_TIER):
            add_in_order(self.heat_maps[tier][-1:], rows[:, tier, None])
        self.samples_recorded += float(stale.size)
        table.probed[stale] = 0
        table.unprotect(stale)
        if self.obs is not None:
            self.obs.inc("dcsc.expired", int(stale.size))

    # ------------------------------------------------------------------
    # Fault-side collection
    # ------------------------------------------------------------------
    def on_probed_fault(
        self,
        faults: "FleetFaults",
        rows: np.ndarray,
        quantum_ns: int,
        events: Optional[List[tuple]] = None,
    ) -> None:
        """Handle the faults ``rows`` of ``faults``, every one on a
        PG_probed page (both measurement rounds), for the whole fleet.

        ``quantum_ns`` is the stepping engine's quantum: round two's
        protection is stamped at the first quantum boundary after the
        fault.  The engine resolves at most one fault per page per
        quantum, so stamping mid-quantum would inflate every round-two
        CIT by up to a quantum of dead time; the simulated arrival
        process is memoryless, so restarting the measurement at the
        boundary draws from the same inter-access distribution.

        Each faulting process's round-two samples are added to the heat
        maps in process order.  Its ``cit.sample`` event goes to the
        hub, or, when ``events`` is a list, is appended to it as
        ``(process position, type, time, fields)`` for the caller to
        emit in its own order.
        """
        table = faults.table
        rows = np.asarray(rows, dtype=np.int64)
        pages = faults.index[rows]
        cit_ns = faults.cit_ns[rows]
        fault_ts_ns = faults.fault_ts_ns[rows]

        # Evaluate both round memberships before mutating, or a page
        # advanced to round two by this batch would also be *recorded* by
        # this batch.
        rounds = table.probed[pages]
        in_round1 = rounds == 1
        in_round2 = rounds == 2
        round1 = pages[in_round1]
        if round1.size:
            table.probe_cit_ns[round1] = cit_ns[in_round1]
            table.probed[round1] = 2
            # Second measurement round starts at the next engine
            # boundary after the fault.
            q = quantum_ns
            restart_ts = (fault_ts_ns[in_round1] // q + 1) * q
            table.protect_at(round1, restart_ts)

        round2 = pages[in_round2]
        if not round2.size:
            return
        max_cit = np.maximum(table.probe_cit_ns[round2], cit_ns[in_round2])
        buckets = cit_bucket(
            max_cit, self.config.n_buckets, self.config.cit_unit_ns
        )
        tiers = table.tier[round2]
        # One (process, tier, bucket) count table, then each process's
        # row added in process order.
        bounds, procs = runs(faults.positions(rows[in_round2]))
        rank = np.repeat(np.arange(procs.size), np.diff(bounds))
        counts = dcsc_fold(
            rank * N_TIERS + tiers,
            buckets,
            procs.size * N_TIERS,
            self.config.n_buckets,
        ).reshape(procs.size, N_TIERS, self.config.n_buckets)
        for tier in (FAST_TIER, SLOW_TIER):
            add_in_order(self.heat_maps[tier], counts[:, tier])
        self.samples_recorded += float(round2.size)
        table.probed[round2] = 0
        obs = self.obs
        if obs is None:
            return
        ts2 = fault_ts_ns[in_round2]
        vpns2 = faults.vpns[rows[in_round2]]
        for r, k in enumerate(procs.tolist()):
            a, b = int(bounds[r]), int(bounds[r + 1])
            obs.inc("dcsc.samples", b - a)
            event = (
                "cit.sample",
                int(ts2[a:b].max()),
                dict(
                    pid=faults.processes[k].pid,
                    vpns=vpns2[a:b],
                    cit_ns=max_cit[a:b],
                    tiers=tiers[a:b],
                ),
            )
            if events is None:
                obs.emit(event[0], event[1], **event[2])
            else:
                events.append((k,) + event)

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
