"""Per-process page metadata as a structure of arrays.

This is the simulator's ``struct page`` + PTE state.  One instance describes
every resident page of a process.  All fields are numpy arrays indexed by
virtual page number (vpn), which lets the kernel subsystems and policies
operate on whole address ranges with vectorised expressions -- the same way
the real kernel batches PTE updates within a scan window.

Fields and their kernel analogues:

=================  ====================================================
``tier``           node id in ``struct page`` (0 = fast, 1 = slow)
``prot_none``      PTE has ``PROT_NONE`` set by a NUMA/Ticking scan
``scan_ts_ns``     Chrono's 4-byte CIT metadata: time of last unmap
``accessed``       PTE accessed bit (hardware-set, software-cleared)
``dirty``          PTE dirty bit
``probed``         Chrono's ``PG_probed`` flag (DCSC victim pages)
``demoted``        Chrono's ``demoted`` flag (thrashing monitor)
``candidate``      page sits in the XArray candidate set
``candidate_cit``  first-round CIT recorded for a candidate
``lru_active``     page is on the active (vs inactive) LRU list
``lru_gen``        generation of last observed access (LRU ordering)
=================  ====================================================

Ground-truth access accounting is *deferred*: the engine records one
``(probs, n_accesses)`` ledger entry per quantum (O(1); consecutive quanta
sharing the same distribution array merge into a single entry), and the
O(pages) materialisation into ``access_count`` / ``last_window_count``
only happens when a consumer actually reads the counters.  Both counters
are properties that flush the pending ledger on access, so every consumer
-- LRU aging, trace recording, figure code, tests -- sees exact values
without knowing about the deferral.

``move_to_tier`` additionally journals each placement change (moved vpns
plus their previous tiers) so the engine can maintain its per-tier
probability masses incrementally -- O(moved) per migration instead of a
full O(pages) recount.

The fault path's four arrays (``tier``, ``prot_none``, ``scan_ts_ns``,
``accessed``) may live in caller-owned storage: the arena re-homes them
(:meth:`PageState.rehome`) into slices of its fleet arrays, so it
resolves a whole quantum's hint faults in one pass.  Every method here
writes through whichever arrays the fields hold.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.mem.tier import FAST_TIER, SLOW_TIER

NO_TIMESTAMP: int = -1


def ledger_fold(
    probs: np.ndarray,
    n_accesses: float,
    access: np.ndarray,
    window: np.ndarray,
    buf: np.ndarray,
) -> None:
    """Fold one ``(probs, n)`` ledger run into both counters in place:
    one multiply into the scratch ``buf``, then two axpys."""
    np.multiply(probs, n_accesses, out=buf)
    access += buf
    window += buf


def _sorted_unique(vpns: np.ndarray) -> np.ndarray:
    """``vpns`` sorted and duplicate-free.

    The protection and migration paths almost always receive already
    sorted, duplicate-free arrays (``flatnonzero`` output, scan windows),
    so a strict-monotonicity check avoids ``np.unique``'s sort on the
    hot path.
    """
    if vpns.size < 2:
        return vpns
    if bool((vpns[1:] > vpns[:-1]).all()):
        return vpns
    return np.unique(vpns)


class _ProtectLog:
    """vpn arrays whose protection flipped since the last drain, and how
    many vpns they name (the bound is checked against it)."""

    __slots__ = ("parts", "pages")

    def __init__(self) -> None:
        self.parts: List[np.ndarray] = []
        self.pages = 0


class PageState:
    """Structure-of-arrays page metadata for one process."""

    #: moved pages retained in the placement journal before the oldest
    #: entries are dropped (consumers then fall back to a full recount)
    MOVE_LOG_CAP_PAGES: int = 65_536
    #: journal entries retained regardless of size (empty moves -- epoch
    #: bumps without pages -- must not grow the journal unboundedly)
    MOVE_LOG_CAP_ENTRIES: int = 4_096

    def __init__(self, n_pages: int) -> None:
        # Zero pages is legal (an empty arena segment: the process exists
        # but generates no memory traffic); only negative sizes are
        # nonsense.
        if n_pages < 0:
            raise ValueError("page count cannot be negative")
        self.n_pages = int(n_pages)
        self.tier = np.full(n_pages, SLOW_TIER, dtype=np.int8)
        self.prot_none = np.zeros(n_pages, dtype=bool)
        self.scan_ts_ns = np.full(n_pages, NO_TIMESTAMP, dtype=np.int64)
        self.accessed = np.zeros(n_pages, dtype=bool)
        self.dirty = np.zeros(n_pages, dtype=bool)
        self.probed = np.zeros(n_pages, dtype=bool)
        self.demoted = np.zeros(n_pages, dtype=bool)
        self.demote_ts_ns = np.full(n_pages, NO_TIMESTAMP, dtype=np.int64)
        self.candidate = np.zeros(n_pages, dtype=bool)
        self.candidate_cit_ns = np.full(n_pages, NO_TIMESTAMP, dtype=np.int64)
        self.lru_active = np.zeros(n_pages, dtype=bool)
        self.lru_gen = np.zeros(n_pages, dtype=np.int64)
        # Exact ground-truth access accounting (the simulator's PMU),
        # materialised lazily from the pending ledger below.
        self._access_count = np.zeros(n_pages, dtype=np.float64)
        self._last_window_count = np.zeros(n_pages, dtype=np.float64)
        #: pending ``[probs, n_accesses]`` ledger runs awaiting
        #: materialisation; consecutive entries with the same (immutable)
        #: distribution array merge into one run
        self._pending: List[List[Any]] = []
        self._flush_buf: Optional[np.ndarray] = None
        #: optional external ledger feeder (the cross-process arena keeps
        #: one concatenated run list for the whole fleet): invoked at the
        #: top of every flush to drain this process's share of any arena
        #: runs into ``_pending`` first, so consumers stay exact without
        #: knowing the arena exists.  The second callable reports whether
        #: the source still holds undrained accesses for this process.
        self._ledger_source: Optional[Callable[[], None]] = None
        self._ledger_source_pending: Optional[Callable[[], bool]] = None
        #: placement generation: bumped on every ``move_to_tier`` so the
        #: engine can reuse per-quantum placement-derived caches (tier
        #: masses) across quanta without migrations
        self.epoch: int = 0
        #: number of currently PROT_NONE pages, maintained by the
        #: protect/unprotect paths so the engine's hot loop can skip the
        #: hint-fault machinery without an O(pages) scan
        self.n_protected: int = 0
        #: protection generation (the fusion dirty-flag): bumped whenever
        #: the protected set actually changes (protect/unprotect paths),
        #: so the engine can detect "protection state unchanged since the
        #: last quantum" with one integer compare.  Together with
        #: ``epoch`` it witnesses the steady state quantum fusion needs.
        self.protect_epoch: int = 0
        #: sorted vpns of currently protected pages, materialised lazily
        #: by :meth:`protected_pages` (``None`` = stale since the last
        #: change).  Never mutated in place, so a returned snapshot stays
        #: valid across later updates.
        self._protected_vpns: Optional[np.ndarray] = np.empty(
            0, dtype=np.int64
        )
        #: protection-change log for an attached fault plan (the
        #: arena's): arrays of vpns whose protection bit
        #: flipped through :meth:`protect`, :meth:`protect_at` or
        #: :meth:`unprotect` since the last :meth:`take_protect_log`.
        #: ``None`` while no plan is attached.  Bounded: once it would
        #: name more than ``n_pages`` vpns it is dropped and the next
        #: take reports an overflow (a resync from ``prot_none`` is then
        #: cheaper than replaying it).
        self._protect_log: Optional[_ProtectLog] = None
        #: optional write-through witness cells (the cross-process
        #: arena's dirty-detection vectors): this process's column of a
        #: ``(4, n_segs)`` int64 matrix, mirroring ``epoch``,
        #: ``protect_epoch`` and ``n_protected`` (the fourth cell flags
        #: the column as attached).  Every mutation site
        #: writes its new value through, so the arena detects stale
        #: segments with one vectorised compare instead of an O(fleet)
        #: Python attribute walk per quantum.  (Keep the attribute count
        #: below 30: CPython 3.11 stops sharing instance-dict keys at 30,
        #: which costs ~1.3 KiB per page state -- 1.3 MiB per 1,024
        #: tenants.)
        self._witness_cells: Optional[np.ndarray] = None
        #: placement journal: ``(epoch, vpns, old_tiers, new_tier)`` per
        #: ``move_to_tier`` call, oldest first
        self._move_log: Deque[Tuple[int, np.ndarray, np.ndarray, int]] = (
            deque()
        )
        self._move_log_pages = 0
        #: epoch of the journal's start state: entries cover the range
        #: ``(move_log_base, epoch]``
        self.move_log_base: int = 0

    # ------------------------------------------------------------------
    # Deferred ground-truth accounting
    # ------------------------------------------------------------------
    def defer_accesses(self, probs: np.ndarray, n_accesses: float) -> None:
        """Record ``n_accesses`` drawn from ``probs`` for later
        materialisation.

        O(1): the ledger stores the distribution by reference (the
        :mod:`repro.workloads.base` contract makes distribution arrays
        immutable), and consecutive quanta that reuse the same array
        object merge into a single ``[probs, n]`` run, preserving the
        chronological run structure for phase-changing workloads.
        """
        pending = self._pending
        if pending and pending[-1][0] is probs:
            pending[-1][1] += n_accesses
        else:
            pending.append([probs, float(n_accesses)])

    def set_witness_cells(
        self, cells: Optional[np.ndarray], index: int = 0
    ) -> None:
        """Attach (or detach, with ``None``) arena witness cells.

        ``cells`` is a ``(4, n_segs)`` int64 array; column ``index``
        mirrors ``(epoch, protect_epoch, n_protected)`` from here on
        (the current values are written immediately), and its last cell
        reads 1 while this page state stays attached to it: attaching it
        elsewhere, or detaching it, clears the old column's flag, so the
        arena that owned the column can tell it lost the segment.  The
        mirror is complete by construction: ``epoch`` only changes in
        :meth:`move_to_tier` and ``protect_epoch`` / ``n_protected``
        only change in the protect/unprotect paths, all of which write
        through.
        """
        old = self._witness_cells
        if old is not None:
            old[3] = 0
        if cells is None:
            self._witness_cells = None
            return
        column = self._witness_cells = cells[:, index]
        column[0] = self.epoch
        column[1] = self.protect_epoch
        column[2] = self.n_protected
        column[3] = 1

    def rehome(
        self,
        tier: np.ndarray,
        prot_none: np.ndarray,
        scan_ts_ns: np.ndarray,
        accessed: np.ndarray,
    ) -> None:
        """Move the fault path's four arrays into caller-owned storage.

        Each argument is an ``n_pages`` array of the field's dtype (the
        arena passes slices of its fleet arrays).  The current values
        are copied in and the fields rebound to the given arrays, so
        every later write through this page state lands in the caller's
        storage and every write there shows here; the previous arrays
        are released.
        """
        for name, home in (
            ("tier", tier),
            ("prot_none", prot_none),
            ("scan_ts_ns", scan_ts_ns),
            ("accessed", accessed),
        ):
            home[...] = getattr(self, name)
            setattr(self, name, home)

    def _sync_protect_witness(self) -> None:
        """Write the protection state through to the witness cells."""
        column = self._witness_cells
        if column is not None:
            column[1] = self.protect_epoch
            column[2] = self.n_protected

    def set_ledger_source(
        self,
        drain: Optional[Callable[[], None]],
        has_pending: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Attach (or detach, with ``None``) an external ledger feeder.

        Used by the cross-process arena: its concatenated run list is
        drained into this process's ``_pending`` ledger lazily, the first
        time a consumer reads the counters.
        """
        self._ledger_source = drain
        self._ledger_source_pending = has_pending

    @property
    def has_pending_accesses(self) -> bool:
        """True when ledger entries await materialisation."""
        if self._pending:
            return True
        pending = self._ledger_source_pending
        return pending is not None and pending()

    def flush_accounting(self) -> None:
        """Materialise the pending ledger into both counters.

        Each run costs one O(pages) multiply plus two axpys -- the exact
        operation sequence the eager pre-deferral engine performed per
        quantum -- so a flush after ``k`` same-distribution quanta does
        the work once instead of ``k`` times.
        """
        source = self._ledger_source
        if source is not None:
            source()
        if not self._pending:
            return
        buf = self._flush_buf
        if buf is None:
            buf = self._flush_buf = np.empty(
                self.n_pages, dtype=np.float64
            )
        for probs, n_accesses in self._pending:
            ledger_fold(
                probs,
                n_accesses,
                self._access_count,
                self._last_window_count,
                buf,
            )
        self._pending.clear()

    @property
    def access_count(self) -> np.ndarray:
        """Lifetime ground-truth access counts (flushes the ledger)."""
        if self._pending or self._ledger_source is not None:
            self.flush_accounting()
        return self._access_count

    @access_count.setter
    def access_count(self, value: np.ndarray) -> None:
        self._access_count = value

    @property
    def last_window_count(self) -> np.ndarray:
        """Per-window ground-truth access counts (flushes the ledger)."""
        if self._pending or self._ledger_source is not None:
            self.flush_accounting()
        return self._last_window_count

    @last_window_count.setter
    def last_window_count(self, value: np.ndarray) -> None:
        self._last_window_count = value

    def clear_window_counts(
        self, vpns: Optional[np.ndarray] = None
    ) -> None:
        """Roll the per-window ground-truth access counters.

        Pending accesses are flushed first -- they belong to the closing
        window (and to the lifetime counter).  ``vpns`` restricts the
        reset to a sparse index set; callers passing it guarantee the set
        covers every nonzero entry (the sparse-aging candidate set does
        by construction).
        """
        self.flush_accounting()
        if vpns is None:
            self._last_window_count[:] = 0.0
        else:
            self._last_window_count[vpns] = 0.0

    # ------------------------------------------------------------------
    # Residency queries
    # ------------------------------------------------------------------
    def pages_in_tier(self, tier_id: int) -> np.ndarray:
        """vpns of pages resident in ``tier_id``."""
        return np.flatnonzero(self.tier == tier_id)

    def count_in_tier(self, tier_id: int) -> int:
        """Number of pages resident in ``tier_id``."""
        return int(np.count_nonzero(self.tier == tier_id))

    def fast_page_fraction(self) -> float:
        """The paper's "DRAM page percentage" for this process."""
        if self.n_pages == 0:
            return 0.0
        return self.count_in_tier(FAST_TIER) / self.n_pages

    # ------------------------------------------------------------------
    # PTE protection (scan / fault paths)
    # ------------------------------------------------------------------
    def _protection_changed(self, vpns: np.ndarray) -> None:
        """Record a change of the protected set: the sorted snapshot goes
        stale and an attached plan's log names the flipped vpns."""
        self._protected_vpns = None
        log = self._protect_log
        if log is None:
            return
        log.pages += int(vpns.size)
        if log.pages > self.n_pages:
            log.parts.clear()  # overflowed: the next take asks for a resync
        else:
            log.parts.append(vpns)

    def set_protect_log(self, enabled: bool) -> None:
        """Attach (``True``) or detach (``False``) the protection-change
        log; attaching starts from an empty log."""
        self._protect_log = _ProtectLog() if enabled else None

    def take_protect_log(self) -> Optional[List[np.ndarray]]:
        """Drain the protection-change log.

        Returns the logged vpn arrays, oldest first (a vpn may repeat;
        its current ``prot_none`` bit is the outcome), or ``None`` when
        the log overflowed or is detached: the caller must then resync
        from ``prot_none``.
        """
        log = self._protect_log
        if log is None:
            return None
        self._protect_log = _ProtectLog()
        return None if log.pages > self.n_pages else log.parts

    def protect(self, vpns: np.ndarray, now_ns: int) -> int:
        """Mark pages PROT_NONE and stamp the scan time; return count.

        Already-protected pages keep their original scan timestamp, the way
        the kernel skips PTEs that are already ``pte_protnone``.  Duplicate
        vpns count once.
        """
        vpns = np.asarray(vpns)
        fresh = _sorted_unique(vpns[~self.prot_none[vpns]]).astype(
            np.int64, copy=False
        )
        self.prot_none[fresh] = True
        self.scan_ts_ns[fresh] = now_ns
        self.n_protected += int(fresh.size)
        if fresh.size:
            self.protect_epoch += 1
            self._sync_protect_witness()
            self._protection_changed(fresh)
        return int(fresh.size)

    def protect_at(self, vpns: np.ndarray, ts_ns: np.ndarray) -> None:
        """Mark pages PROT_NONE with per-page scan timestamps.

        Used by DCSC's second measurement round (re-protection happens at
        each page's own fault time) and by the thrashing monitor (the
        demotion time substitutes for the scan time).  Unlike
        :meth:`protect`, existing protection timestamps are overwritten.
        Duplicate vpns count once toward ``n_protected``; the last
        duplicate's timestamp wins, as with fancy assignment.
        """
        vpns = np.asarray(vpns)
        ts_ns = np.broadcast_to(
            np.asarray(ts_ns, dtype=np.int64), vpns.shape
        )
        if vpns.size < 2 or bool((vpns[1:] > vpns[:-1]).all()):
            unique = vpns.astype(np.int64, copy=False)
            unique_ts = ts_ns
        else:
            unique, inverse = np.unique(vpns, return_inverse=True)
            unique = unique.astype(np.int64, copy=False)
            unique_ts = np.empty(unique.shape, dtype=np.int64)
            # later duplicates overwrite earlier, as fancy assignment does
            unique_ts[inverse] = ts_ns
        fresh = unique[~self.prot_none[unique]]
        self.n_protected += int(fresh.size)
        self.prot_none[unique] = True
        self.scan_ts_ns[unique] = unique_ts
        if unique.size:
            # timestamps changed even when the set did not -- still a
            # protection-state mutation for the fusion dirty-flag
            self.protect_epoch += 1
            self._sync_protect_witness()
        if fresh.size:
            self._protection_changed(fresh)

    def unprotect(self, vpns: np.ndarray) -> None:
        """Clear PROT_NONE after a fault restored the mapping."""
        vpns = np.asarray(vpns)
        unique = _sorted_unique(vpns).astype(np.int64, copy=False)
        gone = unique[self.prot_none[unique]]
        self.n_protected -= int(gone.size)
        if gone.size:
            self.protect_epoch += 1
            self._sync_protect_witness()
            self._protection_changed(gone)
        self.prot_none[unique] = False

    def unprotect_resolved(
        self, vpns: np.ndarray, remainder: Optional[np.ndarray] = None
    ) -> None:
        """Unprotect faulted ``vpns`` whose bookkeeping the caller owns.

        ``vpns`` must be sorted, unique and all currently protected, so
        the membership search of :meth:`unprotect` is skipped, and the
        change is not logged: the reference engine's fault resolve
        passes ``remainder``, the untouched slice of its
        :meth:`protected_pages` snapshot, which becomes the new
        snapshot.
        """
        self.prot_none[vpns] = False
        self.note_resolved(int(vpns.size), remainder)

    def note_resolved(
        self, n: int, remainder: Optional[np.ndarray] = None
    ) -> None:
        """Book ``n`` faulted pages whose ``prot_none`` bits the caller
        already cleared (the arena's fault plan clears every segment's
        in one pass over its fleet array, and tombstones its own slots
        instead of reading the log): the count, the protect epoch and
        the witness cells move, the change is not logged, and
        ``remainder`` becomes the protected-page snapshot (``None``:
        stale)."""
        self.n_protected -= n
        if n:
            self.protect_epoch += 1
            self._sync_protect_witness()
        self._protected_vpns = remainder

    def protected_pages(self) -> np.ndarray:
        """vpns of all currently protected pages, ascending.

        Lazy: the snapshot is materialised from ``prot_none`` on the
        first read after a change and served as is until the next one,
        so runs stepped through the arena's fault plan -- which never
        reads it -- pay nothing for it.  Only the reference engine reads
        it, and its fault resolve installs the untouched remainder
        directly.  The
        returned array is never mutated in place -- callers may hold it
        across updates; they must not write into it.
        """
        vpns = self._protected_vpns
        if vpns is None:
            vpns = self._protected_vpns = np.flatnonzero(self.prot_none)
        return vpns

    # ------------------------------------------------------------------
    # Residency updates (migration path)
    # ------------------------------------------------------------------
    def move_to_tier(self, vpns: np.ndarray, tier_id: int) -> None:
        """Retarget pages to a new tier (frame accounting is the kernel's
        job; this only updates the per-page node id).

        Bumps ``epoch`` exactly once per call and journals the move
        (deduplicated vpns plus their previous tiers) so placement-derived
        caches can apply an O(moved) delta instead of recomputing from
        the full tier array.
        """
        vpns = _sorted_unique(np.asarray(vpns, dtype=np.int64))
        old_tiers = self.tier[vpns]  # fancy indexing copies
        self.tier[vpns] = np.int8(tier_id)
        self.epoch += 1
        column = self._witness_cells
        if column is not None:
            column[0] = self.epoch
        log = self._move_log
        log.append((self.epoch, vpns, old_tiers, int(tier_id)))
        self._move_log_pages += int(vpns.size)
        while log and (
            self._move_log_pages > self.MOVE_LOG_CAP_PAGES
            or len(log) > self.MOVE_LOG_CAP_ENTRIES
        ):
            dropped_epoch, dropped_vpns, _, _ = log.popleft()
            self._move_log_pages -= int(dropped_vpns.size)
            self.move_log_base = dropped_epoch

    def place_prefix(self, n_fast: int) -> None:
        """Initial placement: pages ``[0, n_fast)`` on the fast tier and
        the rest on the slow tier, as two slice writes.

        Bumps ``epoch`` once and restarts the placement journal at the
        new epoch instead of journalling every page, so a cache taken
        before the placement recounts (:meth:`moves_since` reports
        ``None``) rather than replaying a page-by-page delta.
        """
        self.tier[:n_fast] = FAST_TIER
        self.tier[n_fast:] = SLOW_TIER
        self.epoch += 1
        column = self._witness_cells
        if column is not None:
            column[0] = self.epoch
        self._move_log.clear()
        self._move_log_pages = 0
        self.move_log_base = self.epoch

    def moves_since(
        self, epoch: int
    ) -> Optional[List[Tuple[int, np.ndarray, np.ndarray, int]]]:
        """Journal entries covering ``(epoch, self.epoch]``, oldest first.

        Returns ``None`` when the journal no longer reaches back to
        ``epoch`` (entries were dropped past the retention cap); callers
        must then fall back to a full recount.
        """
        if epoch < self.move_log_base:
            return None
        entries: List[Tuple[int, np.ndarray, np.ndarray, int]] = []
        for entry in reversed(self._move_log):
            if entry[0] <= epoch:
                break
            entries.append(entry)
        entries.reverse()
        return entries

    def __repr__(self) -> str:
        return (
            f"PageState(n_pages={self.n_pages}, "
            f"fast={self.count_in_tier(FAST_TIER)}, "
            f"protected={int(self.prot_none.sum())})"
        )
