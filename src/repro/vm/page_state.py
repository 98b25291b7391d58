"""Per-process page metadata as a structure of arrays.

This is the simulator's ``struct page`` + PTE state.  One instance describes
every resident page of a process.  All fields are numpy arrays indexed by
virtual page number (vpn), which lets the kernel subsystems and policies
operate on whole address ranges with vectorised expressions -- the same way
the real kernel batches PTE updates within a scan window.

Fields and their kernel analogues:

====================  =================================================
``tier``              node id in ``struct page`` (0 = fast, 1 = slow)
``prot_none``         PTE has ``PROT_NONE`` set by a NUMA/Ticking scan
``scan_ts_ns``        Chrono's 4-byte CIT metadata: time of last unmap
``accessed``          PTE accessed bit (hardware-set, software-cleared)
``dirty``             PTE dirty bit
``probed``            Chrono's ``PG_probed`` flag (DCSC victim pages):
                      the measurement round the page waits in, 0 when
                      not probed
``probe_ts_ns``       time of the page's latest DCSC probe
``probe_cit_ns``      a round-two probe's round-one CIT
``demoted``           Chrono's ``demoted`` flag (thrashing monitor)
``demote_ts_ns``      time of the page's last demotion
``candidate``         filter rounds passed in the XArray candidate set
                      (0 = not a candidate)
``candidate_cit_ns``  a candidate's largest CIT so far (0 when not one)
``queued``            page waits in Chrono's promotion queue
``lru_active``        page is on the active (vs inactive) LRU list
``lru_gen``           generation of last observed access (LRU ordering)
``lru_misses``        consecutive aging passes that missed the page
====================  =================================================

Like ``struct page`` in the kernel, these arrays are not the process's
own: every field is a slice of a :class:`PageTable`, one structure of
arrays over the pages of many processes, with one *segment* per page
state.  The kernel binds every registered process to its table
(``Kernel.page_table``), so the fault path, LRU aging and reclaim work
on the whole fleet in place while every method here writes through its
own slice.  The per-segment scalars -- placement epoch, protect epoch,
protected-page count and the process's queued kernel time -- are
elements of the table's per-segment vectors.  A page state that is
never registered is bound to a one-segment table of its own the first
time one of its fields is read.  Both levels are lazy: a table
allocates a field's array the first time anyone reads it, and a page
state makes its view of a field on its own first read, so a field a
run never touches costs neither memory nor a view.

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
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mem.tier import FAST_TIER, SLOW_TIER

NO_TIMESTAMP: int = -1

#: a page table's per-page arrays: name, dtype and initial value
PAGE_FIELDS: Tuple[Tuple[str, Any, Any], ...] = (
    ("tier", np.int8, SLOW_TIER),
    ("prot_none", np.bool_, False),
    ("scan_ts_ns", np.int64, NO_TIMESTAMP),
    ("accessed", np.bool_, False),
    ("dirty", np.bool_, False),
    ("probed", np.int8, 0),
    ("probe_ts_ns", np.int64, 0),
    ("probe_cit_ns", np.int64, 0),
    ("demoted", np.bool_, False),
    ("demote_ts_ns", np.int64, NO_TIMESTAMP),
    ("candidate", np.int8, 0),
    ("candidate_cit_ns", np.int64, 0),
    ("queued", np.bool_, False),
    ("lru_active", np.bool_, False),
    ("lru_gen", np.int64, 0),
    ("lru_misses", np.int32, 0),
    ("access_count", np.float64, 0.0),
    ("last_window_count", np.float64, 0.0),
)
_FIELD_SPECS = {name: (dtype, fill) for name, dtype, fill in PAGE_FIELDS}

#: page-state attribute -> table field, per page array: the ledger
#: counters sit behind flushing properties
_VIEWS: Dict[str, str] = {
    ("_" + name if name.endswith("count") else name): name
    for name, _, _ in PAGE_FIELDS
}


def runs(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Runs of equal values in sorted, non-empty ``keys``: ``(bounds,
    values)`` with ``keys[bounds[k]:bounds[k + 1]]`` all ``values[k]``."""
    n = keys.size
    if keys[0] == keys[-1]:
        return np.array([0, n]), keys[:1]
    cuts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    bounds = np.empty(cuts.size + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, n
    bounds[1:-1] = cuts
    return bounds, keys[bounds[:-1]]


class PageTable:
    """The page state of one or more processes as one structure of arrays.

    Segment ``s`` owns pages ``[starts[s], starts[s + 1])`` of every
    per-page array (``PAGE_FIELDS``) and element ``s`` of the
    per-segment vectors: ``epoch`` and ``protect_epoch`` (the two rows
    of ``epochs``), ``n_protected`` and ``debt``, its process's queued
    kernel time.  A per-page array is allocated the first time it is
    read.  Building a table binds each given page state to its segment:
    the state's fields become views of the table's arrays (each made on
    its first read), so a pass over the table reads and writes every
    segment in place.  A state bound before (to a one-segment table of
    its own, or to another table) carries the values of that table's
    allocated arrays over; one never read costs no copy.
    """

    def __init__(self, states: Sequence["PageState"]) -> None:
        self.n_segs = n_segs = len(states)
        #: the page state of each segment
        self.states = list(states)
        self.starts = np.zeros(n_segs + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((s.n_pages for s in states), np.int64, n_segs),
            out=self.starts[1:],
        )
        self.n_pages = int(self.starts[-1])
        self.epochs = np.zeros((2, n_segs), dtype=np.int64)
        self.epoch, self.protect_epoch = self.epochs
        self.n_protected = np.zeros(n_segs, dtype=np.int64)
        self.debt = np.zeros(n_segs, dtype=np.float64)
        bounds = self.starts.tolist()
        for seg, state in enumerate(states):
            state._bind(self, seg, bounds[seg])

    def __getattr__(self, name: str) -> np.ndarray:
        # Reached only for a per-page array not allocated yet.
        spec = _FIELD_SPECS.get(name)
        if spec is None:
            raise AttributeError(name)
        dtype, fill = spec
        array = (
            np.full(self.n_pages, fill, dtype=dtype) if fill
            else np.zeros(self.n_pages, dtype=dtype)
        )
        self.__dict__[name] = array
        return array

    def segments_of(self, index: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Segment runs of ascending global page indices ``index``
        (non-empty, sorted): ``(bounds, segs)`` with
        ``index[bounds[k]:bounds[k + 1]]`` in segment ``segs[k]``."""
        if index.size <= 4 * self.n_segs:
            return runs(np.searchsorted(self.starts, index, side="right") - 1)
        # Few segments for many pages: search the segment starts in the
        # pages instead.
        cuts = np.searchsorted(index, self.starts)
        segs = np.flatnonzero(cuts[1:] > cuts[:-1])
        return np.append(cuts[segs], cuts[segs[-1] + 1]), segs

    def rebased(self, old: "PageTable", index: np.ndarray) -> np.ndarray:
        """Global page indices into ``old`` as indices into this table,
        which binds their page states anew (``old`` is the table it
        replaced for them)."""
        seg = np.searchsorted(old.starts, index, side="right") - 1
        shift = np.zeros(old.n_segs, dtype=np.int64)
        for s in np.unique(seg).tolist():
            state = old.states[s]
            if state.table is not self:
                raise ValueError(
                    f"segment {s}'s page state is not bound to this table"
                )
            shift[s] = self.starts[state.seg] - old.starts[s]
        return index + shift[seg]

    def _log_changes(
        self, index: np.ndarray, bounds: np.ndarray, segs: np.ndarray
    ) -> None:
        """Append each segment's run of ``index`` (global, ascending)
        to its page state's protection-change log."""
        starts = self.starts
        for k, seg in enumerate(segs.tolist()):
            state = self.states[seg]
            if state._protect_log is not None:
                a, b = int(bounds[k]), int(bounds[k + 1])
                state._protection_changed(index[a:b] - starts[seg])

    def protect_at(self, index: np.ndarray, ts_ns: np.ndarray) -> None:
        """Mark pages PROT_NONE with per-page scan timestamps.

        ``index`` holds global page indices, in any order; the
        timestamps broadcast against it.  Existing protection
        timestamps are overwritten; the last duplicate's timestamp
        wins, as with fancy assignment.  Every segment the pages fall
        in counts its newly protected pages into ``n_protected``, bumps
        its protect epoch once (timestamps changed even where the set
        did not -- still a protection-state mutation for the fusion
        dirty-flag) and logs its newly protected vpns.
        """
        index = np.asarray(index)
        ts_ns = np.broadcast_to(np.asarray(ts_ns, dtype=np.int64), index.shape)
        if index.size < 2 or bool((index[1:] > index[:-1]).all()):
            unique = index.astype(np.int64, copy=False)
            unique_ts = ts_ns
        else:
            unique, inverse = np.unique(index, return_inverse=True)
            unique = unique.astype(np.int64, copy=False)
            unique_ts = np.empty(unique.shape, dtype=np.int64)
            # later duplicates overwrite earlier, as fancy assignment does
            unique_ts[inverse] = ts_ns
        if not unique.size:
            return
        fresh = ~self.prot_none[unique]
        self.prot_none[unique] = True
        self.scan_ts_ns[unique] = unique_ts
        bounds, segs = self.segments_of(unique)
        self.protect_epoch[segs] += 1
        self.n_protected[segs] += np.add.reduceat(
            fresh, bounds[:-1], dtype=np.int64
        )
        if fresh.any():
            flipped = unique[fresh]
            self._log_changes(flipped, *self.segments_of(flipped))

    def unprotect(self, index: np.ndarray) -> None:
        """Clear PROT_NONE on pages at global indices ``index``.

        Every segment that loses protected pages counts them out of
        ``n_protected``, bumps its protect epoch once and logs them.
        """
        unique = _sorted_unique(np.asarray(index)).astype(
            np.int64, copy=False
        )
        gone = unique[self.prot_none[unique]]
        self.prot_none[unique] = False
        if gone.size:
            bounds, segs = self.segments_of(gone)
            self.n_protected[segs] -= np.diff(bounds)
            self.protect_epoch[segs] += 1
            self._log_changes(gone, bounds, segs)


class _SegmentCell:
    """A page state's scalar that lives in its table: element ``seg``
    of the table's per-segment vector of the same name."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, state: Any, owner: Optional[type] = None) -> Any:
        if state is None:
            return self
        return getattr(state.table, self.name)[state.seg].item()

    def __set__(self, state: Any, value: int) -> None:
        getattr(state.table, self.name)[state.seg] = value


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
    """Structure-of-arrays page metadata for one process: one segment of
    a :class:`PageTable`."""

    #: moved pages retained in the placement journal before the oldest
    #: entries are dropped (consumers then fall back to a full recount)
    MOVE_LOG_CAP_PAGES: int = 65_536
    #: journal entries retained regardless of size (empty moves -- epoch
    #: bumps without pages -- must not grow the journal unboundedly)
    MOVE_LOG_CAP_ENTRIES: int = 4_096

    #: placement generation: bumped on every ``move_to_tier`` so the
    #: engine can reuse per-quantum placement-derived caches (tier
    #: masses) across quanta without migrations
    epoch = _SegmentCell()
    #: protection generation (the fusion dirty-flag): bumped whenever the
    #: protected set actually changes (protect/unprotect paths), so the
    #: engine can detect "protection state unchanged since the last
    #: quantum" with one integer compare.  Together with ``epoch`` it
    #: witnesses the steady state quantum fusion needs.
    protect_epoch = _SegmentCell()
    #: number of currently PROT_NONE pages, maintained by the
    #: protect/unprotect paths so the engine's hot loop can skip the
    #: hint-fault machinery without an O(pages) scan
    n_protected = _SegmentCell()

    def __init__(self, n_pages: int) -> None:
        # Zero pages is legal (an empty arena segment: the process exists
        # but generates no memory traffic); only negative sizes are
        # nonsense.
        if n_pages < 0:
            raise ValueError("page count cannot be negative")
        self.n_pages = int(n_pages)
        # The page arrays -- including the exact ground-truth access
        # counters (the simulator's PMU), materialised lazily from the
        # pending ledger below -- and the segment cells live in a
        # ``PageTable``, bound on first use (``__getattr__``).
        #: pending ``[probs, n_accesses]`` ledger runs awaiting
        #: materialisation; consecutive entries with the same (immutable)
        #: distribution array merge into one run
        self._pending: List[List[Any]] = []
        self._flush_buf: Optional[np.ndarray] = None
        #: optional external ledger feeder (the cross-process arena keeps
        #: one concatenated run list for the whole fleet), as ``(drain,
        #: has_pending)``: ``drain`` is invoked at the top of every flush
        #: to drain this process's share of any arena runs into
        #: ``_pending`` first, so consumers stay exact without knowing
        #: the arena exists; ``has_pending`` reports whether the source
        #: still holds undrained accesses for this process.
        self._ledger_source: Optional[
            Tuple[Callable[[], None], Optional[Callable[[], bool]]]
        ] = None
        #: ``(protect_epoch, vpns)``: the sorted vpns of the protected
        #: pages as of that protect epoch, materialised lazily by
        #: :meth:`protected_pages` (stale once the epoch moved).  Never
        #: mutated in place, so a returned snapshot stays valid across
        #: later updates.
        self._protected_vpns: Tuple[int, np.ndarray] = (
            0, np.empty(0, dtype=np.int64)
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
        # (Keep the attribute count below 30, every page-array view
        # included: CPython 3.11 stops sharing instance-dict keys at 30,
        # which costs ~1.3 KiB per page state -- 1.3 MiB per 1,024
        # tenants.)
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

    def __getattr__(self, name: str) -> Any:
        # Reached for a page array not viewed yet (its view is made
        # now), and while unbound: the first read of a table field binds
        # this page state to a one-segment table of its own.
        fields = self.__dict__
        table = fields.get("table")
        if table is None:
            if name not in _VIEWS and name not in ("table", "seg"):
                raise AttributeError(name)
            table = PageTable([self])
            if name in ("table", "seg"):
                return fields[name]
        field = _VIEWS.get(name)
        if field is None:
            raise AttributeError(name)
        lo = int(table.starts[fields["seg"]])
        view = fields[name] = getattr(table, field)[lo : lo + self.n_pages]
        return view

    def _bind(self, table: PageTable, seg: int, lo: int) -> None:
        """Become segment ``seg`` of ``table`` (pages from ``lo``),
        carrying over the values of the table this state was bound to
        before; views of that table are dropped, to be made anew on
        their next read."""
        fields = self.__dict__
        old = fields.get("table")
        if old is not None:
            n = self.n_pages
            old_lo = int(old.starts[self.seg])
            for name in [f for f in _FIELD_SPECS if f in vars(old)]:
                getattr(table, name)[lo : lo + n] = getattr(old, name)[
                    old_lo : old_lo + n
                ]
            table.epochs[:, seg] = old.epochs[:, self.seg]
            table.n_protected[seg] = old.n_protected[self.seg]
            table.debt[seg] = old.debt[self.seg]
            for attr in _VIEWS:
                fields.pop(attr, None)
        fields["table"] = table
        fields["seg"] = seg

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
        self._ledger_source = (
            None if drain is None else (drain, has_pending)
        )

    @property
    def has_pending_accesses(self) -> bool:
        """True when ledger entries await materialisation."""
        if self._pending:
            return True
        source = self._ledger_source
        return source is not None and source[1] is not None and source[1]()

    def flush_accounting(self) -> None:
        """Materialise the pending ledger into both counters.

        Each run costs one O(pages) multiply plus two axpys -- the exact
        operation sequence the eager pre-deferral engine performed per
        quantum -- so a flush after ``k`` same-distribution quanta does
        the work once instead of ``k`` times.
        """
        source = self._ledger_source
        if source is not None:
            source[0]()
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

    @property
    def last_window_count(self) -> np.ndarray:
        """Per-window ground-truth access counts (flushes the ledger)."""
        if self._pending or self._ledger_source is not None:
            self.flush_accounting()
        return self._last_window_count

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
        """Record a change of the protected set in an attached plan's
        log (the protect epoch, bumped by the caller, stales the sorted
        snapshot)."""
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
            self._protection_changed(fresh)
        return int(fresh.size)

    def protect_at(self, vpns: np.ndarray, ts_ns: np.ndarray) -> None:
        """Mark pages PROT_NONE with per-page scan timestamps.

        Used by DCSC's second measurement round (re-protection happens at
        each page's own fault time) and by the thrashing monitor (the
        demotion time substitutes for the scan time).  Unlike
        :meth:`protect`, existing protection timestamps are overwritten.
        Duplicate vpns count once toward ``n_protected``; the last
        duplicate's timestamp wins, as with fancy assignment.  The
        table's :meth:`PageTable.protect_at` on this segment's pages.
        """
        table = self.table
        table.protect_at(
            np.asarray(vpns) + table.starts[self.seg], ts_ns
        )

    def unprotect(self, vpns: np.ndarray) -> None:
        """Clear PROT_NONE after a fault restored the mapping (the
        table's :meth:`PageTable.unprotect` on this segment's pages)."""
        table = self.table
        table.unprotect(np.asarray(vpns) + table.starts[self.seg])

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
        self.n_protected -= int(vpns.size)
        if vpns.size:
            self.protect_epoch += 1
        if remainder is not None:
            self._protected_vpns = (self.protect_epoch, remainder)

    def protected_pages(self) -> np.ndarray:
        """vpns of all currently protected pages, ascending.

        Lazy: the snapshot is materialised from ``prot_none`` on the
        first read after the protect epoch moved and served as is until
        it moves again, so runs stepped through the arena's fault plan
        -- which never reads it -- pay nothing for it.  Only the
        reference engine reads it, and its fault resolve installs the
        untouched remainder directly.  The returned array is never
        mutated in place -- callers may hold it across updates; they
        must not write into it.
        """
        epoch = self.protect_epoch
        snap_epoch, vpns = self._protected_vpns
        if snap_epoch != epoch:
            vpns = np.flatnonzero(self.prot_none)
            self._protected_vpns = (epoch, vpns)
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
        self.epoch = epoch = self.epoch + 1
        log = self._move_log
        log.append((epoch, vpns, old_tiers, int(tier_id)))
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
        self.epoch = epoch = self.epoch + 1
        self._move_log.clear()
        self._move_log_pages = 0
        self.move_log_base = epoch

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
