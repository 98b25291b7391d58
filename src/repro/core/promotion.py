"""The rate-limited asynchronous promotion queue (Section 3.1.2).

Promotion-ready pages are enqueued; a drain daemon migrates them
asynchronously, at most ``rate_limit`` pages per second.  The queue tracks
enqueue/dequeue rates so the tuning subsystems can steer the CIT threshold
(semi-auto) or resize the rate limit itself (DCSC) -- and so the thrashing
monitor can compare thrash events against the promotion volume.

The queue is a FIFO array of global page indices into the page table the
queued processes share (:class:`~repro.vm.page_state.PageTable`); each
page's ``queued`` field says whether it waits in it, so an enqueue
deduplicates with one gather and a drain is one head slice.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.vm.page_state import PageTable
from repro.vm.process import SimProcess


class PromotionQueue:
    """FIFO promotion queue with a pages-per-second drain budget."""

    def __init__(self, rate_limit_pages_per_sec: float) -> None:
        if rate_limit_pages_per_sec <= 0:
            raise ValueError("rate limit must be positive")
        self.rate_limit_pages_per_sec = float(rate_limit_pages_per_sec)
        #: the queued pages, oldest first: ``_pages[_head:_tail]``,
        #: global indices into ``_table``
        self._pages = np.empty(0, dtype=np.int64)
        self._head = self._tail = 0
        self._table: Optional[PageTable] = None
        #: segment of ``_table`` -> the process that owns it
        self._owners: Dict[int, SimProcess] = {}
        self.enqueued_total = 0
        self.dequeued_total = 0
        self._enqueued_window = 0
        self._budget_carry = 0.0

    def __len__(self) -> int:
        return self._tail - self._head

    def set_rate_limit(self, pages_per_sec: float) -> None:
        if pages_per_sec <= 0:
            raise ValueError("rate limit must be positive")
        self.rate_limit_pages_per_sec = float(pages_per_sec)

    def _use_table(self, table: PageTable) -> None:
        """Index ``table`` from now on: pages queued in the table it
        replaced move to their global indices in ``table``."""
        old = self._table
        self._table = table
        if old is None or old is table:
            return
        queued = self._pages[self._head : self._tail]
        queued[:] = table.rebased(old, queued)
        self._owners = {p.pages.seg: p for p in self._owners.values()}

    def enqueue(
        self, processes: Sequence[SimProcess], pages: np.ndarray
    ) -> np.ndarray:
        """Add promotion-ready pages; duplicates are ignored.  Returns the
        pages actually added, in queue order.

        ``pages`` are global page indices into the page table every one
        of ``processes`` is a segment of (a vpn, for a process on a table
        of its own); ``processes`` names the owner of each page.  A page
        already queued, or repeated in ``pages``, is added once, at its
        first position.

        The *window* counter records attempted submissions (duplicates
        included): the semi-auto tuner compares submission pressure to
        the rate limit, and a saturated, deduplicating queue would
        otherwise pin the measured rate to the drain rate and starve the
        feedback loop.
        """
        pages = np.asarray(pages, dtype=np.int64)
        self._enqueued_window += int(pages.size)
        if not pages.size:
            return pages
        table = processes[0].pages.table
        self._use_table(table)
        if pages.size > 1 and not bool((pages[1:] > pages[:-1]).all()):
            _, first = np.unique(pages, return_index=True)
            pages = pages[np.sort(first)]
        added = pages[~table.queued[pages]]
        if added.size:
            table.queued[added] = True
            segs = np.unique(
                np.searchsorted(table.starts, added, side="right") - 1
            ).tolist()
            if any(seg not in self._owners for seg in segs):
                by_seg = {p.pages.seg: p for p in processes}
                for seg in segs:
                    self._owners.setdefault(seg, by_seg[seg])
            self._push(added)
        self.enqueued_total += int(added.size)
        return added

    def _push(self, pages: np.ndarray) -> None:
        head, tail, n = self._head, self._tail, pages.size
        if tail + n > self._pages.size:
            live = self._pages[head:tail]
            grown = np.empty(max(2 * (live.size + n), 64), dtype=np.int64)
            grown[: live.size] = live
            self._pages, self._head, tail = grown, 0, live.size
        self._pages[tail : tail + n] = pages
        self._tail = tail + n

    def drain(
        self, elapsed_ns: int
    ) -> List[Tuple[SimProcess, np.ndarray]]:
        """Dequeue up to the rate budget for ``elapsed_ns`` of wall time.

        Fractional budget carries over between drains so small rate limits
        still make progress.  Returns per-process vpn batches: processes
        in the order their first page leaves the queue, each batch in
        FIFO order.
        """
        if elapsed_ns < 0:
            raise ValueError("elapsed time cannot be negative")
        depth = len(self)
        budget = (
            self.rate_limit_pages_per_sec * (elapsed_ns / 1e9)
            + self._budget_carry
        )
        take = min(int(budget), depth)
        self._budget_carry = budget - take if take < depth else 0.0
        if not take:
            return []
        owner = next(iter(self._owners.values()))
        self._use_table(owner.pages.table)
        taken = self._pages[self._head : self._head + take]
        self._head += take
        self.dequeued_total += take
        table = self._table
        table.queued[taken] = False
        starts = table.starts
        segs = np.searchsorted(starts, taken, side="right") - 1
        owned, first, inverse = np.unique(
            segs, return_index=True, return_inverse=True
        )
        if owned.size == 1:
            seg = int(owned[0])
            return [(self._owners[seg], taken - starts[seg])]
        # Rank the processes by first appearance; a stable sort by rank
        # keeps each one's pages in FIFO order.
        order = np.argsort(first)
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size)
        keys = rank[inverse]
        grouped = taken[np.argsort(keys, kind="stable")]
        bounds = np.r_[0, np.cumsum(np.bincount(keys))].tolist()
        return [
            (self._owners[seg], grouped[bounds[r] : bounds[r + 1]] - starts[seg])
            for r, seg in enumerate(owned[order].tolist())
        ]

    def enqueue_rate_per_sec(self, window_ns: int) -> float:
        """Average enqueue rate over the window just ended; resets the
        window counter (the semi-auto tuner's input)."""
        if window_ns <= 0:
            raise ValueError("window must be positive")
        rate = self._enqueued_window / (window_ns / 1e9)
        self._enqueued_window = 0
        return rate
