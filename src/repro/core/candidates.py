"""The n-round hot-page candidate filter (Figure 4).

A single CIT sample can misclassify: the scan may have landed just before
an access of an otherwise-cold page.  The filter requires a page to pass
the CIT threshold in ``n`` consecutive measurement rounds before it is
submitted for promotion -- equivalent to thresholding the *maximum* of n
CIT samples, the minimum-variance unbiased estimator of the access period
(Appendix B.1).  Candidates between rounds live in an XArray-like set with
O(1) lookup and a small bounded footprint (the paper measures < 32 KB per
process).

Here the set is two fields of the page table
(:class:`~repro.vm.page_state.PageTable`), as Chrono keeps its CIT stamp
in ``struct page``: ``candidate`` counts the rounds a slot has passed (0
= not a candidate) and ``candidate_cit_ns`` holds its largest CIT so far.
A slot is a page, or in huge-page mode a 2 MB group whose state sits at
its first page, so one :meth:`CandidateFilter.observe` call feeds a whole
fleet's measurements.

``n_rounds = 1`` reproduces Chrono-basic (no filtering); 2 is the default
(Chrono-twice / Chrono-full); 3 reproduces Chrono-thrice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.vm.page_state import PageTable
from repro.vm.process import SimProcess

#: XArray slot cost per candidate entry (vpn key + CIT + round counter)
XARRAY_SLOT_BYTES: int = 16


@dataclass
class FilterResult:
    """Outcome of feeding one fault batch through the filter."""

    ready: np.ndarray  # slots that passed all rounds: submit for promotion
    new_candidates: int  # entered the candidate set this batch
    rejected: int  # candidates evicted by an over-threshold CIT


class CandidateFilter:
    """n-round CIT candidate tracking on the page table."""

    def __init__(self, n_rounds: int = 2) -> None:
        if not 1 <= n_rounds <= np.iinfo(np.int8).max:
            raise ValueError("filtering rounds must be in [1, 127]")
        self.n_rounds = int(n_rounds)

    def observe(
        self,
        table: PageTable,
        slots: np.ndarray,
        cit_ns: np.ndarray,
        threshold_ns: int,
    ) -> FilterResult:
        """Feed one round of CIT measurements for ``slots``.

        ``slots`` are distinct global page indices into ``table`` (a vpn,
        for a page state on a table of its own): the measured pages, or
        in huge-page mode each measured group's first page.  Slots whose
        CIT is below the threshold advance one round (entering the
        candidate set on their first pass); slots at or above it are
        dropped from the set.  Slots completing ``n_rounds`` are returned
        as promotion-ready, in input order, and removed from the set.
        """
        if threshold_ns <= 0:
            raise ValueError("CIT threshold must be positive")
        slots = np.asarray(slots, dtype=np.int64)
        cit_ns = np.asarray(cit_ns, dtype=np.int64)
        if slots.shape != cit_ns.shape:
            raise ValueError("slots and CITs must be parallel")
        passes = table.candidate
        max_cit = table.candidate_cit_ns
        held = passes[slots]

        below = cit_ns < threshold_ns
        passing = slots[below]
        # A failed measurement evicts the slot from the candidate set.
        evicted = slots[~below & (held > 0)]
        passes[evicted] = 0
        max_cit[evicted] = 0

        rounds = held[below] + 1
        new_candidates = int(np.count_nonzero(rounds == 1))
        running = np.maximum(max_cit[passing], cit_ns[below])
        done = rounds >= self.n_rounds
        rounds[done] = 0
        running[done] = 0
        passes[passing] = rounds
        max_cit[passing] = running

        return FilterResult(
            ready=passing[done],
            new_candidates=new_candidates,
            rejected=int(evicted.size),
        )

    def candidate_count(self, process: SimProcess) -> int:
        """Current candidate-set size for a process."""
        return int(np.count_nonzero(process.pages.candidate))

    def footprint_bytes(self, process: SimProcess) -> int:
        """XArray memory consumed by this process's candidate set."""
        return self.candidate_count(process) * XARRAY_SLOT_BYTES
