"""Active/inactive LRU list bookkeeping.

The kernel keeps per-node active and inactive lists; demotion candidates are
taken from the cold end of the fast tier's inactive list.  In the simulator
the list membership and ordering live in the per-process page arrays
(``lru_active``, ``lru_gen``), and an *aging pass* plays the role of the
kernel's periodic reference-bit harvesting:

* a page referenced since the last pass gets a fresh generation stamp and
  moves toward the active list,
* a page that misses two consecutive passes drops to the inactive list
  (second-chance behaviour).

References are determined from the batched access model: with ``lam``
expected accesses to a page over the window, the page was touched with
probability ``1 - exp(-lam)``; hint faults always count as touches.

Aging passes run from hard scheduler events, which bound the quantum-fusion
horizon: a fused macro-quantum never spans an aging tick, and the ``lam``
folded over a fused window equals the per-quantum sum (Poisson merging), so
touch probabilities are identical either way.

Aging and victim selection each have one implementation, a pass over the
page table the processes share (:meth:`LruLists.age_fleet`,
:meth:`LruLists.coldest_pages_two_phase`) that reads and writes its
arrays in place -- the miss counters are one of them; ``age_process`` is
``age_fleet`` over one process.  The per-process loops these passes
replaced are kept as the test oracle in ``tests/transient_oracle.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.vm.page_state import PageTable
from repro.vm.process import SimProcess


def _shared_table(processes: Sequence[SimProcess]) -> PageTable:
    """The page table every one of ``processes`` is a segment of."""
    table = processes[0].pages.table
    if any(p.pages.table is not table for p in processes):
        raise ValueError("the processes do not share one page table")
    return table


class LruLists:
    """Machine-wide LRU aging and cold-page selection."""

    #: consecutive aging misses after which an active page is deactivated
    DEACTIVATE_AFTER: int = 2

    def __init__(
        self, rng: np.random.Generator, fine_grained: bool = False
    ) -> None:
        """``fine_grained=False`` (default) stamps every page touched in a
        window with the same generation -- the honest model of
        reference-bit LRU, which cannot rank recency inside an aging
        window.  ``fine_grained=True`` stamps an estimated last-access
        time instead (an idealized MGLRU-like recency oracle); it exists
        for the demotion-precision ablation, not for the baselines."""
        self._rng = rng
        self.fine_grained = bool(fine_grained)
        self._last_age_ns: dict = {}

    def age_process(self, process: SimProcess, now_ns: int) -> np.ndarray:
        """One aging pass over one process: ``age_fleet([process])``."""
        return self.age_fleet([process], now_ns)[0]

    def age_fleet(
        self, processes: Sequence[SimProcess], now_ns: int
    ) -> List[np.ndarray]:
        """One aging pass over several processes in the given order.

        Consumes each process's window access accumulator and PTE
        accessed bits (both are cleared), stamps generations, and
        updates active/inactive membership with second-chance
        hysteresis.  Returns the per-process touched masks, in order.

        In the default coarse mode every touched page gets the same
        generation stamp: reference bits carry one bit of information
        per window, so pages referenced in the same window are
        indistinguishable -- the measurement ceiling the paper's Section
        2.3 attributes to hardware-bit methods.

        The pass runs over the fleet's *candidate set*: pages with
        nonzero window counts, a set accessed bit, or active-list
        membership.  A page outside that set has touch probability
        exactly zero and is already inactive, so it cannot change state
        -- skipping it is behaviour preserving, except that its
        (unobservable) miss counter stops advancing: a cold page later
        activated by a migration needs ``DEACTIVATE_AFTER`` observed
        misses before deactivating instead of inheriting misses
        accumulated while it was off-list.

        The candidates are found on the page table in place and
        regrouped process by process in visiting order, so one
        ``random(candidates)`` call draws every uniform in the order
        per-process draws would (the generator's stream does not depend
        on the call granularity).  ``fine_grained`` mode follows each
        process's uniforms with its exponential draws, so it draws one
        process at a time.
        """
        processes = list(processes)
        if not processes:
            return []
        table = _shared_table(processes)
        last_age = self._last_age_ns
        windows = []
        for process in processes:
            pages = process.pages
            if pages.has_pending_accesses:
                pages.flush_accounting()
            windows.append(max(now_ns - last_age.get(process.pid, 0), 1))
            last_age[process.pid] = now_ns
        lam = table.last_window_count
        cand = lam > 0.0
        cand |= table.accessed
        cand |= table.lru_active
        found = np.flatnonzero(cand)
        # Each visited segment's candidates, in visiting order.
        segs = np.fromiter(
            (p.pages.seg for p in processes), np.int64, len(processes)
        )
        seg_bounds = np.searchsorted(found, table.starts)
        first = seg_bounds[segs]
        counts = seg_bounds[segs + 1] - first
        bounds = np.zeros(len(processes) + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        idx = found[
            np.arange(bounds[-1]) + np.repeat(first - bounds[:-1], counts)
        ]

        lam_g = lam[idx]
        prob = np.expm1(-lam_g)
        np.negative(prob, out=prob)
        touched = table.accessed[idx]
        gens = table.lru_gen
        if self.fine_grained:
            for k, window in enumerate(windows):
                lo, hi = int(bounds[k]), int(bounds[k + 1])
                hit = touched[lo:hi]
                hit |= self._rng.random(hi - lo) < prob[lo:hi]
                rates = np.maximum(lam_g[lo:hi][hit], 1.0) / window
                back_gaps = self._rng.exponential(1.0 / rates)
                back_gaps = np.minimum(back_gaps, window - 1).astype(
                    np.int64
                )
                gens[idx[lo:hi][hit]] = now_ns - back_gaps
        else:
            touched |= self._rng.random(idx.size) < prob
            gens[idx[touched]] = now_ns
        touched_idx = idx[touched]
        missed_idx = idx[~touched]
        misses = table.lru_misses
        misses[touched_idx] = 0
        misses[missed_idx] += 1
        table.lru_active[touched_idx] = True
        table.lru_active[
            missed_idx[misses[missed_idx] >= self.DEACTIVATE_AFTER]
        ] = False
        table.accessed[idx] = False
        lam[idx] = 0.0
        mask = np.zeros(lam.size, dtype=bool)
        mask[touched_idx] = True
        starts = table.starts.tolist()
        return [mask[starts[s]:starts[s + 1]] for s in segs.tolist()]

    def coldest_pages_two_phase(
        self,
        processes: Sequence[SimProcess],
        tier_id: int,
        n_pages: int,
    ) -> Tuple[
        List[Tuple[SimProcess, np.ndarray]],
        List[Tuple[SimProcess, np.ndarray]],
    ]:
        """Inactive-first victim selection with an active-list fallback.

        Pages resident in ``tier_id`` are ranked by ascending generation
        (oldest reference first).  The first phase takes up to
        ``n_pages`` from the inactive list, as kswapd scans it before
        touching active pages; on a shortfall the second phase takes
        the remainder from the whole tier.  ``processes`` are every
        segment of one page table in segment order (the kernel's process
        list); both phases read its arrays in place, each consuming one
        shuffle from the RNG.  Returns ``(inactive, fallback)``
        per-process victim lists; ``fallback`` is empty when the
        inactive list satisfied the request.
        """
        if n_pages <= 0 or not processes:
            return [], []
        table = _shared_table(processes)
        if [p.pages.seg for p in processes] != list(range(table.n_segs)):
            raise ValueError("victim selection runs over a whole table")
        tier_mask = table.tier == tier_id
        gens, starts = table.lru_gen, table.starts
        first = self._select_coldest(
            processes, tier_mask & ~table.lru_active, gens, starts, n_pages
        )
        selected = sum(v.size for _, v in first)
        if selected >= n_pages:
            return first, []
        second = self._select_coldest(
            processes, tier_mask, gens, starts, n_pages - selected
        )
        return first, second

    def _select_coldest(
        self,
        processes: Sequence[SimProcess],
        mask: np.ndarray,
        gens: np.ndarray,
        starts: np.ndarray,
        n_pages: int,
    ) -> List[Tuple[SimProcess, np.ndarray]]:
        """Rank the masked candidates by generation and split per owner
        (one phase of :meth:`coldest_pages_two_phase`)."""
        global_idx = np.flatnonzero(mask)
        if global_idx.size == 0:
            return []
        all_owner = (
            np.searchsorted(starts, global_idx, side="right") - 1
        )
        all_vpns = global_idx - starts[all_owner]
        all_gens = gens[global_idx]

        # Shuffle before the partial sort: pages sharing a generation
        # (referenced in the same aging window) are indistinguishable, so
        # ties must break randomly, not by address order.
        shuffle = self._rng.permutation(all_gens.size)
        all_gens = all_gens[shuffle]
        all_owner = all_owner[shuffle]
        all_vpns = all_vpns[shuffle]

        take = min(n_pages, all_gens.size)
        order = np.argpartition(all_gens, take - 1)[:take]

        # Split the selection back per owner: pack (owner, vpn) into one
        # sortable key (the ``_merge_victims`` idiom) so owners come out
        # ascending with sorted vpns, matching the sequential
        # unique-owner/boolean-mask loop exactly.
        sel_owner = all_owner[order]
        sel_vpns = all_vpns[order]
        span = int(sel_vpns.max()) + 1 if sel_vpns.size else 1
        packed = np.sort(sel_owner * span + sel_vpns)
        packed_owner = packed // span
        packed_vpns = packed - packed_owner * span
        owners = np.unique(packed_owner)
        bounds = np.searchsorted(packed_owner, owners, side="right")
        selected: List[Tuple[SimProcess, np.ndarray]] = []
        lo = 0
        for owner, hi in zip(owners, bounds):
            selected.append(
                (processes[int(owner)], packed_vpns[lo:hi])
            )
            lo = int(hi)
        return selected
