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
whole fleet's concatenated page arrays (:meth:`LruLists.age_fleet`,
:meth:`LruLists.coldest_pages_two_phase`); ``age_process`` is
``age_fleet`` over one process.  The per-process loops these passes
replaced are kept as the test oracle in ``tests/transient_oracle.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.vm.process import SimProcess


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
        self._miss_counts: dict = {}
        self._last_age_ns: dict = {}

    def _misses(self, process: SimProcess) -> np.ndarray:
        if process.pid not in self._miss_counts:
            self._miss_counts[process.pid] = np.zeros(
                process.n_pages, dtype=np.int32
            )
        return self._miss_counts[process.pid]

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

        The candidate masks are concatenated in visiting order and one
        ``random(candidates)`` call draws every uniform; per-process
        slices equal what per-process draws would give (the
        generator's stream does not depend on the call granularity).
        ``fine_grained`` mode follows each process's uniforms with its
        exponential draws, so it draws one process at a time.
        """
        processes = list(processes)
        n = len(processes)
        if n == 0:
            return []
        starts = self._fleet_starts(processes)
        lam_cat = np.concatenate(
            [p.pages.last_window_count for p in processes]
        )
        acc_cat = np.concatenate([p.pages.accessed for p in processes])
        cand = lam_cat > 0.0
        cand |= acc_cat
        cand |= np.concatenate([p.pages.lru_active for p in processes])

        global_idx = np.flatnonzero(cand)
        owner = np.searchsorted(starts, global_idx, side="right") - 1
        bounds = np.searchsorted(owner, np.arange(n + 1, dtype=np.int64))

        lam_g = lam_cat[global_idx]
        prob = np.expm1(-lam_g)
        np.negative(prob, out=prob)
        acc_g = acc_cat[global_idx]
        if not self.fine_grained:
            touched_g = self._rng.random(global_idx.size) < prob
            touched_g |= acc_g

        results: List[np.ndarray] = []
        for i, process in enumerate(processes):
            pages = process.pages
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            idx = global_idx[lo:hi] - starts[i]
            if self.fine_grained:
                touched_sub = self._rng.random(hi - lo) < prob[lo:hi]
                touched_sub |= acc_g[lo:hi]
            else:
                touched_sub = touched_g[lo:hi]
            touched_idx = idx[touched_sub]
            missed_idx = idx[~touched_sub]
            misses = self._misses(process)
            misses[touched_idx] = 0
            misses[missed_idx] += 1
            if self.fine_grained:
                window = max(
                    now_ns - self._last_age_ns.get(process.pid, 0), 1
                )
                rates = np.maximum(lam_g[lo:hi][touched_sub], 1.0) / window
                back_gaps = self._rng.exponential(1.0 / rates)
                back_gaps = np.minimum(back_gaps, window - 1).astype(
                    np.int64
                )
                pages.lru_gen[touched_idx] = now_ns - back_gaps
            else:
                pages.lru_gen[touched_idx] = now_ns
            self._last_age_ns[process.pid] = now_ns
            pages.lru_active[touched_idx] = True
            deactivate = missed_idx[
                misses[missed_idx] >= self.DEACTIVATE_AFTER
            ]
            pages.lru_active[deactivate] = False
            if idx.size == pages.n_pages:
                pages.accessed[:] = False
                pages.clear_window_counts()
            else:
                pages.accessed[idx] = False
                pages.clear_window_counts(idx)
            touched = np.zeros(pages.n_pages, dtype=bool)
            touched[touched_idx] = True
            results.append(touched)
        return results

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
        the remainder from the whole tier.  The concatenated fleet
        arrays are built once and shared by both phases, each phase
        consuming one shuffle from the RNG.  Returns ``(inactive,
        fallback)`` per-process victim lists; ``fallback`` is empty
        when the inactive list satisfied the request.
        """
        if n_pages <= 0:
            return [], []
        tier = np.concatenate([p.pages.tier for p in processes])
        if tier.size == 0:
            return [], []
        tier_mask = tier == tier_id
        active = np.concatenate(
            [p.pages.lru_active for p in processes]
        )
        gens = np.concatenate([p.pages.lru_gen for p in processes])
        starts = self._fleet_starts(processes)
        first = self._select_coldest(
            processes, tier_mask & ~active, gens, starts, n_pages
        )
        selected = sum(v.size for _, v in first)
        if selected >= n_pages:
            return first, []
        second = self._select_coldest(
            processes, tier_mask, gens, starts, n_pages - selected
        )
        return first, second

    @staticmethod
    def _fleet_starts(processes: Sequence[SimProcess]) -> np.ndarray:
        starts = np.zeros(len(processes) + 1, dtype=np.int64)
        np.cumsum(
            np.array(
                [p.pages.n_pages for p in processes], dtype=np.int64
            ),
            out=starts[1:],
        )
        return starts

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
