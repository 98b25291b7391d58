"""Arena stepping: one batched array program per quantum.

Every default run (``QuantumEngine(fast_path=True)``), one process or a
fleet, steps through a :class:`ProcessArena`.  The arena concatenates
every process's page-level state into one global address space
partitioned into *segments* (one per process, in ``kernel.processes``
order) and executes each quantum as a single segment-wise array
program, so a step costs no per-process numpy dispatch:

::

    segment        0            1          2        3
              +-----------+-----------+-------+------------+
    probs     | p0 ...    | p1 ...    | p2 ...| p3 ...     |   float64
    tier ids  | t0 ...    | t1 ...    | t2 ...| t3 ...     |   int8
              +-----------+-----------+-------+------------+
    offsets   ^0          ^s1         ^s2     ^s3          ^s4  seg_starts
    per-seg   tier-mass rows   [n_segs x n_tiers]   (journal-repaired)
    ledger    open run: probs refs per segment + accumulated n vector
    cells     epoch / protect-epoch / n_protected + debt (write-through)

One quantum (:meth:`ProcessArena.step`) is then:

1. a *gather* pass, vectorised over the witness cells: every
   ``PageState`` writes its ``(epoch, protect_epoch, n_protected)``
   through to its column of one int64 cell matrix, and every process
   its queued kernel time to one debt vector, so stale tier-mass rows
   and indebted segments are found by vector compares.  Stale rows are
   repaired from the page-state move journal (O(moved)).  Only
   *dynamic* rows get a per-row ``advance`` / ``access_distribution``
   call; *static* rows -- stationary
   :class:`~repro.workloads.base.Workload` subclasses whose
   distribution object never changes -- skip it (it is a no-op for
   them),
2. *dirty-row pricing*: ``mean_lat = sum_t mass[:, t] * (rf *
   read_lat[t] + wf * write_lat[t])`` refolds through
   :func:`price_fold` only for rows whose mass, profile scalars or tier
   latencies changed since their last fold (a per-row dirty bit rides
   every mass update), then ``n = max(budget, 0) / (mean_lat + delay)``
   over all segments at once,
3. one *aggregate fault draw* from the arena's :class:`FaultPlan`,
   which holds a slot for every protected page that can fault
   (positive access probability): active (hot) slots of every segment
   share one Bernoulli vector, dormant ones one
   ``K ~ Poisson(sum_i n_i * mass_i)`` draw
   placed by an n-weighted inverse CDF -- exact by Poisson
   superposition / thinning.  The plan's upkeep is O(changes): resolved
   faults tombstone their slots in place, and per-page-state
   protection-change logs feed appends and tombstones for the segments
   whose protect-epoch witness moved.  All touched pages get their
   fault offsets in one pass; each faulting process still gets one
   ``FaultBatch`` through ``Kernel.deliver_faults``, in segment order,
4. one *ledger account*: ``open_n += n_vec`` extends the concatenated
   open run; each segment's share drains lazily into its
   ``PageState``'s own pending ledger the first time a consumer reads
   the counters (``PageState.set_ledger_source``), and per-process
   stats accumulate in four vectors that fold into each
   ``SimProcess.stats`` when they become visible
   (:meth:`ProcessArena.flush_stats`),
5. one *latency fold*: per-class counts accumulate into per-key
   vectors over segments (keyed by the engine's per-quantum latency
   keys) and scatter into per-process mixtures once per run,
6. one *demand fold*: per-tier byte demand summed over segments.

A *steady-state quantum cache* spans phases 2-6: while no input changed
since the previous quantum -- no repair, debt drain, reprice,
retirement, distribution swap, bandwidth change or different quantum
length -- the cached ``n`` vector, stat products, latency counts and
demand are bitwise what recomputation would produce, so the recompute
dispatches are skipped.

Equivalence contract (``docs/SIMULATION.md`` section 7): the step
executes the same IEEE-754 operations and consumes the same RNG stream
as the straightforward per-segment step that recomputes everything
every quantum (the test oracle in ``tests/arena_oracle.py``), so the two
are bit-identical on every fleet, one segment included.  The arena
draws touches and fault times from the fault plan's one stream (the
``engine.arena`` RNG) where the reference engine (``fast_path=False``)
draws from per-process streams, so the two agree statistically (same
laws), not bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.latency import LatencyMixture
from repro.mem.machine import CACHE_LINE_BYTES
from repro.mem.tier import FAST_TIER
from repro.policies.base import TieringPolicy
from repro.vm.fault import FaultBatch, first_access_offsets
from repro.workloads.base import Workload

#: journal replays a tier-mass row takes before a full recount; bounds
#: the float drift of repeated add/subtract
MASS_RESYNC_MOVES: int = 256

#: per-quantum touch probability from which a protected page gets an
#: active fault-plan slot (its own Bernoulli draw) instead of a dormant
#: one (the aggregate Poisson draw); the split only steers cost
FAULT_DORMANT_MAX_TOUCH: float = 0.02


def price_fold(
    mass: np.ndarray,
    rf: np.ndarray,
    wf: np.ndarray,
    read_lats: np.ndarray,
    write_lats: np.ndarray,
    idx: np.ndarray,
    out: np.ndarray,
) -> None:
    """Masked pricing fold: rewrite ``out[idx]`` with
    ``sum_t mass[idx, t] * (rf[idx]*read[t] + wf[idx]*write[t])``.

    Per element the operation sequence is exactly the full-arena fold's
    (``rf*read``, ``wf*write``, add, multiply by mass, accumulate in
    tier order), so a masked refold of an unchanged row reproduces the
    cached value bit for bit.
    """
    sub_rf = rf[idx]
    sub_wf = wf[idx]
    acc = np.zeros(idx.shape[0], dtype=np.float64)
    for tier_id in range(read_lats.shape[0]):
        coef = sub_rf * read_lats[tier_id]
        coef += sub_wf * write_lats[tier_id]
        coef *= mass[idx, tier_id]
        acc += coef
    out[idx] = acc


class ProcessArena:
    """Concatenated per-process state stepped as one array program."""

    def __init__(self, engine: Any) -> None:
        self.engine = engine
        kernel = engine.kernel
        self.kernel = kernel
        #: the fleet this arena was built for (identity-compared each
        #: step; any change -- respawn, reorder -- triggers a rebuild)
        self.processes: List[Any] = list(kernel.processes)
        self.n_segs = n_segs = len(self.processes)
        self.n_tiers = n_tiers = kernel.machine.n_tiers
        #: the fault plan's stream: every touch draw and fault offset
        self.rng = kernel.rng.get("engine.arena")
        sizes = np.array(
            [p.pages.n_pages for p in self.processes], dtype=np.int64
        )
        #: segment boundaries into the concatenated arrays:
        #: segment ``i`` owns ``[seg_starts[i], seg_starts[i + 1])``
        self.seg_starts = np.zeros(n_segs + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.seg_starts[1:])
        total = int(self.seg_starts[-1])
        #: concatenated access distributions (refreshed per segment on a
        #: phase change) and tier ids (scattered O(moved) on repair);
        #: both feed the fused full-recount path
        self.concat_probs = np.zeros(total, dtype=np.float64)
        self.concat_tier = np.zeros(total, dtype=np.int8)
        #: the *original* immutable distribution array per segment --
        #: ledger runs hold these by reference and the fusion horizon
        #: compares workloads' distributions against them by identity
        #: (the concatenated copy above can never serve identity checks)
        self.probs_refs: List[Optional[np.ndarray]] = [None] * n_segs
        # Per-segment tier-mass rows: keyed by (probs identity,
        # placement epoch), journal-repaired, drift-bounded by a resync
        # countdown.  ``mass_epoch`` is compared against the witness
        # cells in one vector op per quantum.
        self.mass = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self.mass_epoch = np.full(n_segs, -1, dtype=np.int64)
        self.mass_resync = [0] * n_segs
        # The concatenated open ledger run: one ``n`` accumulator per
        # segment against ``probs_refs``.  ``_drain_seg`` lazily moves a
        # segment's share into its PageState pending ledger.
        self.open_n = np.zeros(n_segs, dtype=np.float64)
        #: steady-state witness (the fusion contract): the placement and
        #: protect epochs each segment's last quantum left behind, rows
        #: aligned with ``_cells[0:2]``; -1 until the first step.  The
        #: distribution it ran against is ``probs_refs`` itself, which
        #: only a step swaps.
        self.witness_epochs = np.full((2, n_segs), -1, dtype=np.int64)
        # Per-step scratch vectors (all O(n_segs)).
        self._wf = np.zeros(n_segs, dtype=np.float64)
        self._rf = np.zeros(n_segs, dtype=np.float64)
        self._delay = np.zeros(n_segs, dtype=np.float64)
        self._budget = np.zeros(n_segs, dtype=np.float64)
        self._mean_lat = np.zeros(n_segs, dtype=np.float64)
        self._per_cost = np.zeros(n_segs, dtype=np.float64)
        self._n = np.zeros(n_segs, dtype=np.float64)
        self._faults = np.zeros(n_segs, dtype=np.float64)
        self._tmp = np.zeros(n_segs, dtype=np.float64)
        self._stale_buf = np.zeros(n_segs, dtype=bool)
        self._demand_rows = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._weight_rows = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._demand_out = np.zeros(n_tiers, dtype=np.float64)
        self._tier_counts = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._positive = np.zeros((n_segs, n_tiers), dtype=bool)
        self._reads = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._writes = np.zeros((n_segs, n_tiers), dtype=np.float64)
        self._faulted = np.zeros(n_segs, dtype=np.float64)
        #: per-latency-key segment count vectors, scattered into the
        #: engine's per-process mixtures by ``QuantumEngine._flush_latency``
        self._lat_store: Dict[int, np.ndarray] = {}
        #: live-segment mask: zeroes finished segments out of the pricing
        #: vectors in one multiply instead of per-segment branches
        self._live_mask = np.ones(n_segs, dtype=bool)
        #: prebound (index, process, workload, pages) rows for the hot
        #: loops; rebuilt whenever a process finishes (segment retirement)
        self._rows = [
            (i, p, p.workload, p.pages)
            for i, p in enumerate(self.processes)
        ]
        #: rows with a fixed-work target (the only finish condition the
        #: engine checks per quantum)
        self._target_rows = [
            row for row in self._rows
            if row[1].target_accesses is not None
        ]
        #: the policy whose ``on_quantum`` binding was last resolved, and
        #: the bound hook (``None`` when the policy keeps the base-class
        #: no-op -- the per-row call loop is skipped entirely)
        self._policy_seen: Any = None
        self._policy_hook = None
        #: per-segment quantum-stat accumulators (accesses, fast
        #: accesses, user ns, stall ns), folded with four vector adds per
        #: quantum and flushed into each ``SimProcess.stats`` lazily
        #: (:meth:`flush_stats`) -- nothing reads the per-process copies
        #: mid-run.
        self._acc_n = np.zeros(n_segs, dtype=np.float64)
        self._acc_fast = np.zeros(n_segs, dtype=np.float64)
        self._acc_user = np.zeros(n_segs, dtype=np.float64)
        self._acc_stall = np.zeros(n_segs, dtype=np.float64)
        #: monotonic re-pricing counters, drained by the engine's obs
        #: block through :meth:`take_reprice_counters`
        self.repriced_segments = 0
        self.reprice_skipped_segments = 0
        # Pricing caches: mean_lat / per_cost persist across quanta and
        # only dirty rows refold.  The latency tables are value-compared
        # (the engine rebuilds the list objects every step).
        self._price_dirty = np.ones(n_segs, dtype=bool)
        self._lat_read_cache: Optional[List[float]] = None
        self._lat_write_cache: Optional[List[float]] = None
        self._read_lat_arr = np.zeros(n_tiers, dtype=np.float64)
        self._write_lat_arr = np.zeros(n_tiers, dtype=np.float64)
        # Steady-state quantum cache: when no input of the pricing /
        # accumulation phases changed since the previous quantum, the
        # cached vectors are bitwise what recomputation would produce,
        # so the recompute dispatches are skipped.  Any mutation -- mass
        # repair, debt drain, reprice, retirement, distribution swap,
        # latency/bandwidth change, or a different quantum length --
        # drops the flag and the next step recomputes everything into
        # the caches.
        self._ss_valid = False
        self._budget_fill = -1.0
        self._budget_tainted = True
        self._fast_prod = np.zeros(n_segs, dtype=np.float64)
        self._user_prod = np.zeros(n_segs, dtype=np.float64)
        self._stall_prod = np.zeros(n_segs, dtype=np.float64)
        self._last_reads = np.zeros(n_segs, dtype=np.float64)
        self._bwm_cache = np.full(n_tiers, np.nan, dtype=np.float64)
        # Per-(tier, read/write) all-zero flags for the latency fold:
        # counts are non-negative, so adding an all-zero vector is a
        # bitwise no-op the fold may skip (the flush skips zero counts
        # regardless).  Refreshed whenever the fold recomputes.
        self._fold_zero = [False] * (2 * n_tiers)
        #: witness cells: column ``i`` mirrors segment ``i``'s
        #: ``(epoch, protect_epoch, n_protected)`` (written through by its
        #: ``PageState``), so staleness and fault eligibility are vector
        #: compares; the debt cells mirror each process's queued kernel
        #: time the same way
        self._cells = np.zeros((3, n_segs), dtype=np.int64)
        self._debt_cells = np.zeros(n_segs, dtype=np.float64)
        for i, proc in enumerate(self.processes):
            proc.pages.set_witness_cells(self._cells, i)
            proc.set_debt_cell(self._debt_cells, i)
        self._build_masses()
        self._attach_ledger_sources()
        #: the fleet-wide fault plan (released by :meth:`detach`)
        self.plan = FaultPlan(self)
        #: rows that still need the per-quantum ``advance`` /
        #: ``access_distribution`` calls and the fusion horizon's
        #: stability check: everything but stationary :class:`Workload`
        #: subclasses with an identity-stable distribution and no
        #: stability bound, for which all three are no-ops
        self._dynamic_rows = [
            row for row in self._rows
            if not (
                isinstance(row[2], Workload)
                and type(row[2]).advance is Workload.advance
                and type(row[2]).stable_until_ns
                is Workload.stable_until_ns
                and row[2].access_distribution() is self.probs_refs[row[0]]
            )
        ]
        if not self._live_mask.all():
            self._retire_rows()

    # ------------------------------------------------------------------
    # Construction / teardown
    # ------------------------------------------------------------------
    def _build_masses(self) -> None:
        """Initial tier-mass rows via one fused segment-sum.

        ``bincount`` over ``seg_id * n_tiers + tier`` accumulates every
        segment's per-tier mass in one pass over the concatenated
        arrays; within a segment the additions run in vpn order, the
        same order a per-segment ``bincount`` uses, so the rows are
        bit-identical to a per-segment recount (:meth:`_recount_mass`).
        """
        starts = self.seg_starts
        for i, proc in enumerate(self.processes):
            workload = proc.workload
            probs = workload.access_distribution()
            lo, hi = int(starts[i]), int(starts[i + 1])
            self.probs_refs[i] = probs
            self.concat_probs[lo:hi] = probs
            self.concat_tier[lo:hi] = proc.pages.tier
            self.mass_epoch[i] = proc.pages.epoch
            self.mass_resync[i] = MASS_RESYNC_MOVES
            self._wf[i] = workload.write_fraction
            self._delay[i] = workload.delay_ns_per_access
            if proc.finished:
                self._live_mask[i] = False
        if int(starts[-1]) > 0:
            seg_ids = np.repeat(
                np.arange(self.n_segs, dtype=np.int64),
                np.diff(starts),
            )
            combined = self.concat_tier.astype(np.int64)
            combined += seg_ids * self.n_tiers
            self.mass[:, :] = np.bincount(
                combined,
                weights=self.concat_probs,
                minlength=self.n_segs * self.n_tiers,
            ).reshape(self.n_segs, self.n_tiers)

    def _attach_ledger_sources(self) -> None:
        for i, proc in enumerate(self.processes):
            proc.pages.set_ledger_source(
                self._make_drain(i), self._make_has_pending(i)
            )

    def _make_drain(self, i: int):
        def drain() -> None:
            self._drain_seg(i)

        return drain

    def _make_has_pending(self, i: int):
        def has_pending() -> bool:
            return self.open_n[i] != 0.0

        return has_pending

    def detach(self) -> None:
        """Drain every segment and unhook the ledger sources, witness
        and debt cells and protection-change logs, and release the
        fault plan.

        Called at the end of each engine run so processes hold no
        references into a stale arena (results may outlive the engine,
        e.g. across sweep-worker pickling).
        """
        self.flush_stats()
        for i, proc in enumerate(self.processes):
            self._drain_seg(i)
            proc.pages.set_ledger_source(None, None)
            proc.pages.set_witness_cells(None)
            proc.pages.set_protect_log(False)
            proc.set_debt_cell(None)
        self.plan = None

    def flush_stats(self) -> None:
        """Fold the lazily accumulated quantum stats into each process.

        The step defers ``record_accesses`` (phase 4); this folds the
        running totals in and rearms the accumulators.  Called at
        teardown, segment retirement, and before an engine observer
        fires -- every point where per-process stats become externally
        visible.
        """
        acc_n, acc_fast = self._acc_n, self._acc_fast
        acc_user, acc_stall = self._acc_user, self._acc_stall
        for i, proc in enumerate(self.processes):
            if acc_n[i] != 0.0 or acc_user[i] != 0.0:
                proc.record_accesses(
                    float(acc_n[i]),
                    float(acc_fast[i]),
                    float(acc_user[i]),
                    float(acc_stall[i]),
                )
        acc_n.fill(0.0)
        acc_fast.fill(0.0)
        acc_user.fill(0.0)
        acc_stall.fill(0.0)

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def _drain_seg(self, i: int) -> None:
        """Move segment ``i``'s share of the open run into its pages.

        The accumulator restarts from zero afterwards, so the pending
        entry the PageState ledger sees carries the exact partial sum
        of the segment's quanta since its last drain.
        """
        amount = float(self.open_n[i])
        if amount != 0.0:
            # Clear before deferring: an eager consumer may flush (and
            # so re-enter this drain) from inside ``defer_accesses``.
            self.open_n[i] = 0.0
            self.processes[i].pages.defer_accesses(
                self.probs_refs[i], amount
            )

    # ------------------------------------------------------------------
    # Tier-mass maintenance
    # ------------------------------------------------------------------
    def _note_mass_update(self, i: int, epoch: int) -> None:
        """Record row ``i``'s new mass epoch; any mass change dirties
        the row's price for the next fold."""
        self.mass_epoch[i] = epoch
        self._price_dirty[i] = True

    def _repair_mass(self, i: int, proc: Any, probs: np.ndarray) -> None:
        pages = proc.pages
        if self.probs_refs[i] is probs and self.mass_epoch[i] != -1:
            if self.mass_epoch[i] == pages.epoch:
                return
            moves = (
                pages.moves_since(int(self.mass_epoch[i]))
                if self.mass_resync[i] > 0
                else None
            )
            if moves is not None and len(moves) <= self.mass_resync[i]:
                row = self.mass[i]
                lo = int(self.seg_starts[i])
                for _epoch, vpns, old_tiers, new_tier in moves:
                    if vpns.size:
                        moved = probs[vpns]
                        row -= np.bincount(
                            old_tiers, weights=moved, minlength=row.size
                        )
                        row[new_tier] += float(moved.sum())
                        self.concat_tier[lo + vpns] = np.int8(new_tier)
                # Replay accumulates rounding error; a tier whose true
                # mass reached zero can land a few ulps below it, and a
                # negative mass poisons the demand fold (contention
                # pricing rejects negative demand).  True mass is
                # non-negative by construction, so clamping only ever
                # removes drift.
                np.maximum(row, 0.0, out=row)
                self.mass_resync[i] -= len(moves)
                self._note_mass_update(i, pages.epoch)
                return
        self._recount_mass(i, pages, probs)

    def _recount_mass(self, i: int, pages: Any, probs: np.ndarray) -> None:
        """Full recount for segment ``i`` (distribution swap, truncated
        journal, or drift-bounding resync)."""
        lo, hi = int(self.seg_starts[i]), int(self.seg_starts[i + 1])
        self.mass[i] = np.bincount(
            pages.tier.astype(np.int64),
            weights=probs,
            minlength=self.n_tiers,
        )
        self.concat_tier[lo:hi] = pages.tier
        self._note_mass_update(i, pages.epoch)
        self.mass_resync[i] = MASS_RESYNC_MOVES

    def _repair_mass_many(self, stale: List[Any]) -> None:
        """Repair several stale segments in one fused journal replay.

        ``stale`` holds ``(i, proc)`` pairs whose ``mass_epoch`` lags
        their pages' epoch.  A single stale segment -- every repair of a
        one-process arena, and any quantum of a fleet in which one row
        moved -- takes :meth:`_repair_mass`, the per-entry ``bincount``
        replay.  Otherwise each replayable segment's journal entries
        fold through the single-source fast path: a migration batch
        moves pages from one tier, so the replay is two scalar mass
        updates per entry (probs gathered once from the concatenated
        copy) instead of a weighted ``bincount`` plus a gather per
        entry.  Mixed-source entries keep the bincount.  The
        single-source subtraction rounds as sum-then-subtract where the
        per-entry replay subtracts per-element, so the two paths can
        differ in the last ulp; each is deterministic, and the oracle
        takes the same one.  Segments that cannot replay (distribution
        swap, truncated journal, resync countdown) full-recount.
        """
        if len(stale) == 1:
            i, proc = stale[0]
            self._repair_mass(i, proc, self.probs_refs[i])
            return
        concat_probs = self.concat_probs
        concat_tier = self.concat_tier
        seg_starts = self.seg_starts
        replayed = False
        for i, proc in stale:
            pages = proc.pages
            moves = (
                pages.moves_since(int(self.mass_epoch[i]))
                if self.mass_epoch[i] != -1 and self.mass_resync[i] > 0
                else None
            )
            if moves is None or len(moves) > self.mass_resync[i]:
                self._recount_mass(i, pages, self.probs_refs[i])
                continue
            lo = int(seg_starts[i])
            row = self.mass[i]
            for _epoch, vpns, old_tiers, new_tier in moves:
                if vpns.size:
                    gvpns = lo + vpns
                    moved = float(concat_probs[gvpns].sum())
                    first = int(old_tiers[0])
                    if (old_tiers == first).all():
                        # Single-source entry (every migration batch in
                        # practice): two scalar updates replace the
                        # per-tier bincount.
                        row[first] -= moved
                    else:
                        row -= np.bincount(
                            old_tiers,
                            weights=concat_probs[gvpns],
                            minlength=row.size,
                        )
                    row[new_tier] += moved
                    concat_tier[gvpns] = np.int8(new_tier)
            self.mass_resync[i] -= len(moves)
            self._note_mass_update(i, pages.epoch)
            replayed = True
        if replayed:
            # Same drift clamp as the sequential replay (see
            # _repair_mass); the mass matrix is n_segs x n_tiers, so
            # clamping it whole is cheaper than tracking replayed rows.
            mass_flat = self.mass.reshape(-1)
            np.maximum(mass_flat, 0.0, out=mass_flat)

    # ------------------------------------------------------------------
    # Hot-loop maintenance
    # ------------------------------------------------------------------
    def _retire_rows(self) -> None:
        """Drop finished processes from the hot-loop rows (segment
        retirement).  Their ledger share stays attached -- open runs
        drain lazily on the next counter read -- and their mask entry
        zeroes them out of every pricing vector."""
        self._ss_valid = False
        self.flush_stats()
        self._rows = [
            row for row in self._rows if not row[1].finished
        ]
        self._target_rows = [
            row for row in self._rows
            if row[1].target_accesses is not None
        ]
        self._dynamic_rows = [
            row for row in self._dynamic_rows if not row[1].finished
        ]

    def _swap_probs(self, i: int, probs: np.ndarray, workload: Any) -> None:
        """Phase change: close segment ``i``'s open ledger run against
        the old distribution, then swap in the new slice.  The profile
        scalars (write fraction, compute delay) refresh here too -- a
        workload that changes them must swap its distribution object,
        the same identity contract the fusion witness relies on."""
        self._ss_valid = False
        self._drain_seg(i)
        lo, hi = int(self.seg_starts[i]), int(self.seg_starts[i + 1])
        self.concat_probs[lo:hi] = probs
        self.probs_refs[i] = probs
        self._wf[i] = workload.write_fraction
        self._delay[i] = workload.delay_ns_per_access
        self._note_mass_update(i, -1)  # force recount
        # The plan's slots carry the old distribution's rates.
        self.plan.resync[i] = True

    def _resolve_policy_hook(self, policy: Any):
        """The policy's ``on_quantum`` binding, or ``None`` when it keeps
        the base-class no-op (the per-row call loop is skipped)."""
        if policy is not self._policy_seen:
            self._policy_seen = policy
            hook = getattr(type(policy), "on_quantum", None)
            if hook is None or hook is TieringPolicy.on_quantum:
                self._policy_hook = None
            else:
                self._policy_hook = policy.on_quantum
        return self._policy_hook

    # ------------------------------------------------------------------
    # The batched step
    # ------------------------------------------------------------------
    def _gather(self, start_ns: int, quantum_ns: int) -> bool:
        """Phase 1 of :meth:`step`: budgets, workload advance and
        distribution swaps, tier-mass repair, kernel debt.  Returns
        whether a row finished (the caller retires it)."""
        refs = self.probs_refs
        procs = self.processes
        budget = self._budget
        live_mask = self._live_mask
        retired = False
        if self._budget_tainted or self._budget_fill != float(quantum_ns):
            # A new quantum length, or budgets a debt drain cut: the
            # cached ``n`` vector is stale even when nothing else moved.
            budget.fill(float(quantum_ns))
            self._budget_fill = float(quantum_ns)
            self._budget_tainted = False
            self._ss_valid = False
        for row in self._dynamic_rows:
            i, proc, workload, pages = row
            if proc.finished:
                live_mask[i] = False
                retired = True
                continue
            workload.advance(start_ns)
            probs = workload.access_distribution()
            if probs is not refs[i]:
                self._swap_probs(i, probs, workload)
        stale_buf = self._stale_buf
        np.not_equal(self._cells[0], self.mass_epoch, out=stale_buf)
        stale_buf &= live_mask
        stale_idx = np.flatnonzero(stale_buf)
        if stale_idx.size:
            self._repair_mass_many(
                [(int(k), procs[k]) for k in stale_idx.tolist()]
            )
            self._ss_valid = False
        debt = self._debt_cells
        if debt.any():
            self._ss_valid = False
            self._budget_tainted = True
            for k in np.flatnonzero(debt).tolist():
                if live_mask[k]:
                    budget[k] = quantum_ns - procs[
                        k
                    ].drain_pending_kernel(quantum_ns)
        return retired

    def step(self, start_ns: int, quantum_ns: int) -> np.ndarray:
        """Execute one (macro-)quantum for every process; returns the
        fleet's per-tier byte demand.

        O(dynamic + dirty rows) Python work per quantum, vectorised over
        the witness cells for everything else.
        """
        engine = self.engine
        refs = self.probs_refs
        cells = self._cells
        budget, n_vec = self._budget, self._n
        live_mask = self._live_mask

        # ---- Phase 1: gather (vectorised staleness/debt detection) ----------
        if self._gather(start_ns, quantum_ns):
            self._retire_rows()
        if not self._rows:
            self._demand_out.fill(0.0)
            return self._demand_out
        retired = False

        # ---- Phase 2: pricing (dirty rows only) -----------------------------
        read_lats = engine._read_lat_list
        write_lats = engine._write_lat_list
        if (
            read_lats != self._lat_read_cache
            or write_lats != self._lat_write_cache
        ):
            # The engine rebuilds these list objects every step, so the
            # cache compares values; contention keeps them stable while
            # no migration traffic flows.
            self._lat_read_cache = list(read_lats)
            self._lat_write_cache = list(write_lats)
            self._read_lat_arr[:] = read_lats
            self._write_lat_arr[:] = write_lats
            self._price_dirty[:] = True
        wf, rf, delay = self._wf, self._rf, self._delay
        if not self._ss_valid:
            # ``rf`` only drifts with ``wf``, and every ``wf`` writer
            # (swap, retire, rebuild) drops the steady-state flag.
            np.subtract(1.0, wf, out=rf)
        mass = self.mass
        mean_lat, per_cost = self._mean_lat, self._per_cost
        dirty = self._price_dirty
        refold = np.flatnonzero(dirty)
        if refold.size:
            # Masked refold, same per-element FP sequence as a full fold:
            # cached rows equal recomputed rows bit for bit.
            price_fold(
                mass,
                rf,
                wf,
                self._read_lat_arr,
                self._write_lat_arr,
                refold,
                mean_lat,
            )
            per_cost[refold] = mean_lat[refold] + delay[refold]
            dirty[refold] = False
            self.repriced_segments += int(refold.size)
            self._ss_valid = False
        self.reprice_skipped_segments += self.n_segs - int(refold.size)
        if not self._ss_valid:
            np.maximum(budget, 0.0, out=budget)
            n_vec.fill(0.0)
            np.divide(
                budget, per_cost, out=n_vec, where=per_cost > 0.0
            )
            # Finished segments price to zero in one multiply (True is
            # an exact 1.0 factor, so live lanes are untouched).
            np.multiply(n_vec, live_mask, out=n_vec)
            # Zero-mass lanes (idle trace phases) complete no accesses.
            # ``sign`` of the non-negative per-segment mass total is an
            # exact 1.0 for every lane with traffic.
            zm = self._tmp
            np.sum(mass, axis=1, out=zm)
            np.sign(zm, out=zm)
            np.multiply(n_vec, zm, out=n_vec)

        # ---- Phase 3: fault draw --------------------------------------------
        faults = self._faults
        have_faults = self._fault_phase(start_ns, quantum_ns)

        # ---- Phases 4-6: ledger, stats, latency, demand ---------------------
        # One concatenated ledger account: extends every segment's share
        # of the open run (zero for finished/stalled segments).
        self.open_n += n_vec
        bwm = self.kernel.machine.write_bw_multiplier
        if self._ss_valid and np.array_equal(bwm, self._bwm_cache):
            # Steady state: every product below is a function of
            # unchanged inputs, so the cached vectors equal what the
            # recompute would produce bit for bit.
            self._fold_latency(
                n_vec, faults, have_faults, recompute=False
            )
        else:
            np.multiply(mass[:, FAST_TIER], n_vec, out=self._fast_prod)
            np.multiply(n_vec, mean_lat, out=self._user_prod)
            np.multiply(n_vec, delay, out=self._stall_prod)
            self._fold_latency(n_vec, faults, have_faults)
            # Demand fold: mass * ((n * CACHE_LINE) * ((1-wf) + wf *
            # bwm)) per segment, then one segment sum.
            tmp = self._tmp
            weight = self._weight_rows
            np.multiply(wf[:, None], bwm[None, :], out=weight)
            weight += rf[:, None]
            np.multiply(n_vec, CACHE_LINE_BYTES, out=tmp)
            weight *= tmp[:, None]
            np.multiply(mass, weight, out=self._demand_rows)
            np.sum(self._demand_rows, axis=0, out=self._demand_out)
            np.copyto(self._bwm_cache, bwm)
            self._ss_valid = True
        # Four vector adds instead of one record_accesses call per
        # process (one addition per quantum each, never reassociated);
        # flush_stats folds the totals into each process's stats at
        # retirement/observation/teardown.
        self._acc_n += n_vec
        self._acc_fast += self._fast_prod
        self._acc_user += self._user_prod
        self._acc_stall += self._stall_prod

        # ---- Phase 7: policy hooks, finish checks, witness ------------------
        hook = self._resolve_policy_hook(self.kernel.policy)
        if hook is not None:
            n_list = n_vec.tolist()
            for row in self._rows:
                i = row[0]
                hook(row[1], refs[i], n_list[i], start_ns, quantum_ns)
        acc_n = self._acc_n
        for row in self._target_rows:
            i, proc, workload, pages = row
            if proc.stats.accesses + acc_n[i] >= proc.target_accesses:
                proc.finished = True
                live_mask[i] = False
                retired = True
        if engine.fusion:
            # The witness only feeds the fusion-horizon check: one copy
            # from the write-through cells.
            np.copyto(self.witness_epochs, cells[:2])
        if retired:
            self._retire_rows()
        return self._demand_out

    def take_reprice_counters(self) -> tuple:
        """``(repriced, skipped)`` segment-repricing deltas since the
        last call (the engine's obs block turns these into counters)."""
        out = (self.repriced_segments, self.reprice_skipped_segments)
        self.repriced_segments = 0
        self.reprice_skipped_segments = 0
        return out

    # ------------------------------------------------------------------
    def _fault_phase(self, start_ns: int, quantum_ns: int) -> bool:
        """Phase 3: draw, resolve and deliver this quantum's hint faults
        into ``_faults``; returns whether any segment was eligible
        (positive accesses and protected pages)."""
        n_vec, cells = self._n, self._cells
        eligible = np.flatnonzero((n_vec > 0.0) & (cells[2] > 0))
        if not eligible.size:
            return False
        faults = self._faults
        faults.fill(0.0)
        self.plan.draw(n_vec, faults, start_ns, quantum_ns)
        # Fault-path promotions moved pages: repair the eligible rows so
        # accounting prices the post-fault placement, as the reference
        # engine's post-fault recount does.  Rows that could not fault
        # keep their gather-time mass for this quantum; a move made to
        # them meanwhile is repaired by the next gather.
        stale = eligible[self.mass_epoch[eligible] != cells[0, eligible]]
        if stale.size:
            self._repair_mass_many(
                [(i, self.processes[i]) for i in stale.tolist()]
            )
            self._ss_valid = False
        return True

    # ------------------------------------------------------------------
    def _fold_latency(
        self,
        n_vec: np.ndarray,
        faults: np.ndarray,
        have_faults: bool,
        recompute: bool = True,
    ) -> None:
        """Accumulate this quantum's latency classes into per-key
        segment vectors (the reference engine's per-process dict
        accumulations, evaluated element-wise in the same order).

        With ``recompute=False`` (the steady-state quantum cache) the
        ``reads`` / ``writes`` buffers still hold this quantum's counts
        -- mass, n, and the read/write split are unchanged -- and only
        the accumulations run.  The fault adjustment never mutates the
        buffers either way: the adjusted last-tier read counts go
        through a scratch vector, producing the same subtraction the
        in-place update would."""
        engine = self.engine
        store = self._lat_store
        read_keys = engine._read_keys
        write_keys = engine._write_keys
        positive = self._positive
        reads, writes = self._reads, self._writes
        fold_zero = self._fold_zero
        if recompute:
            tier_counts = self._tier_counts
            np.multiply(self.mass, n_vec[:, None], out=tier_counts)
            # Tiers without positive mass are skipped, as in the
            # reference engine (repair drift can leave a ~-1e-20
            # residue in a row); masking by the boolean is exact
            # (x * True == x, x * False == 0.0).
            np.greater(tier_counts, 0.0, out=positive)
            np.multiply(tier_counts, self._rf[:, None], out=reads)
            reads *= positive
            np.multiply(tier_counts, self._wf[:, None], out=writes)
            writes *= positive
            any_tier = positive.any(axis=0)
            for tier_id in range(self.n_tiers):
                empty = not any_tier[tier_id]
                fold_zero[2 * tier_id] = empty or not reads[
                    :, tier_id
                ].any()
                fold_zero[2 * tier_id + 1] = empty or not writes[
                    :, tier_id
                ].any()
        last_tier = self.n_tiers - 1
        last_reads = reads[:, last_tier]
        if have_faults:
            # Faulted accesses pay the trap cost on top; attribute them
            # to the slowest tier's reads first, but only for segments
            # that actually have mass there (the reference engine skips
            # empty tiers entirely).
            faulted = self._faulted
            np.minimum(reads[:, last_tier], faults, out=faulted)
            faulted *= positive[:, last_tier]
            if faulted.any():
                fault_key = engine._fault_key
                vec = store.get(fault_key)
                if vec is None:
                    vec = store[fault_key] = np.zeros(
                        self.n_segs, dtype=np.float64
                    )
                vec += faulted
                last_reads = np.subtract(
                    reads[:, last_tier], faulted, out=self._last_reads
                )
        for tier_id in range(self.n_tiers):
            tier_reads = (
                last_reads if tier_id == last_tier else reads[:, tier_id]
            )
            for key, counts, zero in (
                (read_keys[tier_id], tier_reads, fold_zero[2 * tier_id]),
                (
                    write_keys[tier_id],
                    writes[:, tier_id],
                    fold_zero[2 * tier_id + 1],
                ),
            ):
                if zero:
                    # Counts are non-negative, so an all-zero vector
                    # adds +0.0 everywhere: a bitwise no-op.
                    continue
                vec = store.get(key)
                if vec is None:
                    vec = store[key] = np.zeros(
                        self.n_segs, dtype=np.float64
                    )
                vec += counts

    def flush_latency_into(self, engine: Any) -> None:
        """Scatter the per-key segment vectors into the engine's
        mixtures, key by key and segment by segment (segments are in
        ``kernel.processes`` order)."""
        store = self._lat_store
        if not store:
            return
        global_mix = engine.latency
        by_pid = engine.latency_by_pid
        for key, vec in store.items():
            for i, proc in enumerate(self.processes):
                count = float(vec[i])
                if count == 0.0:
                    continue
                global_mix.add_keyed(key, count)
                pid_mix = by_pid.get(proc.pid)
                if pid_mix is None:
                    pid_mix = by_pid.setdefault(
                        proc.pid, LatencyMixture()
                    )
                pid_mix.add_keyed(key, count)
        store.clear()


def _fit(arr: np.ndarray, n: int) -> np.ndarray:
    """``arr`` itself, or a geometrically grown copy holding ``n``."""
    if n <= arr.size:
        return arr
    out = np.empty(max(n, 2 * arr.size), dtype=arr.dtype)
    out[: arr.size] = arr
    return out


class FaultPlan:
    """One hint-fault plan over an arena's concatenated address space.

    Every protected page that can fault -- positive access probability
    ``p`` under its segment's current distribution -- owns one *slot*;
    zero-rate pages own none (they cannot fault, and ``_resolve``
    divides by the rate).  Pages whose per-quantum touch probability was
    at least ``FAULT_DORMANT_MAX_TOUCH`` when they entered get an
    *active* slot and one Bernoulli draw ``1 - exp(-n_i p)`` each; the
    rest share *dormant* slots and one ``Poisson`` draw placed by
    inverse CDF.  The dormant CDF is a plain
    cumulative sum of ``p`` over consecutive *chunks* (runs of slots of
    one segment), so weighting it by each segment's own ``n_i`` is one
    O(chunks) cumsum per draw: a draw picks a chunk by its weighted
    band, and its offset in the band over ``n_i`` is a point of the
    chunk's own CDF.  Both laws give every page
    ``P(touched) = 1 - exp(-n_i p)``, independently.

    Upkeep is O(changes) per quantum.  Pages the resolve unprotects, and
    pages the protection-change logs report unprotected, are tombstoned
    in place: an active slot's rate drops to zero, a dormant slot keeps
    its CDF band and draws landing on it are discarded (Poisson
    thinning, exact).  Pages the logs report protected are appended if
    their rate is positive.  A segment is resynced from its
    ``prot_none`` before the first draw, after a distribution swap (which
    may turn zero-rate pages positive and back) and when its log
    overflowed.  The slot tables are rebuilt -- from the live slots, in
    one vectorised pass -- only when dead dormant slots outnumber live
    ones or the chunk table outgrows the fleet; the active table alone is
    compacted whenever its dead slots outnumber its live ones.
    """

    def __init__(self, arena: ProcessArena) -> None:
        self.arena = arena
        self.processes = arena.processes
        self.seg_starts = arena.seg_starts
        self.cells = arena._cells
        self.rng = arena.rng
        #: page -> slot: ``s + 1`` for active slot ``s``, ``-(s + 1)``
        #: for dormant slot ``s``, 0 for none
        self.slot_of = np.zeros(int(arena.seg_starts[-1]), dtype=np.int32)
        #: all-False scratch mask over one segment (log deduplication)
        self.mark = np.zeros(
            int(np.diff(arena.seg_starts).max(initial=0)), dtype=bool
        )
        #: active slots: global page (-1 once dead), segment, probability
        self.a_page = np.empty(0, dtype=np.int64)
        self.a_seg = np.empty(0, dtype=np.int64)
        self.a_p = np.empty(0, dtype=np.float64)
        #: dormant slots: global page (-1 once dead), cumulative ``p``
        self.d_page = np.empty(0, dtype=np.int64)
        self.d_cum = np.empty(0, dtype=np.float64)
        #: dormant chunks, consecutive runs covering every dormant slot:
        #: segment and end slot (exclusive)
        self.c_seg = np.empty(0, dtype=np.int64)
        self.c_end = np.empty(0, dtype=np.int64)
        self.a_n = self.d_n = self.c_n = 0
        #: live active and dormant slots (the rest of ``a_n`` / ``d_n``
        #: are tombstones)
        self.a_live = self.d_live = 0
        #: protect epoch each segment's log was last drained at, and the
        #: segments to re-read from ``prot_none`` (all, before the first
        #: draw; then those whose distribution swapped)
        self.seen = np.zeros(arena.n_segs, dtype=np.int64)
        self.resync = np.ones(arena.n_segs, dtype=bool)
        self.max_chunks = 2 * arena.n_segs + 64
        #: monotonic counters, drained by :meth:`take_counters`
        self.rebuilds = self.resyncs = 0
        self.appended = self.tombstoned = 0
        for proc in self.processes:
            proc.pages.set_protect_log(True)

    def take_counters(self) -> Dict[str, int]:
        """Counter deltas since the last call, keyed by metric name."""
        out = {
            "arena.fault_plan_rebuilds": self.rebuilds,
            "arena.fault_plan_resyncs": self.resyncs,
            "arena.fault_plan_appended": self.appended,
            "arena.fault_plan_tombstoned": self.tombstoned,
        }
        self.rebuilds = self.resyncs = 0
        self.appended = self.tombstoned = 0
        return out

    # ------------------------------------------------------------------
    # Upkeep
    # ------------------------------------------------------------------
    def _rebuild(self, n_vec: np.ndarray) -> None:
        """Rebuild the slot tables from the live slots alone: dead slots
        go, chunks merge, and the active/dormant split is redone at the
        current ``n``.  O(slots): the live pages are gathered from the
        tables, not searched for in the page map."""
        self.rebuilds += 1
        a_page, d_page = self.a_page[: self.a_n], self.d_page[: self.d_n]
        live = np.concatenate([a_page[a_page >= 0], d_page[d_page >= 0]])
        live.sort()
        self.a_n = self.d_n = self.c_n = 0
        self.a_live = self.d_live = 0
        self._append(live, n_vec)

    def _compact_active(self) -> None:
        """Drop the dead active slots.  Hot pages churn fastest -- they
        fault within a quantum or two of their protection -- so the
        active table fills with tombstones long before the dormant one
        does, and every dead active slot costs one Bernoulli draw."""
        n = self.a_n
        keep = np.flatnonzero(self.a_page[:n] >= 0)
        for name in ("a_page", "a_seg", "a_p"):
            arr = getattr(self, name)
            arr[: keep.size] = arr[keep]
        self.slot_of[self.a_page[: keep.size]] = np.arange(1, keep.size + 1)
        self.a_n = keep.size

    def _apply_changes(self, n_vec: np.ndarray) -> None:
        """Drain the logs of segments whose protect epoch moved."""
        epochs = self.cells[1]
        todo = np.flatnonzero((epochs != self.seen) | self.resync)
        if not todo.size:
            return
        slot_of = self.slot_of
        kills, adds = [], []
        for i in todo.tolist():
            pages = self.processes[i].pages
            lo = int(self.seg_starts[i])
            log = pages.take_protect_log()
            if log is None or self.resync[i]:
                self.resyncs += 1
                hi = int(self.seg_starts[i + 1])
                kills.append(np.flatnonzero(slot_of[lo:hi]) + lo)
                adds.append(np.flatnonzero(pages.prot_none) + lo)
            elif log:
                vpns = log[0]
                if len(log) > 1:
                    # Sorted and duplicate-free through the scratch mask:
                    # one pass over the segment instead of a sort.
                    mark = self.mark[: int(self.seg_starts[i + 1]) - lo]
                    mark[np.concatenate(log)] = True
                    vpns = np.flatnonzero(mark)
                    mark[vpns] = False
                on = pages.prot_none[vpns]
                g = vpns + lo
                has = slot_of[g] != 0
                kills.append(g[has & ~on])
                adds.append(g[on & ~has])
        self.seen[todo] = epochs[todo]
        self.resync[todo] = False
        if kills:
            self._tombstone(np.concatenate(kills))
        if adds:
            self.appended += self._append(np.concatenate(adds), n_vec)

    def _tombstone(self, g: np.ndarray) -> None:
        """Kill the slots of pages ``g`` (every one of which owns one)."""
        slots = self.slot_of[g]
        active = slots[slots > 0] - 1
        self.a_page[active] = -1
        self.a_p[active] = 0.0
        self.a_live -= active.size
        dormant = -slots[slots < 0] - 1
        self.d_page[dormant] = -1
        self.d_live -= dormant.size
        self.slot_of[g] = 0
        self.tombstoned += g.size

    def _append(self, g: np.ndarray, n_vec: np.ndarray) -> int:
        """Give slots to those of pages ``g`` (ascending global indices)
        that can fault; returns the number of slots appended."""
        p = self.arena.concat_probs[g]
        can = p > 0.0
        if not can.all():
            g, p = g[can], p[can]
        if not g.size:
            return 0
        seg = np.searchsorted(self.seg_starts, g, side="right") - 1
        # The split only steers cost (both laws are exact): the
        # touch-probability cut at the segment's current n.
        active = p >= FAULT_DORMANT_MAX_TOUCH / np.maximum(n_vec[seg], 1.0)
        ga = g[active]
        if ga.size:
            a0, a1 = self.a_n, self.a_n + ga.size
            self.a_page = _fit(self.a_page, a1)
            self.a_seg = _fit(self.a_seg, a1)
            self.a_p = _fit(self.a_p, a1)
            self.a_page[a0:a1] = ga
            self.a_seg[a0:a1] = seg[active]
            self.a_p[a0:a1] = p[active]
            self.slot_of[ga] = np.arange(a0 + 1, a1 + 1)
            self.a_n = a1
            self.a_live += ga.size
        dormant = ~active
        gd = g[dormant]
        if gd.size:
            d0, d1 = self.d_n, self.d_n + gd.size
            self.d_page = _fit(self.d_page, d1)
            self.d_cum = _fit(self.d_cum, d1)
            base = float(self.d_cum[d0 - 1]) if d0 else 0.0
            cum = np.cumsum(p[dormant])
            cum += base
            self.d_page[d0:d1] = gd
            self.d_cum[d0:d1] = cum
            self.slot_of[gd] = -np.arange(d0 + 1, d1 + 1)
            self.d_n = d1
            # One chunk per run of one segment's slots.
            sd = seg[dormant]
            ends = np.r_[np.flatnonzero(sd[1:] != sd[:-1]) + 1, sd.size]
            c0, c1 = self.c_n, self.c_n + ends.size
            self.c_seg = _fit(self.c_seg, c1)
            self.c_end = _fit(self.c_end, c1)
            self.c_seg[c0:c1] = sd[ends - 1]
            self.c_end[c0:c1] = ends + d0
            self.c_n = c1
            self.d_live += gd.size
        return g.size

    # ------------------------------------------------------------------
    # The draw
    # ------------------------------------------------------------------
    def refresh(self, n_vec: np.ndarray) -> None:
        """Bring the slots up to date with every segment's protected
        set (``n_vec`` steers the active/dormant split of new slots).

        Afterwards every live slot's page is protected and has positive
        rate under its segment's current distribution.  The tables are
        rebuilt when dead dormant slots outnumber live ones or the chunk
        table overflows; dead active slots alone never trigger a rebuild
        (the live set can be small enough that they would on every
        burst of faults) -- the active table is compacted instead.
        """
        self._apply_changes(n_vec)
        if self.d_n > 2 * self.d_live or self.c_n > self.max_chunks:
            self._rebuild(n_vec)
        elif self.a_n > 2 * self.a_live:
            self._compact_active()

    def draw(
        self,
        n_vec: np.ndarray,
        faults: np.ndarray,
        start_ns: int,
        quantum_ns: int,
    ) -> None:
        """Draw, resolve and deliver one quantum's hint faults for every
        segment at its access count ``n_vec[i]``; each faulting
        segment's count is written to ``faults`` (others untouched)."""
        self.refresh(n_vec)
        rng = self.rng
        parts = []
        a_n = self.a_n
        if a_n:
            lam = self.a_p[:a_n] * n_vec[self.a_seg[:a_n]]
            hit = np.flatnonzero(rng.random(a_n) < -np.expm1(-lam))
            parts.append(self.a_page[hit])
        c_n = self.c_n
        if c_n:
            c_seg, c_end = self.c_seg[:c_n], self.c_end[:c_n]
            # The dormant CDF at each chunk's start and end.
            top = self.d_cum[c_end - 1]
            before = np.r_[0.0, top[:-1]]
            rates = n_vec[c_seg] * (top - before)
            cum = np.cumsum(rates)
            total = float(cum[-1])
            k = int(rng.poisson(total)) if total > 0.0 else 0
            if k:
                draws = rng.random(k) * total
                j = np.searchsorted(cum, draws, side="right")
                np.minimum(j, c_n - 1, out=j)
                # A draw rounding onto the top edge may land on an idle
                # chunk (measure zero): drop it.
                keep = rates[j] > 0.0
                j, draws = j[keep], draws[keep]
                # Uniform on its chunk's band; rescaled by the segment's
                # n it is uniform on the chunk's p mass.
                values = before[j] + (draws - (cum[j] - rates[j])) / (
                    n_vec[c_seg[j]]
                )
                slots = np.searchsorted(
                    self.d_cum[: self.d_n], values, side="right"
                )
                starts = np.r_[0, c_end[:-1]]
                np.clip(slots, starts[j], c_end[j] - 1, out=slots)
                g = self.d_page[np.unique(slots)]
                # Dead slots thin the draw.
                parts.append(g[g >= 0])
        if parts:
            touched = np.sort(np.concatenate(parts))
            if touched.size:
                self._tombstone(touched)
                self._resolve(touched, n_vec, faults, start_ns, quantum_ns)

    def _resolve(
        self,
        touched: np.ndarray,
        n_vec: np.ndarray,
        faults: np.ndarray,
        start_ns: int,
        quantum_ns: int,
    ) -> None:
        """Fault offsets for every touched page in one pass, then one
        ``FaultBatch`` per segment in ascending order."""
        seg_starts = self.seg_starts
        seg = np.searchsorted(seg_starts, touched, side="right") - 1
        rates = n_vec[seg] * self.arena.concat_probs[touched] / quantum_ns
        offsets = first_access_offsets(
            self.rng.random(touched.size), rates, quantum_ns
        )
        offsets += start_ns
        all_vpns = touched - seg_starts[seg]
        bounds = np.flatnonzero(seg[1:] != seg[:-1]) + 1
        starts = np.r_[0, bounds]
        seen = self.seen
        deliver = self.arena.kernel.deliver_faults
        for i, a, b in zip(
            seg[starts].tolist(),
            starts.tolist(),
            np.r_[bounds, seg.size].tolist(),
        ):
            proc = self.processes[i]
            pages = proc.pages
            vpns = all_vpns[a:b]
            fault_ts = offsets[a:b]
            scan_ts = pages.scan_ts_ns[vpns]
            cit = fault_ts - scan_ts
            cit[scan_ts < 0] = -1  # never stamped: no CIT
            # A segment untouched since the drain stays drained.
            clean = pages.protect_epoch == seen[i]
            pages.unprotect_resolved(vpns)
            if clean:
                seen[i] = pages.protect_epoch
            pages.accessed[vpns] = True
            deliver(proc, FaultBatch(proc.pid, vpns, fault_ts, cit))
            faults[i] = b - a
