"""Cross-process arena stepping: one batched array program per quantum.

The per-process fast path (PR 5) executes ``run_quantum`` once per
process per (macro-)quantum -- at fleet sizes the numpy dispatch and
Python bookkeeping of those per-process calls dominate the step.  The
arena concatenates every process's page-level state into one global
address space partitioned into *segments* (one per process, in
``kernel.processes`` order) and executes each quantum as a single
segment-wise array program:

::

    segment        0            1          2        3
              +-----------+-----------+-------+------------+
    probs     | p0 ...    | p1 ...    | p2 ...| p3 ...     |   float64
    tier ids  | t0 ...    | t1 ...    | t2 ...| t3 ...     |   int8
              +-----------+-----------+-------+------------+
    offsets   ^0          ^s1         ^s2     ^s3          ^s4  seg_starts
    per-seg   tier-mass rows   [n_segs x n_tiers]   (journal-repaired)
    ledger    open run: probs refs per segment + accumulated n vector
    witness   epoch / protect-epoch vectors + probs refs (fusion)

One quantum is then:

1. a Python *gather* pass (O(n_segs)): advance workloads, detect
   distribution swaps by identity, drain queued kernel debt, repair
   stale tier-mass rows from the page-state move journal (O(moved)),
2. one vectorised *pricing* solve: ``mean_lat = sum_t mass[:, t] *
   (rf * read_lat[t] + wf * write_lat[t])`` and
   ``n = max(budget, 0) / (mean_lat + delay)`` over all segments at
   once -- the identical scalar operations the per-process path
   performs, evaluated element-wise (bit-identical per segment),
3. one *aggregate fault draw* from the arena's :class:`FaultPlan`:
   active (hot) protected pages of every segment share one Bernoulli
   vector, dormant ones one ``K ~ Poisson(sum_i n_i * mass_i)`` draw
   placed by an n-weighted inverse CDF -- exact by Poisson
   superposition / thinning.  The plan's upkeep is O(changes): resolved
   faults tombstone their slots in place, and per-page-state
   protection-change logs feed appends and tombstones for the segments
   whose protect-epoch witness moved.  All touched pages get their
   fault offsets in one pass; each faulting process still gets one
   ``FaultBatch`` through ``Kernel.deliver_faults``, in segment order.
   Single-process arenas have no plan and keep the per-process sampler
   with the process's own stream (bit-identical to the reference mode),
4. one *ledger account*: ``open_n += n_vec`` extends the concatenated
   open run; each segment's share drains lazily into its
   ``PageState``'s own pending ledger the first time a consumer reads
   the counters (``PageState.set_ledger_source``),
5. one *latency fold*: per-class counts accumulate into per-key
   vectors over segments (keyed by the engine's per-quantum latency
   keys) and scatter into per-process mixtures once per run,
6. one *demand fold*: per-tier byte demand summed over segments.

Equivalence contract (``docs/SIMULATION.md`` section 7): a
single-process arena executes the same IEEE-754 operations in the same
order as the per-process fast path, so its trajectory is bit-identical;
multi-process arenas draw touches and fault times from the fault plan's
one stream (the ``engine.arena`` RNG) instead of per-process streams,
so they match the per-process mode statistically (same laws), not bit
for bit.
``arena=False`` keeps the per-process path as the reference mode for
equivalence gating.

Distribution interning (``docs/SIMULATION.md`` section 8)
---------------------------------------------------------

Fleet-shaped experiments run many tenants over *identical* access
distributions (the compiled-table cache in :mod:`repro.workloads.base`
already hands every same-parameter workload the same frozen array).
With ``intern`` enabled (the default) a multi-segment arena groups its
stationary segments into **equivalence classes** keyed on the identity
of their ``probs`` array plus the profile scalars ``(write_fraction,
delay)``, and replaces the per-segment steady-state work with
per-class work:

* *pricing*: one class-level mass aggregation (the mean of the member
  tier-mass rows) feeds a single scalar pricing fold per class; the
  resulting ``mean_lat``/``per_cost`` scatter to every member.
  Segments outside any class re-price through the masked
  :func:`repro.sim.jit.price_fold` kernel **only when dirty** -- a
  per-class/per-segment dirty bit rides the epoch witness cells that
  every ``PageState`` writes through on mutation, so unchanged rows
  skip re-pricing entirely,
* *gather*: the O(n_segs) Python gather loop collapses to vectorised
  compares over the witness cell matrix (placement epoch, protect
  epoch, protected count) and the pending-debt mirror vector; only
  non-stationary workloads keep a per-row ``advance`` call,
* *ledger*: members of a class share one ``probs`` reference, so the
  concatenated open run is a merged ``(probs, sum_i n_i)`` run
  (:meth:`class_ledger_runs`); each segment's share drains lazily with
  its own ``n_i`` -- exact thinning by linearity of
  ``defer_accesses``,
* *faults*: the interned step draws from the same :class:`FaultPlan`
  as the uninterned step, with the same stream and the same upkeep, so
  its fault draws match the uninterned step's bit for bit.

Contract: when every class is a singleton (all distributions distinct)
the interned step consumes the same IEEE-754 operations and RNG stream
as the uninterned arena step, so trajectories are **bit-identical**;
multi-member classes aggregate pricing across members and match the
uninterned arena statistically.  ``intern=False``
(``RunConfig.intern`` / ``--no-intern``) keeps the uninterned step as
the reference mode.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.analysis.latency import LatencyMixture
from repro.mem.machine import CACHE_LINE_BYTES
from repro.mem.tier import FAST_TIER
from repro.policies.base import TieringPolicy
from repro.sim.jit import price_fold
from repro.vm.fault import FaultBatch, first_access_offsets
from repro.workloads.base import Workload, distribution_fingerprint


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
        #: aggregate stream for cross-segment fault draws; per-process
        #: streams keep driving fault timestamps and single-segment draws
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
        #: ledger runs and witnesses hold these by reference (the
        #: concatenated copy above can never serve identity checks)
        self.probs_refs: List[Optional[np.ndarray]] = [None] * n_segs
        # Per-segment tier-mass rows, the cache the per-process path
        # keeps in ``_ProcessBuffers``: keyed by (probs identity,
        # placement epoch), journal-repaired, drift-bounded by a resync
        # countdown.
        self.mass = np.zeros((n_segs, n_tiers), dtype=np.float64)
        # Element-wise bookkeeping lives in plain Python lists: the hot
        # gather loop reads one entry per process per quantum, and list
        # indexing is several times cheaper than numpy scalar access.
        self.mass_epoch: List[int] = [-1] * n_segs
        self.mass_resync = [0] * n_segs
        # The concatenated open ledger run: one ``n`` accumulator per
        # segment against ``probs_refs``.  ``_drain_seg`` lazily moves a
        # segment's share into its PageState pending ledger.
        self.open_n = np.zeros(n_segs, dtype=np.float64)
        # Steady-state witness vectors (the fusion contract): what the
        # last quantum ran against and the state it left behind.
        self.witness_epoch: List[int] = [-1] * n_segs
        self.witness_protect_epoch: List[int] = [-1] * n_segs
        self.witness_probs: List[Optional[np.ndarray]] = [None] * n_segs
        self._index = {p.pid: i for i, p in enumerate(self.processes)}
        # Per-step scratch vectors (all O(n_segs)).
        self._wf = np.zeros(n_segs, dtype=np.float64)
        self._rf = np.zeros(n_segs, dtype=np.float64)
        self._delay = np.zeros(n_segs, dtype=np.float64)
        self._budget = np.zeros(n_segs, dtype=np.float64)
        self._mean_lat = np.zeros(n_segs, dtype=np.float64)
        self._per_cost = np.zeros(n_segs, dtype=np.float64)
        self._n = np.zeros(n_segs, dtype=np.float64)
        self._faults = np.zeros(n_segs, dtype=np.float64)
        self._coef = np.zeros(n_segs, dtype=np.float64)
        self._tmp = np.zeros(n_segs, dtype=np.float64)
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
        #: no-op -- the per-process call loop is skipped entirely)
        self._policy_seen: Any = None
        self._policy_hook = None
        #: per-segment quantum-stat accumulators (accesses, fast
        #: accesses, user ns, stall ns).  Multi-segment arenas fold these
        #: with four vector adds per quantum and flush them into each
        #: ``SimProcess.stats`` lazily (:meth:`flush_stats`) -- nothing
        #: reads the per-process copies mid-run.  Single-segment arenas
        #: keep the per-quantum ``record_accesses`` call so their stat
        #: rounding stays bit-identical to the per-process path.
        self._lazy_stats = n_segs > 1
        self._acc_n = np.zeros(n_segs, dtype=np.float64)
        self._acc_fast = np.zeros(n_segs, dtype=np.float64)
        self._acc_user = np.zeros(n_segs, dtype=np.float64)
        self._acc_stall = np.zeros(n_segs, dtype=np.float64)
        #: vector mirror of ``mass_epoch`` (interned mode only); kept
        #: ``None`` in reference mode so the write-through helper is a
        #: single cheap branch there
        self._mass_epoch_vec: Optional[np.ndarray] = None
        #: distribution-interning layer (built after the masses when the
        #: engine requests it and the arena has more than one segment;
        #: single-segment arenas keep the reference step, which is
        #: already bit-identical to the per-process path)
        self.intern = (
            bool(getattr(engine, "intern", True)) and n_segs > 1
        )
        self.n_classes = 0
        self.interned_segments = 0
        #: monotonic re-pricing counters, drained by the engine's obs
        #: block through :meth:`take_reprice_counters`
        self.repriced_segments = 0
        self.reprice_skipped_segments = 0
        # Steady-state quantum cache (interned step only): when no
        # input of the pricing / accumulation phases changed since the
        # previous quantum, the cached vectors are bitwise what
        # recomputation would produce, so the recompute dispatches are
        # skipped.  Any mutation -- mass repair, debt drain, reprice,
        # retirement, distribution swap, latency/bandwidth change, or a
        # different quantum length -- drops the flag and the next step
        # recomputes everything into the caches.
        self._ss_valid = False
        self._ss_quantum = -1
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
        #: compares
        self._cells = np.zeros((3, n_segs), dtype=np.int64)
        for i, proc in enumerate(self.processes):
            proc.pages.set_witness_cells(self._cells, i)
        self._build_masses()
        self._attach_ledger_sources()
        #: the fleet-wide fault plan; single-segment arenas keep the
        #: per-process sampler (bit-identical to the per-process path)
        self.plan: Optional[FaultPlan] = (
            FaultPlan(self) if n_segs > 1 else None
        )
        if self.intern:
            self._build_intern()

    # ------------------------------------------------------------------
    # Construction / teardown
    # ------------------------------------------------------------------
    def _build_masses(self) -> None:
        """Initial tier-mass rows via one fused segment-sum.

        ``bincount`` over ``seg_id * n_tiers + tier`` accumulates every
        segment's per-tier mass in one pass over the concatenated
        arrays; within a segment the additions run in vpn order, the
        same order a per-segment ``bincount`` uses, so the rows are
        bit-identical to the per-process computation.
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
            self.mass_resync[i] = self.engine.MASS_RESYNC_MOVES
            self._wf[i] = workload.write_fraction
            self._delay[i] = workload.delay_ns_per_access
            if proc.finished:
                self._live_mask[i] = False
        if not self._live_mask.all():
            self._retire_rows()
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

    def _build_intern(self) -> None:
        """Build the distribution-interning layer.

        Attaches the witness cell matrix / debt mirror to every
        segment's page state and process, classifies segments into
        *static* rows (stationary :class:`~repro.workloads.base.Workload`
        subclasses with an identity-stable distribution -- they skip the
        per-quantum ``advance``/``access_distribution`` calls, which are
        no-ops for them) and *dynamic* rows (everything else, stepped
        exactly as the reference gather loop does), then groups static
        rows into equivalence classes keyed on ``(id(probs),
        write_fraction, delay)``.  Classes need at least two members;
        everything else stays a singleton and keeps the bit-identical
        per-segment pricing.
        """
        n_segs = self.n_segs
        debt = self._debt_cells = np.zeros(n_segs, dtype=np.float64)
        for i, proc in enumerate(self.processes):
            proc.set_debt_cell(debt, i)
        self._mass_epoch_vec = np.array(self.mass_epoch, dtype=np.int64)
        self._stale_buf = np.zeros(n_segs, dtype=bool)
        # Witness storage becomes int64 vectors: the fusion update is
        # then two vector copies from the cell matrix per quantum
        # instead of a per-row loop.
        self.witness_epoch = np.full(n_segs, -1, dtype=np.int64)
        self.witness_protect_epoch = np.full(n_segs, -1, dtype=np.int64)
        # Pricing caches: mean_lat / per_cost persist across quanta and
        # only dirty rows re-fold.  The latency tables are value-compared
        # (the engine rebuilds the list objects every step).
        self._price_dirty = np.ones(n_segs, dtype=bool)
        self._lat_read_cache: Optional[List[float]] = None
        self._lat_write_cache: Optional[List[float]] = None
        self._read_lat_arr = np.zeros(self.n_tiers, dtype=np.float64)
        self._write_lat_arr = np.zeros(self.n_tiers, dtype=np.float64)
        # Static/dynamic split and the equivalence classes.
        self._dynamic_rows = []
        static_rows = []
        for row in self._rows:
            i, proc, workload, pages = row
            if (
                isinstance(workload, Workload)
                and type(workload).advance is Workload.advance
                and workload.access_distribution() is self.probs_refs[i]
            ):
                static_rows.append(row)
            else:
                self._dynamic_rows.append(row)
        groups: Dict[Any, List[int]] = {}
        for row in static_rows:
            i = row[0]
            key = (
                id(self.probs_refs[i]),
                float(self._wf[i]),
                float(self._delay[i]),
            )
            groups.setdefault(key, []).append(i)
        self.class_members: List[np.ndarray] = []
        self.class_probs: List[np.ndarray] = []
        self.class_fingerprints: List[Any] = []
        self._class_of = np.full(n_segs, -1, dtype=np.int64)
        class_wf: List[float] = []
        class_delay: List[float] = []
        for members in groups.values():
            if len(members) < 2:
                continue
            ref = self.probs_refs[members[0]]
            member_vec = np.array(members, dtype=np.int64)
            self._class_of[member_vec] = len(self.class_members)
            self.class_members.append(member_vec)
            self.class_probs.append(ref)
            self.class_fingerprints.append(distribution_fingerprint(ref))
            class_wf.append(float(self._wf[members[0]]))
            class_delay.append(float(self._delay[members[0]]))
        self.n_classes = len(self.class_members)
        self._class_wf = np.array(class_wf, dtype=np.float64)
        self._class_rf = 1.0 - self._class_wf
        self._class_delay = np.array(class_delay, dtype=np.float64)
        self._class_mass = np.zeros(
            (self.n_classes, self.n_tiers), dtype=np.float64
        )
        self._class_dirty = np.ones(self.n_classes, dtype=bool)
        self._interned_idx = np.flatnonzero(self._class_of >= 0)
        self._single_idx = np.flatnonzero(self._class_of < 0)
        self.interned_segments = int(self._interned_idx.size)

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
        cells and protection-change logs, and release the fault plan.

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
            if self.intern:
                proc.set_debt_cell(None)
        self.plan = None

    def flush_stats(self) -> None:
        """Fold the lazily accumulated quantum stats into each process.

        Multi-segment arenas defer ``record_accesses`` (see step phases
        4-6); this folds the running totals in and rearms the
        accumulators.  Called at teardown, segment retirement, and
        before an engine observer fires -- every point where per-process
        stats become externally visible.
        """
        if not self._lazy_stats:
            return
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
        entry the PageState ledger sees carries the exact partial-sum
        sequence the per-process path would have produced.
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
    # Tier-mass maintenance (the per-segment analogue of
    # ``QuantumEngine._tier_mass``)
    # ------------------------------------------------------------------
    def _note_mass_update(self, i: int, epoch: int) -> None:
        """Write-through for ``mass_epoch``: the interned step's vector
        mirror tracks the list, and any mass change dirties the row's
        price (and its class, when interned) for the next fold."""
        self.mass_epoch[i] = epoch
        vec = self._mass_epoch_vec
        if vec is not None:
            vec[i] = epoch
            self._price_dirty[i] = True
            c = self._class_of[i]
            if c >= 0:
                self._class_dirty[c] = True

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
        self.mass_resync[i] = self.engine.MASS_RESYNC_MOVES

    def _repair_mass_many(self, stale: List[Any]) -> None:
        """Repair several stale segments in one fused journal replay.

        ``stale`` holds ``(i, proc)`` pairs whose ``mass_epoch`` lags
        their pages' epoch.  A single stale segment delegates to
        :meth:`_repair_mass` (the bit-identical sequential path -- the
        only shape single-process arenas can produce).  Otherwise each
        replayable segment's journal entries fold through the
        single-source fast path: a migration batch moves pages from one
        tier, so the replay is two scalar mass updates per entry (probs
        gathered once from the concatenated copy) instead of a weighted
        ``bincount`` plus a gather per entry.  Mixed-source entries keep
        the bincount.  The single-source subtraction rounds as
        sum-then-subtract where the sequential replay subtracts
        per-element -- inside the multi-process statistical contract.
        Segments that cannot replay (distribution swap, truncated
        journal, resync countdown) full-recount exactly as before.
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
    # Fusion witness
    # ------------------------------------------------------------------
    def witness(self, process: Any):
        """``(probs, epoch, protect_epoch)`` from the last quantum, or
        ``None`` when this process has no arena witness yet."""
        i = self._index.get(process.pid)
        if i is None or self.witness_epoch[i] < 0:
            return None
        return (
            self.witness_probs[i],
            int(self.witness_epoch[i]),
            int(self.witness_protect_epoch[i]),
        )

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
        if self.intern:
            live = self._live_mask
            self._dynamic_rows = [
                row for row in self._dynamic_rows
                if not row[1].finished
            ]
            for c, members in enumerate(self.class_members):
                if not members.size or bool(live[members].all()):
                    continue
                alive = live[members]
                self._class_of[members[~alive]] = -1
                kept = members[alive]
                if kept.size < 2:
                    # A one-member class dissolves back to a singleton;
                    # its cached price is the class mean, so force a
                    # per-segment refold.
                    self._class_of[kept] = -1
                    self._price_dirty[kept] = True
                    kept = kept[:0]
                self.class_members[c] = kept
                self._class_dirty[c] = True
            self._interned_idx = np.flatnonzero(self._class_of >= 0)
            self._single_idx = np.flatnonzero(self._class_of < 0)
            self.interned_segments = int(self._interned_idx.size)

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
        if self.plan is not None:
            # The plan's slots carry the old distribution's rates.
            self.plan.resync[i] = True

    def _resolve_policy_hook(self, policy: Any):
        """The policy's ``on_quantum`` binding, or ``None`` when it keeps
        the base-class no-op (the per-process call loop is skipped)."""
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
    def step(self, start_ns: int, quantum_ns: int) -> np.ndarray:
        """Execute one (macro-)quantum for every process; returns the
        fleet's per-tier byte demand."""
        if self.intern:
            return self._step_interned(start_ns, quantum_ns)
        return self._step_reference(start_ns, quantum_ns)

    def _step_reference(self, start_ns: int, quantum_ns: int) -> np.ndarray:
        """The uninterned per-segment step (the PR 8 arena path): the
        bit-identity reference for singleton-class interned runs and the
        baseline the ``class_dedup`` bench speedup is measured against."""
        engine = self.engine
        profiler = self.kernel.profiler
        rows = self._rows
        refs = self.probs_refs
        m_epoch = self.mass_epoch
        wf, rf, delay = self._wf, self._rf, self._delay
        budget, n_vec = self._budget, self._n
        live_mask = self._live_mask
        retired = False

        # ---- Phase 1: gather ------------------------------------------------
        if profiler is not None:
            profiler.push("arena_build")
        budget.fill(float(quantum_ns))
        stale: List[Any] = []
        for row in rows:
            i, proc, workload, pages = row
            if proc.finished:
                live_mask[i] = False
                retired = True
                continue
            workload.advance(start_ns)
            probs = workload.access_distribution()
            if probs is not refs[i]:
                self._swap_probs(i, probs, workload)
            if m_epoch[i] != pages.epoch:
                stale.append((i, proc))
            if proc.pending_kernel_ns:
                budget[i] = quantum_ns - proc.drain_pending_kernel(
                    quantum_ns
                )
        if stale:
            self._repair_mass_many(stale)
        if profiler is not None:
            profiler.pop()
        if retired:
            self._retire_rows()
            rows = self._rows
            retired = False
        if not rows:
            self._demand_out.fill(0.0)
            return self._demand_out

        # ---- Phase 2: pricing (one segment fold) ----------------------------
        if profiler is not None:
            profiler.push("segment_fold")
        read_lats = engine._read_lat_list
        write_lats = engine._write_lat_list
        np.subtract(1.0, wf, out=rf)
        mean_lat = self._mean_lat
        mean_lat.fill(0.0)
        coef, tmp = self._coef, self._tmp
        for tier_id in range(self.n_tiers):
            # Identical scalar sequence to the per-process pricing loop,
            # element-wise: rf*read + wf*write, then mass * coef.
            np.multiply(rf, read_lats[tier_id], out=coef)
            np.multiply(wf, write_lats[tier_id], out=tmp)
            coef += tmp
            np.multiply(self.mass[:, tier_id], coef, out=tmp)
            mean_lat += tmp
        per_cost = self._per_cost
        np.add(mean_lat, delay, out=per_cost)
        np.maximum(budget, 0.0, out=budget)
        n_vec.fill(0.0)
        np.divide(budget, per_cost, out=n_vec, where=per_cost > 0.0)
        # Finished segments price to zero in one multiply (True is an
        # exact 1.0 factor, so live lanes are untouched bit for bit).
        np.multiply(n_vec, live_mask, out=n_vec)
        # Zero-mass lanes (idle trace phases) complete no accesses.
        # ``sign`` of the non-negative per-segment mass total is an
        # exact 1.0 for every lane with traffic, so normal segments
        # stay bit-identical to the per-process path.
        np.sum(self.mass, axis=1, out=tmp)
        np.sign(tmp, out=tmp)
        np.multiply(n_vec, tmp, out=n_vec)
        n_list = n_vec.tolist()
        if profiler is not None:
            profiler.pop()

        # ---- Phase 3: fault draw --------------------------------------------
        faults = self._faults
        have_faults = self._fault_phase(start_ns, quantum_ns)

        # ---- Phases 4-6: ledger, stats, latency, demand ---------------------
        if profiler is not None:
            profiler.push("segment_fold")
        # One concatenated ledger account: extends every segment's share
        # of the open run (zero for finished/stalled segments).
        self.open_n += n_vec
        mass = self.mass
        if self._lazy_stats:
            # Four vector adds instead of one record_accesses call per
            # process; flush_stats folds the totals into each process's
            # stats at retirement/observation/teardown.
            self._acc_n += n_vec
            self._acc_fast += np.multiply(
                mass[:, FAST_TIER], n_vec, out=tmp
            )
            self._acc_user += np.multiply(n_vec, mean_lat, out=tmp)
            self._acc_stall += np.multiply(n_vec, delay, out=tmp)
        else:
            fast_list = np.multiply(
                mass[:, FAST_TIER], n_vec, out=tmp
            ).tolist()
            user_list = np.multiply(n_vec, mean_lat, out=tmp).tolist()
            stall_list = np.multiply(n_vec, delay, out=tmp).tolist()
            for row in rows:
                i, proc, workload, pages = row
                proc.record_accesses(
                    n_list[i], fast_list[i], user_list[i], stall_list[i]
                )
        self._fold_latency(n_vec, faults, have_faults)
        # Demand fold: mass * ((n * CACHE_LINE) * ((1-wf) + wf * bwm)),
        # the per-process operation order, then one segment sum.
        weight = self._weight_rows
        bwm = self.kernel.machine.write_bw_multiplier
        np.multiply(wf[:, None], bwm[None, :], out=weight)
        weight += rf[:, None]
        np.multiply(n_vec, CACHE_LINE_BYTES, out=self._tmp)
        weight *= self._tmp[:, None]
        np.multiply(mass, weight, out=self._demand_rows)
        np.sum(self._demand_rows, axis=0, out=self._demand_out)
        if profiler is not None:
            profiler.pop()

        # ---- Phase 7: policy hooks, finish checks, witness ------------------
        hook = self._resolve_policy_hook(self.kernel.policy)
        if hook is not None:
            if profiler is not None:
                profiler.push("policy")
            try:
                for row in rows:
                    i = row[0]
                    hook(row[1], refs[i], n_list[i], start_ns, quantum_ns)
            finally:
                if profiler is not None:
                    profiler.pop()
        acc_n = self._acc_n
        for row in self._target_rows:
            i, proc, workload, pages = row
            if proc.stats.accesses + acc_n[i] >= proc.target_accesses:
                proc.finished = True
                live_mask[i] = False
                retired = True
        if engine.fusion:
            # The witness only feeds the fusion-horizon check; without
            # fusion nothing reads it, so skip the per-row update loop.
            w_probs = self.witness_probs
            w_epoch = self.witness_epoch
            w_protect = self.witness_protect_epoch
            for row in rows:
                i, proc, workload, pages = row
                w_probs[i] = refs[i]
                w_epoch[i] = pages.epoch
                w_protect[i] = pages.protect_epoch
        if retired:
            self._retire_rows()
        return self._demand_out

    # ------------------------------------------------------------------
    # The interned step
    # ------------------------------------------------------------------
    def _step_interned(self, start_ns: int, quantum_ns: int) -> np.ndarray:
        """The equivalence-class step: O(dynamic + dirty + classes)
        Python work per quantum, vectorised over the witness cells for
        everything else.

        Phase structure, FP operation order, and RNG consumption match
        :meth:`_step_reference` exactly for every segment outside a
        multi-member class (the singleton bit-identity contract);
        members of a class share one aggregated price.
        """
        engine = self.engine
        profiler = self.kernel.profiler
        refs = self.probs_refs
        procs = self.processes
        cells = self._cells
        budget, n_vec = self._budget, self._n
        live_mask = self._live_mask
        retired = False

        # ---- Phase 1: gather (vectorised staleness/debt detection) ----------
        if profiler is not None:
            profiler.push("arena_build")
        if quantum_ns != self._ss_quantum:
            self._ss_valid = False
            self._ss_quantum = quantum_ns
        if self._budget_tainted or self._budget_fill != float(quantum_ns):
            budget.fill(float(quantum_ns))
            self._budget_fill = float(quantum_ns)
            self._budget_tainted = False
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
        np.not_equal(cells[0], self._mass_epoch_vec, out=stale_buf)
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
        if profiler is not None:
            profiler.pop()
        if retired:
            self._retire_rows()
            retired = False
        if not self._rows:
            self._demand_out.fill(0.0)
            return self._demand_out

        # ---- Phase 2: pricing (dirty rows and classes only) -----------------
        if profiler is not None:
            profiler.push("segment_fold")
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
            if self.n_classes:
                self._class_dirty[:] = True
            self._ss_valid = False
        wf, rf, delay = self._wf, self._rf, self._delay
        if not self._ss_valid:
            # ``rf`` only drifts with ``wf``, and every ``wf`` writer
            # (swap, retire, rebuild) drops the steady-state flag.
            np.subtract(1.0, wf, out=rf)
        mass = self.mass
        mean_lat, per_cost = self._mean_lat, self._per_cost
        dirty = self._price_dirty
        class_dirty = self._class_dirty
        repriced_before = self.repriced_segments
        for c in range(self.n_classes):
            members = self.class_members[c]
            if not members.size:
                continue
            if class_dirty[c]:
                # One class-level mass aggregation (the member mean)
                # feeds one scalar pricing fold; the price scatters to
                # every member.
                cm = self._class_mass[c]
                np.sum(mass[members], axis=0, out=cm)
                cm /= members.size
                crf = self._class_rf[c]
                cwf = self._class_wf[c]
                lat = 0.0
                for tier_id in range(self.n_tiers):
                    lat += cm[tier_id] * (
                        crf * read_lats[tier_id]
                        + cwf * write_lats[tier_id]
                    )
                mean_lat[members] = lat
                per_cost[members] = lat + self._class_delay[c]
                class_dirty[c] = False
                self.repriced_segments += int(members.size)
            else:
                self.reprice_skipped_segments += int(members.size)
        single = self._single_idx
        if single.size:
            refold = single[dirty[single]]
            if refold.size:
                # Masked refold, same per-element FP sequence as the
                # reference fold -- cached rows equal recomputed rows
                # bit for bit.
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
            self.reprice_skipped_segments += int(
                single.size - refold.size
            )
        if self.repriced_segments != repriced_before:
            self._ss_valid = False
        if not self._ss_valid:
            np.maximum(budget, 0.0, out=budget)
            n_vec.fill(0.0)
            np.divide(
                budget, per_cost, out=n_vec, where=per_cost > 0.0
            )
            np.multiply(n_vec, live_mask, out=n_vec)
            # Zero-mass lanes (idle trace phases) complete no accesses;
            # sign() of the non-negative mass total is an exact 1.0 for
            # lanes with traffic (see _step_reference).
            zm = self._tmp
            np.sum(self.mass, axis=1, out=zm)
            np.sign(zm, out=zm)
            np.multiply(n_vec, zm, out=n_vec)
        if profiler is not None:
            profiler.pop()

        # ---- Phase 3: fault draw --------------------------------------------
        faults = self._faults
        have_faults = self._fault_phase(start_ns, quantum_ns)

        # ---- Phases 4-6: ledger, stats, latency, demand ---------------------
        if profiler is not None:
            profiler.push("segment_fold")
        self.open_n += n_vec
        tmp = self._tmp
        # Interned arenas always have more than one segment, so stats
        # are always lazy here (see _lazy_stats).
        self._acc_n += n_vec
        bwm = self.kernel.machine.write_bw_multiplier
        if self._ss_valid and np.array_equal(bwm, self._bwm_cache):
            # Steady state: every product below is a function of
            # unchanged inputs, so the cached vectors equal what the
            # recompute would produce bit for bit; the accumulators
            # still take one addition per quantum (repeated addition is
            # not reassociated, keeping singleton runs bit-identical).
            self._acc_fast += self._fast_prod
            self._acc_user += self._user_prod
            self._acc_stall += self._stall_prod
            self._fold_latency(
                n_vec, faults, have_faults, recompute=False
            )
        else:
            np.multiply(mass[:, FAST_TIER], n_vec, out=self._fast_prod)
            self._acc_fast += self._fast_prod
            np.multiply(n_vec, mean_lat, out=self._user_prod)
            self._acc_user += self._user_prod
            np.multiply(n_vec, delay, out=self._stall_prod)
            self._acc_stall += self._stall_prod
            self._fold_latency(n_vec, faults, have_faults)
            weight = self._weight_rows
            np.multiply(wf[:, None], bwm[None, :], out=weight)
            weight += rf[:, None]
            np.multiply(n_vec, CACHE_LINE_BYTES, out=tmp)
            weight *= tmp[:, None]
            np.multiply(mass, weight, out=self._demand_rows)
            np.sum(self._demand_rows, axis=0, out=self._demand_out)
            np.copyto(self._bwm_cache, bwm)
            self._ss_valid = True
        if profiler is not None:
            profiler.pop()

        # ---- Phase 7: policy hooks, finish checks, witness ------------------
        hook = self._resolve_policy_hook(self.kernel.policy)
        if hook is not None:
            if profiler is not None:
                profiler.push("policy")
            try:
                n_list = n_vec.tolist()
                for row in self._rows:
                    i = row[0]
                    hook(row[1], refs[i], n_list[i], start_ns, quantum_ns)
            finally:
                if profiler is not None:
                    profiler.pop()
        acc_n = self._acc_n
        for row in self._target_rows:
            i, proc, workload, pages = row
            if proc.stats.accesses + acc_n[i] >= proc.target_accesses:
                proc.finished = True
                live_mask[i] = False
                retired = True
        if engine.fusion:
            # Two vector copies from the write-through cells replace the
            # reference step's per-row witness loop.
            np.copyto(self.witness_epoch, cells[0])
            np.copyto(self.witness_protect_epoch, cells[1])
            self.witness_probs = list(refs)
        if retired:
            self._retire_rows()
        return self._demand_out

    # ------------------------------------------------------------------
    # Interning introspection
    # ------------------------------------------------------------------
    def class_ledger_runs(self) -> List[tuple]:
        """The merged per-class open ledger runs.

        Returns ``(fingerprint, probs, total_n, n_members)`` per
        non-empty class: members share one ``probs`` reference, so the
        class's open ledger state is exactly the superposed run
        ``(probs, sum_i n_i)``; each member's drain applies its own
        ``n_i`` share (lazy thinning -- exact because
        ``defer_accesses`` is linear in ``n``).  ``fingerprint`` is the
        compiled-table cache key pair from
        :func:`repro.workloads.base.distribution_fingerprint`, or
        ``None`` for distributions born outside the table cache.
        """
        if not self.intern:
            return []
        return [
            (
                self.class_fingerprints[c],
                self.class_probs[c],
                float(self.open_n[members].sum()),
                int(members.size),
            )
            for c, members in enumerate(self.class_members)
            if members.size
        ]

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
        profiler = self.kernel.profiler
        if profiler is not None:
            profiler.push("fault_partition")
        try:
            if self.plan is not None:
                self.plan.draw(n_vec, faults, start_ns, quantum_ns)
            else:
                # One segment: the per-process sampler with the process's
                # own stream -- bit-identical to the per-process path.
                proc = self.processes[0]
                faults[0] = self.engine._sample_hint_faults(
                    proc,
                    proc.pages,
                    self.probs_refs[0],
                    self.engine._buffers_for(proc),
                    float(n_vec[0]),
                    start_ns,
                    quantum_ns,
                )
        finally:
            if profiler is not None:
                profiler.pop()
        # Fault-path promotions moved pages: repair the eligible rows so
        # accounting prices the post-fault placement, the re-lookup the
        # per-process path performs.  Repairing other rows here would
        # change the later phases' inputs against the per-process path.
        m_epoch = self.mass_epoch
        stale = [
            (i, self.processes[i])
            for i in eligible.tolist()
            if m_epoch[i] != cells[0, i]
        ]
        if stale:
            self._repair_mass_many(stale)
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
        segment vectors (the per-process dict accumulations, evaluated
        element-wise in the same order).

        With ``recompute=False`` (the interned step's steady state) the
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
            # The per-process path skips tiers without positive mass
            # (repair drift can leave a ~-1e-20 residue in a row);
            # masking by the boolean is exact (x * True == x,
            # x * False == 0.0).
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
            # that actually have mass there (the per-process path skips
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
        mixtures (same pid-ascending order the per-process flush uses,
        so global-mixture accumulation matches bit for bit)."""
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
    """One hint-fault plan over a multi-segment arena's address space.

    Every protected page owns one *slot*.  Pages whose per-quantum touch
    probability was at least ``FAULT_DORMANT_MAX_TOUCH`` when they
    entered get an *active* slot and one Bernoulli draw
    ``1 - exp(-n_i p)`` each; the rest share *dormant* slots and one
    ``Poisson`` draw placed by inverse CDF.  The dormant CDF is a plain
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
    thinning, exact).  Pages the logs report protected are appended.  A
    segment is resynced from its ``prot_none`` before the first draw,
    after a distribution swap and when its log overflowed.  The slot
    tables are rebuilt -- from the live slots, in one vectorised pass --
    only when dead slots outnumber live ones or the chunk table outgrows
    the fleet; the active table alone is compacted whenever its dead
    slots outnumber its live ones.
    """

    def __init__(self, arena: ProcessArena) -> None:
        self.arena = arena
        self.processes = arena.processes
        self.seg_starts = arena.seg_starts
        self.cells = arena._cells
        self.rng = arena.rng
        self.max_touch = arena.engine.FAULT_DORMANT_MAX_TOUCH
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
        #: live slots (``a_live`` of them active) and dead slots
        self.live = self.a_live = self.dead = 0
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
        current ``n``."""
        self.rebuilds += 1
        live = np.flatnonzero(self.slot_of)
        self.a_n = self.d_n = self.c_n = 0
        self.live = self.a_live = self.dead = 0
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
        self.dead -= n - keep.size
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
            added = np.concatenate(adds)
            self.appended += added.size
            self._append(added, n_vec)

    def _tombstone(self, g: np.ndarray) -> None:
        slots = self.slot_of[g]
        active = slots[slots > 0] - 1
        self.a_page[active] = -1
        self.a_p[active] = 0.0
        self.a_live -= active.size
        self.d_page[-slots[slots < 0] - 1] = -1
        self.slot_of[g] = 0
        self.live -= g.size
        self.dead += g.size
        self.tombstoned += g.size

    def _append(self, g: np.ndarray, n_vec: np.ndarray) -> None:
        """Give slots to pages ``g`` (ascending global indices)."""
        if not g.size:
            return
        seg = np.searchsorted(self.seg_starts, g, side="right") - 1
        p = self.arena.concat_probs[g]
        # The split only steers cost (both laws are exact): the
        # per-process path's ``0.02 / n`` cut at the segment's current n.
        active = p >= self.max_touch / np.maximum(n_vec[seg], 1.0)
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
        self.live += g.size

    # ------------------------------------------------------------------
    # The draw
    # ------------------------------------------------------------------
    def refresh(self, n_vec: np.ndarray) -> None:
        """Bring the slots up to date with every segment's protected
        set (``n_vec`` steers the active/dormant split of new slots)."""
        self._apply_changes(n_vec)
        if self.dead > self.live or self.c_n > self.max_chunks:
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
                # Dead slots thin the draw; zero-rate pages cannot fault.
                g = g[g >= 0]
                parts.append(g[self.arena.concat_probs[g] > 0.0])
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
