"""The batched quantum execution engine.

Every simulated process advances through fixed wall-clock quanta (default
50 ms).  Within a quantum the engine:

1. asks the workload for its access distribution ``p`` and prices the mix
   against the current page placement (vectorised dot product),
2. deducts queued kernel time (scan work, fault handling, migrations
   charged by the previous quantum) from the quantum budget,
3. computes the number of completed accesses
   ``n = budget / (mean latency + delay)``,
4. resolves hint faults: each protected page is touched this quantum with
   probability ``1 - exp(-n * p_i)`` (the exact Poisson-traffic closed
   form), faulting pages get uniformly distributed fault times and their
   CIT values, and the batch is delivered to the tiering policy,
5. books ground-truth access counts, FMAR numerators, and the latency
   mixture.

Between quanta the kernel timer queue fires scan events, reclaim passes,
LRU aging, and policy daemons.  This design makes the steady-state cost
of a quantum amortized O(tiers) + O(pages that changed) while preserving
the per-page fault/CIT statistics of an access-by-access simulation.

Hot-path structure (``docs/SIMULATION.md`` section 5 is the long form):

* **Pricing** collapses to O(tiers): the mass each tier serves only
  changes when the placement changes (a migration bumps
  ``PageState.epoch``) or the workload rotates its distribution (phase
  changes swap in a *new* probability array; distributions are
  immutable, per the :mod:`repro.workloads.base` contract).  The
  per-process tier-mass cache is keyed on ``(id(probs), pages.epoch)``
  and repaired in O(moved) from the page-state move journal; the
  contention-multiplier vector is computed once per quantum.
* **Ground-truth accounting** is deferred: the engine appends one
  ``(probs, n)`` ledger run per quantum (O(1)) and ``PageState``
  materialises the counters only when a consumer reads them.
* **Hint-fault sampling** splits the protected snapshot: pages with
  per-quantum touch probability above ``FAULT_DORMANT_MAX_TOUCH`` get
  individual Bernoulli draws, the cold remainder is one aggregate
  Poisson draw placed by inverse-CDF lookup -- distributionally exact
  (Poisson thinning) at O(active + faults) cost.
* **Latency bookkeeping** accumulates per-quantum class counts into
  plain dicts and folds them into the :class:`LatencyMixture` objects
  once per :meth:`QuantumEngine.run`.

Pass ``fast_path=False`` to force the original per-page recomputation
every quantum (used by ``scripts/bench_engine.py`` to measure the win
and by the equivalence tests); the reference path also draws per-page
fault indicators from its original RNG stream, so fast and reference
trajectories agree statistically, not bit for bit.

**Quantum fusion** (``docs/SIMULATION.md`` section 6) takes the
steady-state stepping cost from O(quanta) to O(kernel events): before
each step the engine peeks the kernel timer queue
(:meth:`Kernel.next_event_ns`) and, when every process is provably in
steady state -- distribution array unchanged (identity), placement
epoch unchanged, protection epoch unchanged, workload stable through
the window -- it fuses all quanta up to the event horizon into one
macro-quantum of ``n·K`` nanoseconds.  One ledger run, one merged
fault draw (exact by Poisson merging: the first-arrival law over the
fused window equals the per-quantum composition), one latency fold,
one contention evaluation carried from the converged previous demand.
Policies bound fusion through ``needs_per_quantum`` /
``max_fusion_quanta`` (see :class:`repro.policies.base.TieringPolicy`);
``fusion=False`` (the ``fusion_reference`` mode, CLI ``--no-fusion``)
preserves per-quantum stepping for equivalence gating.  When fusion
never engages the trajectory is bit-identical to the reference mode:
the horizon check consumes no RNG and a one-quantum step executes the
exact per-quantum path.

**Arena stepping** (``docs/SIMULATION.md`` section 7) removes the last
O(n_procs) Python loop from the steady-state step: with ``arena=True``
(the default; requires the fast path) every (macro-)quantum executes as
one batched array program over a cross-process page arena
(:mod:`repro.harness.arena`) -- one vectorised pricing solve, one
aggregate fault draw from a fleet-wide fault plan, one concatenated
ledger account, one latency fold, one demand fold.  ``arena=False``
keeps the per-process fast path as the arena's reference mode; a
single-process arena is bit-identical to it, multi-process arenas are
statistically equivalent (the fault plan consumes a dedicated
``engine.arena`` stream).  The steady-state fusion witness lives in the
arena's per-segment epoch vectors instead of per-process buffers.

**Distribution interning** (``docs/SIMULATION.md`` section 8) drops the
arena's remaining O(segments) Python work to O(unique distributions):
with ``intern=True`` (the default; requires the arena) multi-segment
arenas group stationary segments that share one compiled distribution
table into equivalence classes and execute the steady-state quantum per
class -- cached pricing with per-class dirty bits over epoch witness
cells, and merged class ledger runs with lazy per-segment thinning;
faults come from the same fault plan as the uninterned step.  When
every class is a singleton the interned step is bit-identical to the
uninterned arena step; ``intern=False`` (``--no-intern``) keeps the
uninterned step as the reference mode.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from repro.analysis.latency import LatencyMixture
from repro.kernel.kernel import Kernel
from repro.mem.machine import CACHE_LINE_BYTES
from repro.mem.tier import FAST_TIER
from repro.sim.timeunits import MILLISECOND
from repro.vm.fault import take_hint_faults
from repro.vm.process import SimProcess

Observer = Callable[["QuantumEngine", int], None]


class _ProcessBuffers:
    """Preallocated per-process scratch state for the quantum hot path."""

    __slots__ = (
        "count_buf", "mass_probs", "mass_epoch", "tier_mass",
        "mass_resync", "fault_probs", "fault_prot", "prot_p",
        "active_pos", "active_p", "dormant_pos", "dormant_cdf",
        "dormant_mass", "touched_mask",
        "fusion_probs", "fusion_epoch", "fusion_protect_epoch",
    )

    def __init__(self, n_pages: int) -> None:
        #: reference-path accounting scratch (unused on the fast path,
        #: which defers accounting through the page-state ledger)
        self.count_buf: Optional[np.ndarray] = None
        #: cache key for ``tier_mass``: the workload's probability array
        #: (held by reference, so a freed array's address cannot alias a
        #: new distribution) plus the placement epoch at computation time
        self.mass_probs: Optional[np.ndarray] = None
        self.mass_epoch: int = -1
        self.tier_mass: Optional[np.ndarray] = None
        #: incremental-delta applications left before the next full
        #: recount (bounds float drift from repeated add/subtract)
        self.mass_resync: int = 0
        #: fault-candidate cache (fast path): the protected snapshot is
        #: split into an *active* head (per-page Bernoulli draws) and a
        #: *dormant* tail sampled through one aggregate Poisson draw.
        #: Keyed by identity on the probability array and the
        #: copy-on-write protected-page snapshot; both are replaced --
        #: never mutated -- when their contents change.
        self.fault_probs: Optional[np.ndarray] = None
        self.fault_prot: Optional[np.ndarray] = None
        self.prot_p: Optional[np.ndarray] = None
        self.active_pos: Optional[np.ndarray] = None
        self.active_p: Optional[np.ndarray] = None
        self.dormant_pos: Optional[np.ndarray] = None
        self.dormant_cdf: Optional[np.ndarray] = None
        self.dormant_mass: float = 0.0
        self.touched_mask: Optional[np.ndarray] = None
        #: steady-state witness recorded at the end of each quantum: the
        #: distribution array the quantum ran against plus the placement
        #: and protection epochs it left behind.  The fusion horizon
        #: check compares these against the live state -- any mismatch
        #: (migration, scan, phase change) disables fusion for the next
        #: step.
        self.fusion_probs: Optional[np.ndarray] = None
        self.fusion_epoch: int = -1
        self.fusion_protect_epoch: int = -1


class QuantumEngine:
    """Advances processes and kernel daemons through simulated time."""

    def __init__(
        self,
        kernel: Kernel,
        quantum_ns: int = 50 * MILLISECOND,
        fast_path: bool = True,
        fusion: bool = True,
        arena: bool = True,
        intern: bool = True,
    ) -> None:
        if quantum_ns <= 0:
            raise ValueError("quantum must be positive")
        self.kernel = kernel
        self.quantum_ns = int(quantum_ns)
        self.fast_path = bool(fast_path)
        #: quantum fusion enabled?  ``False`` is the ``fusion_reference``
        #: mode: per-quantum stepping, for equivalence gating.  Fusion
        #: additionally requires the fast path (the reference path exists
        #: precisely to replay the historical per-quantum trajectory).
        self.fusion = bool(fusion) and self.fast_path
        #: arena stepping enabled?  ``False`` keeps the per-process fast
        #: path (the arena's reference mode, CLI ``--no-arena``); like
        #: fusion, the arena requires the fast path.
        self.arena = bool(arena) and self.fast_path
        #: distribution interning inside the arena (equivalence-class
        #: stepping)?  ``False`` keeps the uninterned arena step (the
        #: interning reference mode, CLI ``--no-intern``); interning
        #: requires arena stepping.
        self.intern = bool(intern) and self.arena
        #: lazily built :class:`repro.harness.arena.ProcessArena`;
        #: rebuilt whenever the fleet changes, torn down at run end
        self._arena = None
        #: arena step() invocations (one per engine step in arena mode)
        self.arena_steps = 0
        self.latency = LatencyMixture()
        self.latency_by_pid: Dict[int, LatencyMixture] = {}
        #: per-process pending latency classes ``{pid: {key: count}}``,
        #: folded into the public mixtures at the end of every ``run``
        #: (see ``_flush_latency``)
        self._lat_pending: Dict[int, Dict[int, float]] = {}
        self._prev_demand_bytes_per_sec = np.zeros(kernel.machine.n_tiers)
        self._multipliers = np.ones(kernel.machine.n_tiers)
        self._buffers: Dict[int, _ProcessBuffers] = {}
        # Small per-quantum scratch vectors (O(tiers)).
        n_tiers = kernel.machine.n_tiers
        self._n_tiers = n_tiers
        #: per-quantum effective (contended) tier latencies as plain
        #: Python floats; refreshed by ``run`` whenever the contention
        #: multipliers change.  The latency mixture keys on ``round()``,
        #: which is an order of magnitude faster on ``float`` than on
        #: numpy scalars, and the products are bitwise identical.
        self._refresh_latency_tables(
            kernel.machine.read_latency_ns.tolist(),
            kernel.machine.write_latency_ns.tolist(),
        )
        self._demand_accum = np.zeros(n_tiers, dtype=np.float64)
        self._demand_out = np.empty(n_tiers, dtype=np.float64)
        #: shared early-return value for finished processes; callers only
        #: accumulate it, so one zero vector serves every quantum
        self._zero_demand = np.zeros(n_tiers, dtype=np.float64)
        #: simulated quanta covered (a fused step counts all its quanta)
        self.quanta_run = 0
        #: engine loop iterations (fused or single)
        self.steps_run = 0
        #: quanta covered by fused (multi-quantum) steps
        self.fused_quanta = 0

    # ------------------------------------------------------------------
    def _refresh_latency_tables(self, read_lats, write_lats) -> None:
        """Install this quantum's effective tier latencies and derive
        their latency-mixture keys.

        The single place latency keys are rounded: both the per-process
        path and the arena fold consume ``_read_keys`` / ``_write_keys``
        / ``_fault_key`` from here, so the two modes cannot drift.
        ``read_lats`` / ``write_lats`` are plain Python float lists
        (``tolist()``-ed once per quantum).
        """
        self._read_lat_list = read_lats
        self._write_lat_list = write_lats
        self._read_keys = [int(round(v)) for v in read_lats]
        self._write_keys = [int(round(v)) for v in write_lats]
        self._fault_lat = (
            read_lats[-1]
            + self.kernel.machine.spec.effective_fault_cost_ns
        )
        self._fault_key = int(round(self._fault_lat))

    def _buffers_for(self, process: SimProcess) -> _ProcessBuffers:
        """Get-or-create the per-process scratch buffers."""
        buffers = self._buffers.get(process.pid)
        if buffers is None:
            buffers = self._buffers[process.pid] = _ProcessBuffers(
                process.pages.n_pages
            )
        return buffers

    # ------------------------------------------------------------------
    def run(
        self,
        duration_ns: int,
        observer: Optional[Observer] = None,
        observe_every_ns: Optional[int] = None,
        stop_when_finished: bool = False,
    ) -> int:
        """Run for ``duration_ns`` of simulated time.

        ``observer(engine, now)`` fires every ``observe_every_ns`` (default:
        every quantum).  With ``stop_when_finished`` the run ends as soon as
        every process reached its access target (fixed-work experiments like
        Graph500 execution time).  Returns the simulated end time.
        """
        if duration_ns <= 0:
            raise ValueError("duration must be positive")
        self.kernel.start()
        clock = self.kernel.clock
        profiler = self.kernel.profiler
        if profiler is not None:
            profiler.push("engine")
        try:
            end_ns = clock.now + duration_ns
            next_observe = clock.now
            policy = self.kernel.policy
            fusion_on = self.fusion and not getattr(
                policy, "needs_per_quantum", False
            )
            max_fuse = getattr(policy, "max_fusion_quanta", None)
            observe_bound = next_observe if observer is not None else None
            prev_multipliers = self._multipliers
            while clock.now < end_ns:
                start = clock.now
                quantum = min(self.quantum_ns, end_ns - start)
                # All processes price this quantum against the same
                # previous-quantum demand: compute the contention vector
                # once here instead of per process.
                self._multipliers = multipliers = (
                    self.kernel.machine.contention_multipliers(
                        self._prev_demand_bytes_per_sec
                    )
                )
                n_fused = 1
                if fusion_on and quantum == self.quantum_ns:
                    # A fused window holds one contention vector for its
                    # whole span, so fusion additionally requires the
                    # contention feedback loop to have converged: a
                    # migration burst or phase change spikes the demand
                    # for one quantum, and reference stepping decays the
                    # spiked multiplier after a single quantum -- holding
                    # it across a macro-quantum would systematically
                    # overprice the window.
                    if bool(
                        (
                            np.abs(multipliers - prev_multipliers)
                            <= self.FUSION_CONTENTION_TOL
                            * prev_multipliers
                        ).all()
                    ):
                        n_fused = self._fusion_horizon(
                            start, end_ns, observe_bound, max_fuse
                        )
                prev_multipliers = multipliers
                macro_ns = quantum * n_fused
                machine = self.kernel.machine
                # The per-quantum latency tables and their mixture keys
                # are fixed once the multipliers are known; derive them
                # once here instead of per process per class.
                self._refresh_latency_tables(
                    (machine.read_latency_ns * self._multipliers)
                    .tolist(),
                    (machine.write_latency_ns * self._multipliers)
                    .tolist(),
                )
                demand = self._demand_accum
                demand.fill(0.0)
                if self.arena:
                    demand += self._arena_step(start, macro_ns)
                else:
                    for process in self.kernel.processes:
                        demand += self.run_quantum(
                            process, start, macro_ns
                        )
                # Fold migration traffic into the demand picture.
                for tier in self.kernel.machine.tiers:
                    demand[tier.tier_id] += tier.consume_migration_bytes()
                np.divide(
                    demand,
                    macro_ns / 1e9,
                    out=self._prev_demand_bytes_per_sec,
                )
                self.kernel.advance_to(start + macro_ns)
                self.quanta_run += n_fused
                self.steps_run += 1
                obs = self.kernel.obs
                if obs is not None:
                    obs.inc("engine.quanta", n_fused)
                    gauges = self.kernel.machine.obs_gauges(
                        self._multipliers
                    )
                    for name, value in gauges.items():
                        obs.set_gauge(name, value)
                    obs.emit(
                        "engine.quantum",
                        clock.now,
                        quantum_ns=macro_ns,
                        fast_free_pages=gauges["machine.fast_free_pages"],
                        slow_free_pages=gauges["machine.slow_free_pages"],
                        fast_contention=gauges["machine.fast_contention"],
                        slow_contention=gauges["machine.slow_contention"],
                    )
                    arena_obj = self._arena
                    plan = arena_obj.plan if arena_obj is not None else None
                    if plan is not None:
                        for name, delta in plan.take_counters().items():
                            if delta:
                                obs.inc(name, delta)
                    if arena_obj is not None and arena_obj.intern:
                        obs.set_gauge(
                            "arena.interned_classes",
                            arena_obj.n_classes,
                        )
                        obs.set_gauge(
                            "arena.interned_segments",
                            arena_obj.interned_segments,
                        )
                        repriced, skipped = (
                            arena_obj.take_reprice_counters()
                        )
                        if repriced:
                            obs.inc(
                                "arena.repriced_segments", repriced
                            )
                        if skipped:
                            obs.inc(
                                "arena.reprice_skipped_segments",
                                skipped,
                            )
                if n_fused > 1:
                    self.fused_quanta += n_fused
                    if obs is not None:
                        obs.inc("engine.fused_steps")
                        obs.inc("engine.fused_quanta", n_fused)
                        obs.observe("engine.fusion_horizon", n_fused)
                        obs.set_gauge(
                            "engine.fusion_ratio",
                            self.fused_quanta / self.quanta_run,
                        )
                        obs.emit(
                            "engine.fused",
                            clock.now,
                            n_quanta=n_fused,
                            macro_ns=macro_ns,
                        )
                if observer is not None and clock.now >= next_observe:
                    if self._arena is not None:
                        # Observers read per-process stats; fold in the
                        # arena's lazily accumulated quantum stats first.
                        self._arena.flush_stats()
                    observer(self, clock.now)
                    next_observe = clock.now + (observe_every_ns or 0)
                    observe_bound = next_observe
                if stop_when_finished and all(
                    p.finished for p in self.kernel.processes
                ):
                    break
            return clock.now
        finally:
            self._flush_latency()
            if self._arena is not None:
                # Drain every segment's ledger share and unhook the
                # page-state sources: results may outlive this engine.
                self._arena.detach()
                self._arena = None
            if profiler is not None:
                profiler.pop()

    def _arena_step(self, start_ns: int, macro_ns: int) -> np.ndarray:
        """One batched arena step (builds/rebuilds the arena lazily)."""
        arena = self._arena
        if arena is None or arena.processes != self.kernel.processes:
            from repro.harness.arena import ProcessArena

            if arena is not None:
                arena.detach()
            arena = self._arena = ProcessArena(self)
        self.arena_steps += 1
        return arena.step(start_ns, macro_ns)

    # ------------------------------------------------------------------
    #: maximum per-tier relative change of the contention-multiplier
    #: vector between consecutive steps for the feedback loop to count
    #: as converged (a fusion precondition; see ``run``)
    FUSION_CONTENTION_TOL: float = 0.01

    def _fusion_horizon(
        self,
        start_ns: int,
        end_ns: int,
        next_observe_ns: Optional[int],
        max_fuse: Optional[int],
    ) -> int:
        """Number of quanta safely fusable into one macro-quantum (>= 1).

        Every bound below shares one formula: per-quantum stepping fires
        anything scheduled at time ``X`` at the first quantum boundary at
        or after ``X``, so fusing ``ceil((X - start) / quantum)`` quanta
        reaches exactly that boundary.  Applied to the kernel's next hard
        event, the observer's next firing, each workload's stability
        horizon, and (via a fastest-possible-access bound) each process's
        remaining access target, then clamped by the run end and the
        policy's ``max_fusion_quanta``.  Any process not provably in
        steady state -- distribution array changed, pages migrated,
        protection changed since its last quantum -- returns 1 (no
        fusion).  Consumes no RNG, so a 1-quantum step stays bit-identical
        to reference stepping.
        """
        q = self.quantum_ns
        # Whole quanta left in the run; a trailing partial quantum runs
        # unfused.
        n = (end_ns - start_ns) // q
        if n <= 1:
            return 1
        horizon = self.kernel.next_event_ns()
        if horizon is not None:
            if horizon <= start_ns:
                return 1
            n = min(n, -(-(horizon - start_ns) // q))
        if next_observe_ns is not None:
            if next_observe_ns <= start_ns:
                return 1
            n = min(n, -(-(next_observe_ns - start_ns) // q))
        if max_fuse is not None:
            n = min(n, int(max_fuse))
        if n <= 1:
            return 1
        for process in self.kernel.processes:
            if process.finished:
                continue
            witness = self._steady_witness(process)
            if witness is None:
                # First quantum for this process: no steady-state witness.
                return 1
            w_probs, w_epoch, w_protect_epoch = witness
            pages = process.pages
            if (
                w_epoch != pages.epoch
                or w_protect_epoch != pages.protect_epoch
            ):
                return 1
            # Pending kernel debt (e.g. a migration burst's cost) makes
            # upcoming quanta heterogeneous: full-stall quanta execute
            # zero accesses, then a mixed quantum drains the remainder.
            # Policies whose per-quantum hooks are nonlinear in the
            # access count (Memtis' budget cap ``min(n, rate*q*share)``
            # is concave) would see a different input if a fused window
            # spanned the stall->recovery transition.  Pure-stall
            # windows are exact (zero accesses either way), so cap the
            # horizon at the number of whole stalled quanta and let the
            # mixed quantum run unfused.
            debt = process.pending_kernel_ns
            if debt > 0.0:
                stall_quanta = int(debt // q)
                if stall_quanta < 1:
                    return 1
                n = min(n, stall_quanta)
                if n <= 1:
                    return 1
            workload = process.workload
            # Duck-typed workloads predating the fusion contract get no
            # stability guarantee: treat them like ``stable_until_ns``
            # returning ``now`` (fusion disabled, stepping unchanged).
            stable_fn = getattr(workload, "stable_until_ns", None)
            stable = start_ns if stable_fn is None else stable_fn(start_ns)
            if stable is not None:
                if stable <= start_ns:
                    return 1
                n = min(n, -(-(stable - start_ns) // q))
                if n <= 1:
                    return 1
            # ``advance`` is idempotent and consumes no RNG; the step
            # repeats it.  The distribution for the upcoming quantum must
            # be the exact array the last quantum ran against.
            workload.advance(start_ns)
            if workload.access_distribution() is not w_probs:
                return 1
            if process.target_accesses is not None:
                remaining = (
                    process.target_accesses - process.stats.accesses
                )
                if remaining > 0:
                    # A quantum cannot complete more accesses than budget
                    # divided by the cheapest possible per-access cost
                    # (fastest tier, no contention), so the finishing
                    # quantum index is at least ceil(remaining / cap) --
                    # fusing up to it cannot overshoot the target.
                    cap = q / (
                        self._min_access_cost_ns(workload.write_fraction)
                        + workload.delay_ns_per_access
                    )
                    n = min(n, max(1, math.ceil(remaining / cap)))
                    if n <= 1:
                        return 1
        return int(n)

    def _steady_witness(self, process: SimProcess):
        """The last quantum's steady-state witness for ``process``:
        ``(probs, epoch, protect_epoch)``, or ``None`` when no quantum
        has recorded one yet.

        In arena mode the witness lives in the arena's per-segment
        vectors; otherwise in the per-process buffers.
        """
        if self.arena:
            arena = self._arena
            if arena is None:
                return None
            return arena.witness(process)
        buffers = self._buffers.get(process.pid)
        if buffers is None or buffers.fusion_probs is None:
            return None
        return (
            buffers.fusion_probs,
            buffers.fusion_epoch,
            buffers.fusion_protect_epoch,
        )

    def _min_access_cost_ns(self, write_fraction: float) -> float:
        """Cheapest possible mean access latency: best tier, uncontended.

        Contention multipliers are >= 1 and tier masses are a convex
        combination, so every realized per-access cost is at least this.
        Used to upper-bound per-quantum progress toward an access target.
        """
        machine = self.kernel.machine
        mix = (
            (1.0 - write_fraction) * machine.read_latency_ns
            + write_fraction * machine.write_latency_ns
        )
        return float(mix.min())

    # ------------------------------------------------------------------
    #: incremental tier-mass updates applied before forcing a full
    #: recount; bounds accumulated float error from delta arithmetic
    MASS_RESYNC_MOVES: int = 256

    def _tier_mass(
        self, process: SimProcess, probs: np.ndarray
    ) -> np.ndarray:
        """Probability mass served by each tier, cached across quanta.

        ``tier_mass[t] = sum(probs[i] for pages i resident on tier t)``.
        The result only changes when a migration moves pages
        (``pages.epoch``) or the workload swaps in a new distribution
        array.  On an epoch miss the cached masses are advanced by
        replaying the placement journal -- O(moved) per migration --
        falling back to the full O(pages) reduction when the journal was
        truncated, the distribution changed, or enough deltas accumulated
        to warrant a drift-bounding resync.
        """
        pages = process.pages
        buffers = self._buffers_for(process)
        if self.fast_path and buffers.mass_probs is probs:
            if buffers.mass_epoch == pages.epoch:
                return buffers.tier_mass
            moves = (
                pages.moves_since(buffers.mass_epoch)
                if buffers.mass_resync > 0
                else None
            )
            if moves is not None and len(moves) <= buffers.mass_resync:
                mass = buffers.tier_mass
                for _epoch, vpns, old_tiers, new_tier in moves:
                    if vpns.size:
                        moved = probs[vpns]
                        mass -= np.bincount(
                            old_tiers, weights=moved, minlength=mass.size
                        )
                        mass[new_tier] += float(moved.sum())
                # Replay rounding can drift a zero-mass tier a few ulps
                # negative, which the demand fold then feeds to the
                # contention model as negative demand.  True mass is
                # non-negative, so the clamp only removes drift.
                np.maximum(mass, 0.0, out=mass)
                buffers.mass_resync -= len(moves)
                buffers.mass_epoch = pages.epoch
                return mass
        tier_mass = np.bincount(
            pages.tier.astype(np.int64),
            weights=probs,
            minlength=self.kernel.machine.n_tiers,
        )
        buffers.mass_probs = probs
        buffers.mass_epoch = pages.epoch
        buffers.tier_mass = tier_mass
        buffers.mass_resync = self.MASS_RESYNC_MOVES
        return tier_mass

    def run_quantum(
        self, process: SimProcess, start_ns: int, quantum_ns: int
    ) -> np.ndarray:
        """Execute one process for one quantum; returns per-tier bytes of
        demand it generated."""
        machine = self.kernel.machine
        if process.finished:
            return self._zero_demand

        workload = process.workload
        workload.advance(start_ns)
        probs = workload.access_distribution()
        pages = process.pages
        write_fraction = workload.write_fraction
        multipliers = self._multipliers
        buffers = self._buffers_for(process)

        # Price the access mix against current placement + contention.
        # Every page on a tier shares the tier's latency, so the O(pages)
        # dot product ``probs @ per_page_latency`` reduces to an O(tiers)
        # product against the per-tier probability mass.
        pricing_mass = self._tier_mass(process, probs)
        if self.fast_path:
            # Scalar arithmetic over the O(tiers) per-quantum latency
            # lists: at 2-3 tiers, numpy's per-call dispatch costs more
            # than the work itself.
            read_lats = self._read_lat_list
            write_lats = self._write_lat_list
            masses = pricing_mass.tolist()
            read_fraction = 1.0 - write_fraction
            mean_latency = 0.0
            total_mass = 0.0
            for tier_id in range(self._n_tiers):
                mass = masses[tier_id]
                total_mass += mass
                mean_latency += mass * (
                    read_fraction * read_lats[tier_id]
                    + write_fraction * write_lats[tier_id]
                )
        else:
            # Reference path: rebuild the per-page latency vector from
            # scratch, exactly as the pre-optimization engine did.
            tier_idx = pages.tier
            per_page_latency = (
                (1.0 - write_fraction) * machine.read_latency_ns[tier_idx]
                + write_fraction * machine.write_latency_ns[tier_idx]
            ) * multipliers[tier_idx]
            mean_latency = float(probs @ per_page_latency)
            total_mass = float(pricing_mass.sum())

        kernel_used = process.drain_pending_kernel(quantum_ns)
        budget = quantum_ns - kernel_used
        per_access_cost = mean_latency + workload.delay_ns_per_access
        # A zero-page process prices to zero cost (and may run with zero
        # compute delay): it simply completes no accesses.  A zero-*mass*
        # distribution (an idle trace phase) likewise completes none --
        # without the gate its compute delay alone would price accesses
        # that touch no pages and inflate throughput.
        if per_access_cost > 0.0 and total_mass > 0.0:
            n_accesses = max(budget, 0.0) / per_access_cost
        else:
            n_accesses = 0.0

        # Hint faults on protected pages touched this quantum.  The
        # maintained protected-page counter makes the common no-scan case
        # free instead of an O(pages) flatnonzero.
        n_faults = 0
        if n_accesses > 0:
            if not self.fast_path:
                # Reference path: the original per-page Bernoulli pass
                # over the full protected snapshot.
                protected = pages.protected_pages()
                if protected.size:
                    lam = n_accesses * probs[protected]
                    touched = process.rng.random(
                        protected.size
                    ) < -np.expm1(-lam)
                    touched_vpns = protected[touched]
                    if touched_vpns.size:
                        batch = take_hint_faults(
                            process,
                            touched_vpns,
                            start_ns,
                            quantum_ns,
                            process.rng,
                            rates_per_ns=lam[touched] / quantum_ns,
                            # The surviving protected set is already
                            # known here -- hand it down so the unprotect
                            # skips its membership search.
                            cache_remainder=protected[~touched],
                        )
                        n_faults = batch.n_faults
                        self.kernel.deliver_faults(process, batch)
            elif pages.n_protected > 0:
                n_faults = self._sample_hint_faults(
                    process, pages, probs, buffers, n_accesses,
                    start_ns, quantum_ns,
                )

        # Accounting runs against the *post-fault* placement: fault-path
        # promotions (Linux-NB, TPP, AutoTiering) bumped the placement
        # epoch, so this re-lookup recomputes the mass only when pages
        # actually moved this quantum.
        if (
            self.fast_path
            and buffers.mass_epoch == pages.epoch
            and buffers.mass_probs is probs
        ):
            tier_mass = pricing_mass
        else:
            tier_mass = self._tier_mass(process, probs)

        # Ground-truth accounting.  The fast path records an O(1) ledger
        # entry; the O(pages) materialisation happens only when a consumer
        # (aging, tracing, reporting) reads the counters.  The reference
        # path keeps the eager per-quantum accumulation.
        if self.fast_path:
            pages.defer_accesses(probs, n_accesses)
        else:
            count_buf = buffers.count_buf
            if count_buf is None:
                count_buf = buffers.count_buf = np.empty(
                    pages.n_pages, dtype=np.float64
                )
            np.multiply(probs, n_accesses, out=count_buf)
            pages.access_count += count_buf
            pages.last_window_count += count_buf

        fast_accesses = n_accesses * float(tier_mass[FAST_TIER])
        process.record_accesses(
            n_total=n_accesses,
            n_fast=fast_accesses,
            user_ns=n_accesses * mean_latency,
            stall_ns=n_accesses * workload.delay_ns_per_access,
        )

        self._record_latency(
            process,
            n_accesses,
            tier_mass,
            write_fraction,
            n_faults,
        )

        policy = self.kernel.policy
        if policy is not None and hasattr(policy, "on_quantum"):
            profiler = self.kernel.profiler
            if profiler is not None:
                profiler.push("policy")
            try:
                policy.on_quantum(
                    process, probs, n_accesses, start_ns, quantum_ns
                )
            finally:
                if profiler is not None:
                    profiler.pop()

        if (
            process.target_accesses is not None
            and process.stats.accesses >= process.target_accesses
        ):
            process.finished = True

        # Steady-state witness for quantum fusion: what this quantum ran
        # against and the state it left behind (after faults and any
        # policy reaction).  Kernel events firing between quanta bump the
        # epochs and break the match, as does a distribution swap.
        buffers.fusion_probs = probs
        buffers.fusion_epoch = pages.epoch
        buffers.fusion_protect_epoch = pages.protect_epoch

        # Bandwidth demand, write-weighted per tier (Optane writes eat a
        # multiple of their byte count from the bandwidth budget).  The
        # returned buffer is consumed (accumulated) by ``run`` before the
        # next ``run_quantum`` call, so one O(tiers) scratch serves all.
        write_weight = (
            1.0 - write_fraction
        ) + write_fraction * machine.write_bw_multiplier
        np.multiply(
            tier_mass,
            n_accesses * CACHE_LINE_BYTES * write_weight,
            out=self._demand_out,
        )
        return self._demand_out

    # ------------------------------------------------------------------
    #: per-quantum touch probability below which a protected page is
    #: sampled through the aggregated dormant draw instead of its own
    #: Bernoulli draw (see ``_sample_hint_faults``)
    FAULT_DORMANT_MAX_TOUCH: float = 0.02

    def _rebuild_fault_cache(
        self,
        buffers: _ProcessBuffers,
        probs: np.ndarray,
        protected: np.ndarray,
        n_accesses: float,
    ) -> None:
        """Split the protected snapshot into active / dormant candidates.

        Costs O(protected) and runs only when the protected set or the
        access distribution changed (both are replaced, never mutated, so
        an identity check detects staleness).
        """
        p_sub = probs[protected]
        cut = self.FAULT_DORMANT_MAX_TOUCH / max(n_accesses, 1.0)
        active = p_sub >= cut
        buffers.prot_p = p_sub
        buffers.active_pos = active_pos = np.flatnonzero(active)
        buffers.active_p = p_sub[active_pos]
        np.logical_not(active, out=active)
        active &= p_sub > 0.0  # zero-probability pages can never fault
        buffers.dormant_pos = dormant_pos = np.flatnonzero(active)
        cdf = np.cumsum(p_sub[dormant_pos])
        buffers.dormant_cdf = cdf
        buffers.dormant_mass = float(cdf[-1]) if cdf.size else 0.0
        buffers.touched_mask = np.empty(protected.size, dtype=bool)
        buffers.fault_probs = probs
        buffers.fault_prot = protected

    def _sample_hint_faults(
        self,
        process: SimProcess,
        pages,
        probs: np.ndarray,
        buffers: _ProcessBuffers,
        n_accesses: float,
        start_ns: int,
        quantum_ns: int,
    ) -> int:
        """Resolve this quantum's hint faults in O(active + touched).

        Distributionally identical to the reference per-page pass: each
        protected page is touched with probability ``1 - exp(-n * p)``,
        independently.  Hot ("active") candidates get their own Bernoulli
        draw; the dormant tail is sampled by drawing the total number of
        dormant accesses ``K ~ Poisson(n * dormant_mass)`` and placing
        them on pages proportionally to ``p`` -- by Poisson thinning the
        two formulations induce exactly the same touched-set law.  At
        steady state (thousands of cold protected pages, hardly any
        touched) the quantum costs a few scalar draws instead of an
        O(protected) vector pass.
        """
        protected = pages.protected_pages()
        if not protected.size:
            return 0
        if (
            buffers.fault_probs is not probs
            or buffers.fault_prot is not protected
        ):
            self._rebuild_fault_cache(
                buffers, probs, protected, n_accesses
            )
        rng = process.rng
        mask = None
        active_p = buffers.active_p
        if active_p.size:
            lam = n_accesses * active_p
            touched = rng.random(active_p.size) < -np.expm1(-lam)
            if touched.any():
                mask = buffers.touched_mask
                mask[:] = False
                mask[buffers.active_pos[touched]] = True
        if buffers.dormant_mass > 0.0:
            k = rng.poisson(n_accesses * buffers.dormant_mass)
            if k:
                cdf = buffers.dormant_cdf
                hits = np.searchsorted(
                    cdf,
                    rng.random(int(k)) * buffers.dormant_mass,
                    side="right",
                )
                # A draw can round onto the upper cdf edge; clamp it
                # back into range (measure-zero event, any bucket works).
                np.minimum(hits, cdf.size - 1, out=hits)
                if mask is None:
                    mask = buffers.touched_mask
                    mask[:] = False
                mask[buffers.dormant_pos[hits]] = True
        if mask is None:
            return 0
        touched_vpns = protected[mask]
        rates = n_accesses * buffers.prot_p[mask] / quantum_ns
        np.logical_not(mask, out=mask)
        batch = take_hint_faults(
            process,
            touched_vpns,
            start_ns,
            quantum_ns,
            rng,
            rates_per_ns=rates,
            cache_remainder=protected[mask],
        )
        self.kernel.deliver_faults(process, batch)
        return batch.n_faults

    # ------------------------------------------------------------------
    def _record_latency(
        self,
        process: SimProcess,
        n_accesses: float,
        tier_mass: np.ndarray,
        write_fraction: float,
        n_faults: int,
    ) -> None:
        pending = self._lat_pending.get(process.pid)
        if pending is None:
            pending = self._lat_pending.setdefault(process.pid, {})
        remaining_faults = float(n_faults)
        # Assemble the quantum's latency classes (at most 2 per tier plus
        # one fault class).  The classes are a handful of scalars keyed
        # by the per-quantum integer keys ``run`` precomputed, so this is
        # a few plain dict accumulations; the pending classes fold into
        # the public mixtures at the end of the run (``_flush_latency``).
        read_keys = self._read_keys
        write_keys = self._write_keys
        masses = tier_mass.tolist()
        last_tier = self._n_tiers - 1
        get = pending.get
        for tier_id in range(self._n_tiers):
            mass = masses[tier_id] * n_accesses
            if mass <= 0:
                continue
            reads = mass * (1.0 - write_fraction)
            writes = mass * write_fraction
            # Faulted accesses pay the trap cost on top; attribute them to
            # the slower tiers first (that is where scans concentrate).
            if tier_id == last_tier and remaining_faults > 0:
                faulted = min(reads, remaining_faults)
                fault_key = self._fault_key
                pending[fault_key] = get(fault_key, 0.0) + faulted
                reads -= faulted
                remaining_faults -= faulted
            read_key = read_keys[tier_id]
            write_key = write_keys[tier_id]
            pending[read_key] = get(read_key, 0.0) + reads
            pending[write_key] = get(write_key, 0.0) + writes

    def _flush_latency(self) -> None:
        """Fold pending latency classes into the public mixtures.

        Runs at the end of every ``run`` call; until then the per-quantum
        hot path only touches plain per-process dicts.  Callers driving
        ``run_quantum`` directly (tests, custom harnesses) can invoke
        this to materialise ``latency`` / ``latency_by_pid`` on demand.
        In arena mode the per-key segment vectors scatter here too.
        """
        if self._arena is not None:
            self._arena.flush_latency_into(self)
        pending = self._lat_pending
        if not pending:
            return
        global_mix = self.latency
        for pid, classes in pending.items():
            pid_mix = self.latency_by_pid.get(pid)
            if pid_mix is None:
                pid_mix = self.latency_by_pid.setdefault(
                    pid, LatencyMixture()
                )
            for key, count in classes.items():
                global_mix.add_keyed(key, count)
                pid_mix.add_keyed(key, count)
        pending.clear()
