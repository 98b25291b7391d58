"""The batched quantum execution engine.

Every simulated process advances through fixed wall-clock quanta (default
50 ms).  Within a quantum the engine:

1. asks the workload for its access distribution ``p`` and prices the mix
   against the current page placement,
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
LRU aging, and policy daemons.

There are two stepping paths and no others:

* **The arena** (the default, ``fast_path=True``; ``docs/SIMULATION.md``
  section 7) steps every (macro-)quantum as one batched array program
  over a cross-process page arena (:mod:`repro.harness.arena`), one
  process or many: a gather pass vectorised over write-through witness
  cells, tier masses repaired in O(moved) from the page-state move
  journal, pricing refolded only for dirty rows, one aggregate fault
  draw from a fleet-wide fault plan (touches and fault times on the
  dedicated ``engine.arena`` stream), one concatenated ledger account,
  lazily flushed per-process stats, one latency fold and one demand
  fold, with a steady-state cache that skips the recompute while no
  input changed.  Its steady-state cost is amortized O(tiers) +
  O(pages that changed) while it keeps the per-page fault/CIT
  statistics of an access-by-access simulation.
* **The reference engine** (``fast_path=False``, :meth:`run_quantum`)
  steps one process at a time and recomputes everything every quantum:
  a per-page latency vector, a full tier-mass recount, one Bernoulli
  draw per protected page from the process's own stream, and eager
  accounting.  It is the oracle the arena is held to; the two agree
  statistically (same laws, different streams), not bit for bit.

**Quantum fusion** (``docs/SIMULATION.md`` section 6) takes the
steady-state stepping cost from O(quanta) to O(kernel events): before
each step the engine peeks the kernel timer queue
(:meth:`Kernel.next_event_ns`) and, when every process is provably in
steady state -- distribution array unchanged (identity), placement
epoch unchanged, protection epoch unchanged, no kernel debt below one
quantum, workload stable through the window, access target not
reachable inside it -- it fuses all quanta up to the event horizon into
one macro-quantum of ``n·K`` nanoseconds.  One ledger run, one merged
fault draw (exact by Poisson merging: the first-arrival law over the
fused window equals the per-quantum composition), one latency fold,
one contention evaluation carried from the converged previous demand.
Policies bound fusion through ``needs_per_quantum`` /
``max_fusion_quanta`` (see :class:`repro.policies.base.TieringPolicy`);
``fusion=False`` (the ``fusion_reference`` mode, CLI ``--no-fusion``)
preserves per-quantum stepping for equivalence gating.  Fusion needs
the arena: the reference engine always steps per quantum.  When fusion
never engages the trajectory is bit-identical to the reference mode:
the horizon check consumes no RNG and a one-quantum step executes the
exact per-quantum path.  The witness and debt bounds are vector
compares over the arena's cells, and only its dynamic rows (stability,
distribution identity) and target rows (access target, counting the
arena's unflushed accesses) are checked one by one.  With a hub
attached, every step counts the bound that set its width
(``engine.fusion_limited_<bound>``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.analysis.latency import LatencyMixture
from repro.kernel.kernel import Kernel
from repro.mem.machine import CACHE_LINE_BYTES
from repro.mem.tier import FAST_TIER
from repro.sim.timeunits import MILLISECOND
from repro.vm.fault import take_hint_faults
from repro.vm.process import SimProcess

Observer = Callable[["QuantumEngine", int], None]


class QuantumEngine:
    """Advances processes and kernel daemons through simulated time."""

    def __init__(
        self,
        kernel: Kernel,
        quantum_ns: int = 50 * MILLISECOND,
        fast_path: bool = True,
        fusion: bool = True,
    ) -> None:
        if quantum_ns <= 0:
            raise ValueError("quantum must be positive")
        self.kernel = kernel
        self.quantum_ns = int(quantum_ns)
        #: arena stepping (``True``) or the reference engine (``False``)
        self.fast_path = bool(fast_path)
        #: quantum fusion enabled?  ``False`` is the ``fusion_reference``
        #: mode: per-quantum stepping, for equivalence gating.  Fusion
        #: additionally requires the fast path (the reference path exists
        #: precisely to replay the historical per-quantum trajectory).
        self.fusion = bool(fusion) and self.fast_path
        #: lazily built :class:`repro.harness.arena.ProcessArena`;
        #: rebuilt whenever the fleet changes, torn down at run end
        self._arena = None
        self.latency = LatencyMixture()
        self.latency_by_pid: Dict[int, LatencyMixture] = {}
        #: per-process pending latency classes ``{pid: {key: count}}``,
        #: folded into the public mixtures at the end of every ``run``
        #: (see ``_flush_latency``)
        self._lat_pending: Dict[int, Dict[int, float]] = {}
        self._prev_demand_bytes_per_sec = np.zeros(kernel.machine.n_tiers)
        self._multipliers = np.ones(kernel.machine.n_tiers)
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

        The single place latency keys are rounded: both the reference
        engine and the arena fold consume ``_read_keys`` /
        ``_write_keys`` / ``_fault_key`` from here, so the two paths
        cannot drift.
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
                # The bound that set this step's width, counted by the
                # obs block (``None`` when fusion is off for the run).
                limit = None
                if fusion_on and quantum != self.quantum_ns:
                    limit = "run_end"
                elif fusion_on:
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
                        n_fused, limit = self._fusion_horizon(
                            start, end_ns, observe_bound, max_fuse
                        )
                    else:
                        limit = "contention"
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
                if self.fast_path:
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
                    if limit is not None:
                        obs.inc("engine.fusion_limited_" + limit)
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
                    if arena_obj is not None:
                        plan = arena_obj.plan
                        for name, delta in plan.take_counters().items():
                            if delta:
                                obs.inc(name, delta)
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

    def _arena_step(self, start_ns: int, macro_ns: int) -> np.ndarray:
        """One batched arena step (builds/rebuilds the arena lazily)."""
        arena = self._arena
        if arena is None or arena.processes != self.kernel.processes:
            from repro.harness.arena import ProcessArena

            if arena is not None:
                arena.detach()
            arena = self._arena = ProcessArena(self)
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
    ) -> Tuple[int, str]:
        """Number of quanta safely fusable into one macro-quantum (>= 1),
        and the bound that set it.

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
        fusion), as does kernel debt below one quantum.  Consumes no
        RNG, so a 1-quantum step stays bit-identical to reference
        stepping.

        The bound names the ``engine.fusion_limited_<bound>`` counter
        the step counts under: ``run_end``, ``event``, ``observer``,
        ``max_quanta``, ``witness``, ``debt``, ``stability`` or
        ``target`` (the first of tied bounds, in that order).  The
        witness and debt bounds are vector compares over the arena's
        cells; only its dynamic rows (stability, distribution identity)
        and target rows (access target) are checked one by one.
        """
        q = self.quantum_ns
        # Whole quanta left in the run; a trailing partial quantum runs
        # unfused.
        n = (end_ns - start_ns) // q
        if n <= 1:
            return 1, "run_end"
        bound = "run_end"

        def quanta_until(at_ns: Optional[int]) -> Optional[int]:
            return None if at_ns is None else -(-(at_ns - start_ns) // q)

        for name, k in (
            ("event", quanta_until(self.kernel.next_event_ns())),
            ("observer", quanta_until(next_observe_ns)),
            ("max_quanta", max_fuse),
        ):
            if k is not None and k < n:
                if k <= 1:
                    return 1, name
                n, bound = int(k), name
        arena = self._arena
        if arena is None or arena.processes != self.kernel.processes:
            # No step of this fleet recorded a witness yet.
            return 1, "witness"
        live = arena._live_mask
        # The witness: placement and protect epochs unchanged since the
        # last quantum (a -1 witness never matches an epoch).
        moved = (arena._cells[:2] != arena.witness_epochs).any(axis=0)
        if (moved & live).any():
            return 1, "witness"
        debt = arena._debt_cells
        owed = debt[(debt > 0.0) & live]
        if owed.size:
            # Pending kernel debt (e.g. a migration burst's cost) makes
            # upcoming quanta heterogeneous: full-stall quanta execute
            # zero accesses, then a mixed quantum drains the remainder.
            # Policies whose per-quantum hooks are nonlinear in the
            # access count (Memtis' budget cap ``min(n, rate*q*share)``
            # is concave) would see a different input if a fused window
            # spanned the stall->recovery transition.  Pure-stall
            # windows are exact (zero accesses either way), so cap the
            # horizon at the smallest debtor's whole stalled quanta and
            # let the mixed quantum run unfused.
            stall_quanta = int(float(owed.min()) // q)
            if stall_quanta <= 1:
                return 1, "debt"
            if stall_quanta < n:
                n, bound = stall_quanta, "debt"
        refs = arena.probs_refs
        for i, _proc, workload, _pages in arena._dynamic_rows:
            # Duck-typed workloads predating the fusion contract get no
            # stability guarantee: treat them like ``stable_until_ns``
            # returning ``now`` (fusion disabled, stepping unchanged).
            stable_fn = getattr(workload, "stable_until_ns", None)
            stable = start_ns if stable_fn is None else stable_fn(start_ns)
            if stable is not None:
                k = -(-(stable - start_ns) // q)
                if k < n:
                    if k <= 1:
                        return 1, "stability"
                    n, bound = k, "stability"
            # ``advance`` is idempotent and consumes no RNG; the step
            # repeats it.  The distribution for the upcoming quantum must
            # be the exact array the last quantum ran against.
            workload.advance(start_ns)
            if workload.access_distribution() is not refs[i]:
                return 1, "witness"
        acc_n = arena._acc_n
        for i, process, workload, _pages in arena._target_rows:
            # The arena folds its accesses into ``process.stats`` lazily:
            # count the unflushed ones too.
            remaining = process.target_accesses - (
                process.stats.accesses + float(acc_n[i])
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
                k = max(1, math.ceil(remaining / cap))
                if k < n:
                    if k <= 1:
                        return 1, "target"
                    n, bound = k, "target"
        return int(n), bound

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
    # The reference engine (``fast_path=False``)
    # ------------------------------------------------------------------
    def _tier_mass(
        self, process: SimProcess, probs: np.ndarray
    ) -> np.ndarray:
        """Probability mass served by each tier, recounted from scratch:
        ``tier_mass[t] = sum(probs[i] for pages i resident on tier t)``."""
        return np.bincount(
            process.pages.tier.astype(np.int64),
            weights=probs,
            minlength=self.kernel.machine.n_tiers,
        )

    def run_quantum(
        self, process: SimProcess, start_ns: int, quantum_ns: int
    ) -> np.ndarray:
        """Execute one process for one quantum on the reference engine;
        returns per-tier bytes of demand it generated."""
        machine = self.kernel.machine
        if process.finished:
            return self._zero_demand

        workload = process.workload
        workload.advance(start_ns)
        probs = workload.access_distribution()
        pages = process.pages
        write_fraction = workload.write_fraction
        multipliers = self._multipliers

        # Price the access mix against current placement + contention:
        # the per-page latency vector, rebuilt from scratch.
        tier_idx = pages.tier
        per_page_latency = (
            (1.0 - write_fraction) * machine.read_latency_ns[tier_idx]
            + write_fraction * machine.write_latency_ns[tier_idx]
        ) * multipliers[tier_idx]
        mean_latency = float(probs @ per_page_latency)
        total_mass = float(self._tier_mass(process, probs).sum())

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

        # Hint faults on protected pages touched this quantum: one
        # Bernoulli draw per page of the full protected snapshot.
        n_faults = 0
        if n_accesses > 0:
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
                        # The surviving protected set is already known
                        # here -- hand it down so the unprotect skips
                        # its membership search.
                        cache_remainder=protected[~touched],
                    )
                    n_faults = batch.n_faults
                    self.kernel.deliver_faults(process, batch)

        # Accounting runs against the *post-fault* placement: fault-path
        # promotions (Linux-NB, TPP, AutoTiering) may have moved pages.
        tier_mass = self._tier_mass(process, probs)

        # Eager ground-truth accounting.
        counts = probs * n_accesses
        pages.access_count += counts
        pages.last_window_count += counts

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
            policy.on_quantum(
                process, probs, n_accesses, start_ns, quantum_ns
            )

        if (
            process.target_accesses is not None
            and process.stats.accesses >= process.target_accesses
        ):
            process.finished = True

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
        hot path only touches plain per-process dicts (reference engine)
        or per-key segment vectors (arena), which both scatter here.
        Callers driving ``run_quantum`` directly (tests, custom
        harnesses) can invoke this to materialise ``latency`` /
        ``latency_by_pid`` on demand.
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
