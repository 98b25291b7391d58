"""The kernel transients' test oracles: the sequential per-process loops.

Production runs each kernel transient window as one fleet pass --
``TickingScanner.scan_fleet``, ``LruLists.age_fleet``,
``LruLists.coldest_pages_two_phase`` and ``MigrationEngine.migrate_many``
-- and fires the per-process policy hooks afterwards in visiting order.
The functions here are the straightforward bodies those passes replaced,
kept verbatim apart from their profiler sections and the dense aging
pass's cached scratch arrays (``self`` is named after the object it
binds to):

* :func:`age_process` -- one aging pass over one process: a dense pass
  when every page is a candidate, a sparse one over the candidate set
  otherwise, with ``fine_grained`` drawing each process's uniforms
  before its exponentials;
* :func:`scan_once` -- one Ticking-scan event: window, tier filter,
  ``PROT_NONE`` marking, charge, stats, obs, then the ``on_scan`` hook;
* :func:`coldest_pages` -- one ranked victim selection, inactive-only
  or over the whole tier;
* :func:`migrate` and :func:`release_source_frames` -- one per-process
  migration batch;
* :func:`aging_tick` and :func:`scan_tick` -- the kernel's aging and
  scan events run process by process, each hook firing right after its
  own process's pass;
* :func:`coldest_pages_two_phase` and :func:`migrate_many` -- the
  fleet selectors' contracts written as calls of the above.

Every fleet pass must reproduce these bit for bit, RNG stream position
included.  The unit oracles in ``tests/test_batched_oracle.py`` compare
each pass with its function here; the end-to-end oracle installs them
all in place of the fleet passes::

    install(monkeypatch)

and demands the same trajectory from every registered policy.

This module is not collected by pytest (its name does not match
``test_*.py``); it is imported by the tests that use it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.kernel.kernel import AGING_PAGE_COST_NS, Kernel
from repro.kernel.lru import LruLists
from repro.kernel.migration import MigrationEngine
from repro.kernel.scanner import TickingScanner
from repro.mem.tier import FAST_TIER


# ---------------------------------------------------------------------------
# LRU aging
# ---------------------------------------------------------------------------
def age_process(lru, process, now_ns: int) -> np.ndarray:
    """Run one aging pass over a process; return the touched mask."""
    pages = process.pages
    window = max(now_ns - lru._last_age_ns.get(process.pid, 0), 1)
    lru._last_age_ns[process.pid] = now_ns
    lam = pages.last_window_count
    n_pages = pages.n_pages
    candidates = lam > 0.0
    candidates |= pages.accessed
    candidates |= pages.lru_active
    idx = np.flatnonzero(candidates)
    misses = pages.lru_misses

    if idx.size == n_pages:
        # Dense pass, bitwise identical to the historical full scan.
        draws = np.empty(n_pages, dtype=np.float64)
        prob = np.empty(n_pages, dtype=np.float64)
        # ``1 - exp(-lam)`` computed in place; the RNG stream is
        # identical to a fresh ``random(n)`` call (same generator,
        # same draw count).
        lru._rng.random(out=draws)
        np.negative(lam, out=prob)
        np.expm1(prob, out=prob)
        np.negative(prob, out=prob)
        touched = draws < prob
        touched |= pages.accessed

        misses[touched] = 0
        misses[~touched] += 1

        if lru.fine_grained:
            rates = np.maximum(lam[touched], 1.0) / window
            back_gaps = lru._rng.exponential(1.0 / rates)
            back_gaps = np.minimum(back_gaps, window - 1).astype(
                np.int64
            )
            pages.lru_gen[touched] = now_ns - back_gaps
        else:
            pages.lru_gen[touched] = now_ns
        pages.lru_active[touched] = True
        pages.lru_active[misses >= lru.DEACTIVATE_AFTER] = False

        pages.accessed[:] = False
        pages.clear_window_counts()
        return touched

    # Sparse pass over the candidate subset.
    lam_sub = lam[idx]
    prob_sub = -np.expm1(-lam_sub)
    touched_sub = lru._rng.random(idx.size) < prob_sub
    touched_sub |= pages.accessed[idx]
    touched_idx = idx[touched_sub]
    missed_idx = idx[~touched_sub]

    misses[touched_idx] = 0
    misses[missed_idx] += 1

    if lru.fine_grained:
        rates = np.maximum(lam_sub[touched_sub], 1.0) / window
        back_gaps = lru._rng.exponential(1.0 / rates)
        back_gaps = np.minimum(back_gaps, window - 1).astype(np.int64)
        pages.lru_gen[touched_idx] = now_ns - back_gaps
    else:
        pages.lru_gen[touched_idx] = now_ns
    pages.lru_active[touched_idx] = True
    deactivate = missed_idx[
        misses[missed_idx] >= lru.DEACTIVATE_AFTER
    ]
    pages.lru_active[deactivate] = False

    # Accessed bits and nonzero window counts live inside the
    # candidate set by construction, so sparse resets are complete.
    pages.accessed[idx] = False
    pages.clear_window_counts(idx)
    touched = np.zeros(n_pages, dtype=bool)
    touched[touched_idx] = True
    return touched


def aging_tick(kernel, now_ns: int) -> None:
    """``Kernel._aging_tick`` as a per-process loop: each process is
    aged and then handed to ``on_lru_age`` before the next is aged."""
    order = kernel.rng.get("kernel.aging").permutation(
        len(kernel.processes)
    )
    visit = [
        kernel.processes[int(index)]
        for index in order
        if not kernel.processes[int(index)].finished
    ]
    obs = kernel.obs
    for process in visit:
        touched = age_process(kernel.lru, process, now_ns)
        if obs is not None:
            obs.inc("aging.passes")
            obs.emit(
                "aging.pass",
                now_ns,
                pid=process.pid,
                n_touched=int(np.count_nonzero(touched)),
            )
        cost = (
            process.n_pages
            * AGING_PAGE_COST_NS
            * kernel.machine.spec.page_scale
        )
        process.charge_kernel(cost)
        kernel.stats.kernel_time_ns += cost
        if kernel.policy is not None and hasattr(
            kernel.policy, "on_lru_age"
        ):
            kernel.policy.on_lru_age(process, touched, now_ns)
    kernel._schedule_aging(now_ns + kernel.aging_period_ns)


# ---------------------------------------------------------------------------
# Ticking scan
# ---------------------------------------------------------------------------
def scan_once(scanner, process, now_ns: int) -> np.ndarray:
    """Run one scan event: mark a window PROT_NONE, stamp scan times.

    Returns the window vpns (after tier filtering).  Charges the
    per-page PTE-walk cost to the process and bumps the global scan
    counters.
    """
    step = min(scanner.config.scan_step_pages, process.n_pages)
    window, wrapped = process.aspace.next_scan_window(step)
    if scanner.config.tier_filter is not None:
        window = window[
            process.pages.tier[window] == scanner.config.tier_filter
        ]
    marked = process.pages.protect(window, now_ns)

    cost = window.size * scanner.kernel.machine.spec.effective_scan_cost_ns
    process.charge_kernel(cost)
    scanner.kernel.stats.kernel_time_ns += cost
    scanner.kernel.stats.pages_scanned += marked
    if wrapped:
        scanner.kernel.stats.scan_passes += 1
    obs = scanner.kernel.obs
    if obs is not None:
        obs.inc("scan.windows")
        obs.inc("scan.pages_marked", marked)
        if wrapped:
            obs.inc("scan.passes")
        obs.emit(
            "scan.window",
            now_ns,
            pid=process.pid,
            n_window=int(window.size),
            n_marked=int(marked),
            wrapped=bool(wrapped),
            vpns=window,
        )

    if scanner.on_scan is not None:
        scanner.on_scan(process, window, now_ns)
    return window


def scan_tick(scanner, process, now_ns: int) -> None:
    """``TickingScanner._tick`` without the sibling drain: every scan
    event runs alone, in the scheduler's firing order."""
    if process.finished:
        return
    # Stamp protections with the *effective* time (the clock, already
    # advanced to the engine boundary), but keep the drift-free cadence
    # by rescheduling from the nominal expiry.
    scan_once(scanner, process, scanner.kernel.clock.now)
    scanner._schedule(process, now_ns + scanner.interval_ns(process))


# ---------------------------------------------------------------------------
# Reclaim victim selection
# ---------------------------------------------------------------------------
def coldest_pages(
    lru,
    processes: Sequence,
    tier_id: int,
    n_pages: int,
    inactive_only: bool = True,
) -> List[Tuple[object, np.ndarray]]:
    """Select up to ``n_pages`` coldest pages resident in ``tier_id``.

    Pages are ranked by ascending generation (oldest reference first),
    restricted to the inactive list unless ``inactive_only`` is False --
    matching how kswapd scans the inactive list before touching active
    pages.  Returns per-process vpn arrays.
    """
    if n_pages <= 0:
        return []
    tier = np.concatenate([p.pages.tier for p in processes])
    if tier.size == 0:
        return []
    mask = tier == tier_id
    if inactive_only:
        active = np.concatenate(
            [p.pages.lru_active for p in processes]
        )
        mask &= ~active
    gens = np.concatenate([p.pages.lru_gen for p in processes])
    starts = _fleet_starts(processes)
    return lru._select_coldest(
        processes, mask, gens, starts, n_pages
    )


def _fleet_starts(processes: Sequence) -> np.ndarray:
    """Offsets of each process's pages in the concatenation."""
    starts = np.zeros(len(processes) + 1, dtype=np.int64)
    np.cumsum(
        np.array([p.pages.n_pages for p in processes], dtype=np.int64),
        out=starts[1:],
    )
    return starts


def coldest_pages_two_phase(lru, processes, tier_id: int, n_pages: int):
    """Inactive-first selection, then the active-list fallback for the
    shortfall: two :func:`coldest_pages` calls."""
    first = coldest_pages(
        lru, processes, tier_id, n_pages, inactive_only=True
    )
    selected = sum(v.size for _, v in first)
    second = []
    if selected < n_pages:
        second = coldest_pages(
            lru, processes, tier_id, n_pages - selected,
            inactive_only=False,
        )
    return first, second


# ---------------------------------------------------------------------------
# Migration
# ---------------------------------------------------------------------------
def release_source_frames(tiers, src_tiers: np.ndarray) -> None:
    """Release one frame per moved page back to its source tier."""
    if src_tiers.size == 0:
        return
    first = int(src_tiers[0])
    if (src_tiers == first).all():
        tiers[first].release(int(src_tiers.size))
        return
    counts = np.bincount(src_tiers, minlength=len(tiers))
    for tier_id in np.flatnonzero(counts):
        tiers[tier_id].release(int(counts[tier_id]))


def migrate(
    engine,
    process,
    vpns: np.ndarray,
    dst_tier_id: int,
    mark_demoted: bool = False,
) -> np.ndarray:
    """Migrate pages of ``process`` to ``dst_tier_id``.

    Pages already on the destination tier are skipped.  If the
    destination runs out of frames mid-batch, the overflow is dropped
    (counted in ``promotion_dropped`` when promoting).  Returns the vpns
    that actually moved.
    """
    machine = engine.kernel.machine
    stats = engine.kernel.stats
    pages = process.pages

    vpns = np.asarray(vpns, dtype=np.int64)
    vpns = vpns[pages.tier[vpns] != dst_tier_id]
    if vpns.size == 0:
        return vpns

    obs = engine.kernel.obs
    if obs is not None:
        obs.emit(
            "migration.issue",
            engine.kernel.clock.now,
            pid=process.pid,
            dst_tier=dst_tier_id,
            n_requested=int(vpns.size),
        )

    dst = machine.tiers[dst_tier_id]
    granted = dst.allocate(vpns.size)
    dropped = int(vpns.size - granted)
    if granted < vpns.size and dst_tier_id == FAST_TIER:
        stats.promotion_dropped += vpns.size - granted
        if obs is not None:
            obs.inc("migration.dropped_pages", dropped)
    moved = vpns[:granted]
    if moved.size == 0:
        return moved
    # Batch order encoded the caller's priority; now that the
    # truncation happened it carries no meaning, and sorted batches
    # keep the journal/protection paths on their monotonic fast
    # paths.
    moved = np.sort(moved)

    # Release source frames, per source tier.
    src_tiers = pages.tier[moved]
    release_source_frames(machine.tiers, src_tiers)

    pages.move_to_tier(moved, dst_tier_id)

    # Cost: bounded by the slower end of the copy. Use the majority
    # source tier's bandwidth for the batch (batches are single-source
    # in practice).
    src_bw = float(
        machine.bandwidth_bytes[int(src_tiers[0])]
    )
    dst_bw = float(machine.bandwidth_bytes[dst_tier_id])
    cost = machine.migration_cost.migrate_cost_ns(
        int(moved.size), src_bw, dst_bw
    )
    process.charge_kernel(cost)
    stats.kernel_time_ns += cost
    stats.migration_time_ns += cost

    nbytes = machine.migration_cost.migrate_bytes(int(moved.size))
    machine.tiers[dst_tier_id].charge_migration_bytes(nbytes)
    machine.tiers[int(src_tiers[0])].charge_migration_bytes(nbytes)

    if dst_tier_id == FAST_TIER:
        stats.pgpromote += int(moved.size)
        process.stats.pages_promoted += int(moved.size)
        # A promoted page was just proven hot; it enters the active
        # list with a fresh generation.
        pages.lru_active[moved] = True
        pages.lru_gen[moved] = engine.kernel.clock.now
        # Promotion clears any demotion bookkeeping.
        pages.demoted[moved] = False
    else:
        stats.pgdemote += int(moved.size)
        process.stats.pages_demoted += int(moved.size)
        pages.lru_active[moved] = False
        if mark_demoted:
            now = engine.kernel.clock.now
            pages.demoted[moved] = True
            pages.demote_ts_ns[moved] = now
            pages.protect_at(
                moved, np.full(moved.size, now, dtype=np.int64)
            )

    if obs is not None:
        if dst_tier_id == FAST_TIER:
            obs.inc("migration.promoted_pages", int(moved.size))
        else:
            obs.inc("migration.demoted_pages", int(moved.size))
        obs.inc("migration.cost_ns", cost)
        obs.observe("migration.batch_pages", float(moved.size))
        obs.emit(
            "migration.complete",
            engine.kernel.clock.now,
            pid=process.pid,
            dst_tier=dst_tier_id,
            n_moved=int(moved.size),
            n_dropped=dropped,
            cost_ns=float(cost),
            promotion=dst_tier_id == FAST_TIER,
            vpns=moved,
        )

    # Context switches: migrations run in kthreads and bounce the task.
    switches = max(1, int(moved.size) // 64)
    stats.context_switches += switches
    process.stats.context_switches += switches
    return moved


def migrate_many(engine, batches, dst_tier_id: int, mark_demoted=False):
    """One :func:`migrate` call per batch, in order."""
    return [
        (process, migrate(engine, process, vpns, dst_tier_id, mark_demoted))
        for process, vpns in batches
    ]


# ---------------------------------------------------------------------------
def install(monkeypatch) -> None:
    """Replace every kernel fleet pass with the sequential loops above."""
    monkeypatch.setattr(Kernel, "_aging_tick", aging_tick)
    monkeypatch.setattr(LruLists, "age_process", age_process)
    monkeypatch.setattr(
        LruLists, "coldest_pages_two_phase", coldest_pages_two_phase
    )
    monkeypatch.setattr(TickingScanner, "_tick", scan_tick)
    monkeypatch.setattr(TickingScanner, "scan_once", scan_once)
    monkeypatch.setattr(MigrationEngine, "migrate", migrate)
    monkeypatch.setattr(MigrationEngine, "migrate_many", migrate_many)
