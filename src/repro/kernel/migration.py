"""The page-migration engine.

All cross-tier page movement funnels through :class:`MigrationEngine`: it
does the frame accounting against the tier pools, updates per-page node ids,
charges the kernel-time cost of unmap/copy/remap to the owning process, and
maintains the promotion/demotion counters every experiment reads.

Migration has one implementation, :meth:`MigrationEngine.migrate_many`,
a pass over a list of per-process batches; ``migrate`` and ``promote``
are one-batch calls of it.  The per-batch loop it replaced is kept as the
test oracle in ``tests/transient_oracle.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.mem.tier import FAST_TIER

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.vm.process import SimProcess


class MigrationEngine:
    """Moves pages between tiers with full cost and frame accounting."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    def migrate(
        self,
        process: "SimProcess",
        vpns: np.ndarray,
        dst_tier_id: int,
        mark_demoted: bool = False,
    ) -> np.ndarray:
        """Migrate pages of ``process`` to ``dst_tier_id``: one batch of
        :meth:`migrate_many`.  Returns the vpns that actually moved."""
        return self.migrate_many(
            [(process, vpns)], dst_tier_id, mark_demoted
        )[0][1]

    def promote(
        self, process: "SimProcess", vpns: np.ndarray
    ) -> np.ndarray:
        """Promote pages to the fast tier."""
        return self.migrate(process, vpns, FAST_TIER)

    # ------------------------------------------------------------------
    def migrate_many(
        self,
        batches: Sequence[Tuple["SimProcess", np.ndarray]],
        dst_tier_id: int,
        mark_demoted: bool = False,
    ) -> List[Tuple["SimProcess", np.ndarray]]:
        """Migrate several per-process batches in one engine pass.

        Per batch, pages already on the destination tier are skipped;
        the rest are granted destination frames first-come-first-served
        in batch order.  When the destination runs out of frames, each
        batch's overflow is dropped (counted in ``promotion_dropped``
        when promoting) -- the kernel behaves the same way when
        ``migrate_pages`` cannot allocate on the target node.  One
        ``allocate`` for the grand total, split greedily, gives the
        grants of one call per batch, because source-frame releases go
        to *other* tiers and cannot refill the destination mid-loop.
        Every per-batch cost/stat/obs value is computed with the
        per-batch formula, and no RNG is consumed.  The pass makes one
        release and one byte charge per populated tier, and one set of
        global-stat updates.

        Returns ``(process, moved_vpns)`` per batch, moved arrays
        possibly empty.
        """
        profiler = self.kernel.profiler
        if profiler is not None:
            profiler.push("migrate")
        try:
            machine = self.kernel.machine
            stats = self.kernel.stats
            obs = self.kernel.obs
            empty = np.empty(0, dtype=np.int64)

            # Filter pass: drop pages already on the destination tier.
            todo: List[Tuple["SimProcess", np.ndarray]] = []
            total = 0
            for process, vpns in batches:
                vpns = np.asarray(vpns, dtype=np.int64)
                vpns = vpns[process.pages.tier[vpns] != dst_tier_id]
                todo.append((process, vpns))
                total += int(vpns.size)
            if total == 0:
                return [(process, empty) for process, _ in todo]

            # One destination-frame solve: sequential calls each allocate
            # from a pool only *they* drain (releases refill source tiers,
            # never the destination), so granting the total upfront and
            # splitting greedily in batch order reproduces the sequential
            # grants exactly.
            dst = machine.tiers[dst_tier_id]
            remaining = dst.allocate(total)

            release_counts = np.zeros(len(machine.tiers), dtype=np.int64)
            migration_bytes = np.zeros(len(machine.tiers), dtype=np.int64)
            bandwidth = machine.bandwidth_bytes
            migration_cost = machine.migration_cost
            dst_bw = float(bandwidth[dst_tier_id])
            kernel_time = 0.0
            promoted_total = 0
            demoted_total = 0
            dropped_total = 0
            switches_total = 0
            now = self.kernel.clock.now
            results: List[Tuple["SimProcess", np.ndarray]] = []
            for process, vpns in todo:
                if vpns.size == 0:
                    results.append((process, vpns))
                    continue
                if obs is not None:
                    obs.emit(
                        "migration.issue",
                        now,
                        pid=process.pid,
                        dst_tier=dst_tier_id,
                        n_requested=int(vpns.size),
                    )
                granted = min(int(vpns.size), remaining)
                remaining -= granted
                dropped = int(vpns.size) - granted
                if dropped and dst_tier_id == FAST_TIER:
                    dropped_total += dropped
                    if obs is not None:
                        obs.inc("migration.dropped_pages", dropped)
                moved = vpns[:granted]
                if moved.size == 0:
                    results.append((process, moved))
                    continue
                # Batch order encoded the caller's priority; now that the
                # truncation happened it carries no meaning, and sorted
                # batches keep the journal/protection paths on their
                # monotonic fast paths.
                moved = np.sort(moved)
                pages = process.pages

                src_tiers = pages.tier[moved]
                first = int(src_tiers[0])
                if (src_tiers == first).all():
                    release_counts[first] += int(src_tiers.size)
                else:
                    release_counts += np.bincount(
                        src_tiers, minlength=release_counts.size
                    )

                pages.move_to_tier(moved, dst_tier_id)

                # Cost: bounded by the slower end of the copy, at the
                # first source tier's bandwidth (batches are
                # single-source in practice).
                cost = migration_cost.migrate_cost_ns(
                    int(moved.size), float(bandwidth[first]), dst_bw
                )
                process.charge_kernel(cost)
                kernel_time += cost

                nbytes = migration_cost.migrate_bytes(int(moved.size))
                migration_bytes[dst_tier_id] += nbytes
                migration_bytes[first] += nbytes

                if dst_tier_id == FAST_TIER:
                    promoted_total += int(moved.size)
                    process.stats.pages_promoted += int(moved.size)
                    # A promoted page was just proven hot; it enters the
                    # active list with a fresh generation and loses any
                    # demotion bookkeeping.
                    pages.lru_active[moved] = True
                    pages.lru_gen[moved] = now
                    pages.demoted[moved] = False
                else:
                    demoted_total += int(moved.size)
                    process.stats.pages_demoted += int(moved.size)
                    pages.lru_active[moved] = False
                    if mark_demoted:
                        # Chrono's thrashing monitor (Section 3.3.2): flag
                        # the page, stamp the demotion time, and make it
                        # inaccessible immediately -- the demotion
                        # timestamp substitutes for the Ticking-scan
                        # timestamp, so the page re-enters CIT evaluation
                        # right away.
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
                        now,
                        pid=process.pid,
                        dst_tier=dst_tier_id,
                        n_moved=int(moved.size),
                        n_dropped=dropped,
                        cost_ns=float(cost),
                        promotion=dst_tier_id == FAST_TIER,
                        vpns=moved,
                    )

                # Migrations run in kthreads and bounce the task.
                switches = max(1, int(moved.size) // 64)
                switches_total += switches
                process.stats.context_switches += switches
                results.append((process, moved))

            for tier_id in np.flatnonzero(release_counts):
                machine.tiers[tier_id].release(int(release_counts[tier_id]))
            for tier_id in np.flatnonzero(migration_bytes):
                machine.tiers[int(tier_id)].charge_migration_bytes(
                    int(migration_bytes[tier_id])
                )
            stats.promotion_dropped += dropped_total
            stats.kernel_time_ns += kernel_time
            stats.migration_time_ns += kernel_time
            stats.pgpromote += promoted_total
            stats.pgdemote += demoted_total
            stats.context_switches += switches_total
            return results
        finally:
            if profiler is not None:
                profiler.pop()
