"""Property-based tests (hypothesis) on core data structures and
invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.latency import LatencyMixture
from repro.analysis.metrics import f1_score, precision_recall
from repro.core.candidates import CandidateFilter
from repro.core.cit import (
    bucket_lower_bound_ns,
    bucket_upper_bound_ns,
    cit_bucket,
)
from repro.core.promotion import PromotionQueue
from repro.core.tuning import SemiAutoTuner
from repro.mem.tier import FAST_TIER, SLOW_TIER, MemoryTier, dram_spec
from repro.pebs.histogram import bin_of
from repro.sim.events import EventScheduler
from repro.vm.hugepage import aggregate_by_huge, n_huge_pages
from repro.vm.page_state import PageState
from tests.conftest import make_kernel, make_process


class TestCitBucketProperties:
    @given(st.integers(min_value=0, max_value=2**60))
    def test_value_within_its_bucket_bounds(self, cit_ns):
        bucket = int(cit_bucket(np.array([cit_ns]))[0])
        assert bucket_lower_bound_ns(bucket) <= cit_ns
        if bucket < 27:  # not the saturating bucket
            assert cit_ns < bucket_upper_bound_ns(bucket)

    @given(
        st.integers(min_value=0, max_value=2**50),
        st.integers(min_value=0, max_value=2**50),
    )
    def test_bucketing_is_monotone(self, a, b):
        low, high = sorted([a, b])
        buckets = cit_bucket(np.array([low, high]))
        assert buckets[0] <= buckets[1]

    @given(st.integers(min_value=1, max_value=26))
    def test_bounds_are_adjacent(self, bucket):
        assert bucket_upper_bound_ns(bucket - 1) == (
            bucket_lower_bound_ns(bucket)
        )


class TestPebsBinProperties:
    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_bins_monotone_in_counts(self, counts):
        values = np.sort(np.array(counts))
        bins = bin_of(values)
        assert (np.diff(bins) >= 0).all()


class TestLatencyMixtureProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=100_000),
                st.floats(min_value=0.01, max_value=1e6,
                          allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_mean_within_support_and_quantiles_monotone(self, points):
        mix = LatencyMixture()
        for latency, count in points:
            mix.add(latency, count)
        latencies = [p[0] for p in points]
        epsilon = 1e-9 * max(latencies)
        assert (
            min(latencies) - epsilon
            <= mix.mean()
            <= max(latencies) + epsilon
        )
        quantiles = [mix.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)
        assert mix.quantile(1.0) == max(latencies)


class TestMetricsProperties:
    @given(
        st.lists(st.booleans(), min_size=1, max_size=64),
        st.lists(st.booleans(), min_size=1, max_size=64),
    )
    def test_scores_bounded(self, truth, pred):
        n = min(len(truth), len(pred))
        t = np.array(truth[:n])
        p = np.array(pred[:n])
        precision, recall = precision_recall(t, p)
        assert 0.0 <= precision <= 1.0
        assert 0.0 <= recall <= 1.0
        assert 0.0 <= f1_score(t, p) <= 1.0

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    def test_perfect_prediction_is_one(self, truth):
        t = np.array(truth)
        if t.any():
            assert f1_score(t, t) == 1.0


class TestTierAccountingProperties:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 50)),
            max_size=40,
        )
    )
    def test_used_pages_never_out_of_range(self, operations):
        tier = MemoryTier(tier_id=0, spec=dram_spec(100))
        for is_alloc, n in operations:
            if is_alloc:
                tier.allocate(n)
            else:
                tier.release(min(n, tier.used_pages))
            assert 0 <= tier.used_pages <= tier.capacity_pages
            assert tier.free_pages == (
                tier.capacity_pages - tier.used_pages
            )


class TestPromotionQueueProperties:
    @given(
        st.lists(st.integers(0, 63), min_size=1, max_size=100),
        st.integers(min_value=1, max_value=50),
    )
    def test_drain_conserves_pages(self, vpns, rate):
        process = make_process(n_pages=64)
        queue = PromotionQueue(float(rate))
        queue.enqueue([process], np.array(vpns))
        unique = len(set(vpns))
        assert len(queue) == unique
        drained = 0
        for _ in range(200):
            batches = queue.drain(elapsed_ns=10**9)
            drained += sum(v.size for _, v in batches)
            if len(queue) == 0:
                break
        assert drained == unique
        # No duplicates ever dequeued.
        assert queue.dequeued_total == unique


class TestCandidateFilterProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 31),
                st.integers(min_value=1, max_value=10**9),
            ),
            min_size=1,
            max_size=200,
        ),
        st.integers(min_value=2, max_value=3),
    )
    def test_ready_pages_saw_n_below_threshold_rounds(
        self, observations, n_rounds
    ):
        threshold = 10**6
        process = make_process(n_pages=32)
        filt = CandidateFilter(n_rounds=n_rounds)
        below_streak = {vpn: 0 for vpn in range(32)}
        for vpn, cit in observations:
            result = filt.observe(
                process.pages.table, np.array([vpn]), np.array([cit]),
                threshold,
            )
            if cit < threshold:
                below_streak[vpn] += 1
            else:
                below_streak[vpn] = 0
            for ready in result.ready:
                # A ready page's last n observations were all below the
                # threshold.
                assert below_streak[int(ready)] >= n_rounds
                below_streak[int(ready)] = 0
            assert filt.candidate_count(process) <= 32


class TestTunerProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=1e4,
                          allow_nan=False),
                st.floats(min_value=0.0, max_value=1e4,
                          allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_threshold_stays_in_bounds(self, updates):
        tuner = SemiAutoTuner(
            threshold_ns=5e6, min_threshold_ns=1e6, max_threshold_ns=1e8
        )
        for rate_limit, enqueue in updates:
            tuner.update(rate_limit, enqueue)
            assert 1e6 <= tuner.threshold_ns <= 1e8


class TestHugePageProperties:
    @given(
        st.integers(min_value=1, max_value=5000),
        st.sampled_from([2, 8, 64, 512]),
    )
    def test_aggregation_conserves_mass(self, n_pages, hp):
        rng = np.random.default_rng(n_pages)
        values = rng.random(n_pages)
        groups = aggregate_by_huge(values, hp)
        assert groups.size == n_huge_pages(n_pages, hp)
        assert groups.sum() == np.float64(groups.sum())
        np.testing.assert_allclose(groups.sum(), values.sum())


class TestSchedulerProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=1,
            max_size=60,
        )
    )
    def test_events_fire_in_time_order(self, times):
        scheduler = EventScheduler()
        fired = []
        for when in times:
            scheduler.schedule(when, fired.append)
        scheduler.run_due(2000)
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(
        st.integers(min_value=1, max_value=50),
        st.lists(
            st.integers(min_value=1, max_value=97),
            min_size=1,
            max_size=30,
        ),
    )
    def test_periodic_reschedule_is_drift_free(self, period, deltas):
        """A self-rescheduling daemon keeps an exact cadence no matter how
        coarsely (or unevenly) the clock advances."""
        scheduler = EventScheduler()
        fired = []

        def periodic(now):
            fired.append(now)
            scheduler.schedule(now + period, periodic)

        scheduler.schedule(0, periodic)
        now = 0
        for delta in deltas:
            now += delta
            scheduler.run_due(now)
        assert fired == list(range(0, now + 1, period))

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=500),
                st.booleans(),  # soft
                st.booleans(),  # cancelled
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_next_event_ns_consistent_with_run_due(self, specs):
        """``next_event_ns`` is exactly the first instant at which
        ``run_due`` would fire a hard event; soft and cancelled events
        never move it."""
        scheduler = EventScheduler()
        hard_fired = []
        for when, soft, cancelled in specs:
            if soft:
                event = scheduler.schedule(when, lambda t: None, soft=True)
            else:
                event = scheduler.schedule(when, hard_fired.append)
            if cancelled:
                event.cancel()
        live_hard = sorted(
            when for when, soft, cancelled in specs
            if not soft and not cancelled
        )
        horizon = scheduler.next_event_ns()
        assert horizon == (live_hard[0] if live_hard else None)
        if horizon is not None and horizon > 0:
            scheduler.run_due(horizon - 1)
            assert hard_fired == []
        scheduler.run_due(1000)
        assert hard_fired == live_hard

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("schedule"),
                    st.integers(min_value=0, max_value=50),
                ),
                st.tuples(
                    st.just("advance"),
                    st.integers(min_value=0, max_value=60),
                ),
            ),
            max_size=60,
        )
    )
    @settings(deadline=None)
    def test_interleaved_schedule_advance_never_fires_early(self, ops):
        """Arbitrary interleaving of scheduling (relative to *now*) and
        clock advances never runs a callback before its scheduled time,
        and never leaves a due event pending."""
        scheduler = EventScheduler()
        clock = {"now": 0}
        fired = []
        scheduled = 0

        def record(when):
            fired.append((when, clock["now"]))

        for op, value in ops:
            if op == "schedule":
                scheduler.schedule(clock["now"] + value, record)
                scheduled += 1
            else:
                clock["now"] += value
                scheduler.run_due(clock["now"])
        scheduler.run_due(clock["now"])
        for when, at in fired:
            assert when <= at  # never early
        remaining = scheduler.next_due()
        assert remaining is None or remaining > clock["now"]
        assert len(fired) + len(scheduler) == scheduled


class TestArenaMassRepairProperties:
    """Random multi-segment migration journals keep the arena's mass
    matrix consistent through the fused replay.

    ``_repair_mass_many`` folds several segments' journal entries in
    one pass, replacing the per-entry weighted ``bincount`` with two
    scalar updates when a batch is single-source; the sum-then-subtract
    rounding can drift a drained tier a few ulps below zero, and the
    replay must clamp that drift away (negative mass poisons the
    demand fold).  The replayed rows must also agree with a fresh
    recount to FP tolerance, and every repaired segment must land on
    its pages' epoch.
    """

    N_SEGS = 3
    N_PAGES = 32

    def _build_arena(self):
        from repro.harness.engine import QuantumEngine
        from repro.sim.timeunits import MILLISECOND

        kernel = make_kernel()
        processes = [
            make_process(pid=pid, n_pages=self.N_PAGES)
            for pid in range(1, self.N_SEGS + 1)
        ]
        for process in processes:
            kernel.register_process(process)
        kernel.allocate_initial_placement()
        engine = QuantumEngine(kernel, quantum_ns=10 * MILLISECOND)
        engine._arena_step(0, 10 * MILLISECOND)
        return engine._arena, processes

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=N_SEGS - 1),
                st.lists(
                    st.integers(min_value=0, max_value=N_PAGES - 1),
                    min_size=1,
                    max_size=8,
                ),
                st.sampled_from([FAST_TIER, SLOW_TIER]),
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(deadline=None, max_examples=25)
    def test_fused_replay_clamps_drift_and_tracks_recount(self, moves):
        arena, processes = self._build_arena()
        # Touch at least two segments so the repair takes the fused
        # multi-segment path rather than delegating to the sequential
        # single-segment replay.
        for seg in (0, 1):
            processes[seg].pages.move_to_tier(
                np.array([seg], dtype=np.int64), FAST_TIER
            )
        for seg, raw_vpns, tier in moves:
            processes[seg].pages.move_to_tier(
                np.unique(np.array(raw_vpns, dtype=np.int64)), tier
            )
        stale = [
            (i, process)
            for i, process in enumerate(processes)
            if arena.mass_epoch[i] != process.pages.epoch
        ]
        assert len(stale) >= 2
        arena._repair_mass_many(stale)
        assert (arena.mass >= 0.0).all()
        for i, process in enumerate(processes):
            assert arena.mass_epoch[i] == process.pages.epoch
            probs = arena.probs_refs[i]
            expected = np.bincount(
                process.pages.tier.astype(np.int64),
                weights=probs,
                minlength=arena.n_tiers,
            )
            np.testing.assert_allclose(
                arena.mass[i], expected, atol=1e-12
            )
            lo, hi = (
                int(arena.seg_starts[i]),
                int(arena.seg_starts[i + 1]),
            )
            tier = arena.table.tier[lo:hi]
            assert np.shares_memory(tier, process.pages.tier)
            np.testing.assert_array_equal(tier, process.pages.tier)


class TestPageProtectionInvariants:
    """Random protect / protect_at / unprotect / move_to_tier sequences
    keep the protection bookkeeping consistent.

    The engine's hot path trusts ``n_protected`` and the sorted
    ``protected_pages()`` cache instead of scanning ``prot_none``; any
    drift between the three representations silently corrupts fault
    sampling.
    """

    N_PAGES = 32

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["protect", "protect_at", "unprotect", "move"]
                ),
                st.lists(
                    st.integers(min_value=0, max_value=31),
                    min_size=1,
                    max_size=12,
                ),
            ),
            max_size=40,
        )
    )
    @settings(deadline=None)
    def test_counters_and_cache_track_the_bitmap(self, ops):
        pages = PageState(self.N_PAGES)
        now = 0
        for kind, raw_vpns in ops:
            now += 1
            vpns = np.array(raw_vpns, dtype=np.int64)
            if kind == "protect":
                pages.protect(vpns, now_ns=now)
            elif kind == "protect_at":
                pages.protect_at(
                    vpns, np.arange(vpns.size, dtype=np.int64) + now
                )
            elif kind == "unprotect":
                pages.unprotect(vpns)
            else:
                epoch_before = pages.epoch
                pages.move_to_tier(vpns, FAST_TIER)
                assert pages.epoch == epoch_before + 1
            assert pages.n_protected == int(pages.prot_none.sum())
            cached = pages.protected_pages()
            assert cached.size == pages.n_protected
            np.testing.assert_array_equal(
                cached, np.flatnonzero(pages.prot_none)
            )
