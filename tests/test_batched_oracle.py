"""Oracle equivalence for every batched transient subsystem.

The engine keeps its batched fast path through scan, aging, migration,
and reclaim windows by replacing per-process loops with fleet passes:
``TickingScanner.scan_fleet``, ``LruLists.age_fleet``,
``LruLists.coldest_pages_two_phase``, ``MigrationEngine.migrate_many``,
the DCSC histogram fold (``repro.core.dcsc.dcsc_fold``) and the fleet
scan's tier filter.  Each pass claims
*exact* equivalence with its sequential reference -- same state updates,
same RNG stream consumption, same global stats.  These tests hold every
claim against an oracle: twin fixtures with identical seeds run the
batched and the sequential code, and every observable must match bit
for bit.

The end-to-end oracle runs each registered policy with
``batched_transients`` flipped off (the sequential opt-out) and demands
the trajectory match the batched default exactly.  The hypothesis
suite checks the segment-offset repair invariant: concatenating
per-process arrays and splitting selections back by owner must land
every page in its owner's vpn space.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dcsc import dcsc_fold
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.kernel.lru import LruLists
from repro.kernel.reclaim import _merge_victims
from repro.kernel.scanner import ScanConfig
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.rng import RngStreams
from repro.sim.timeunits import SECOND
from tests.conftest import make_kernel, make_process

#: every registered policy (the Table 1 roster)
ALL_POLICIES = [
    "linux-nb",
    "autotiering",
    "multiclock",
    "telescope",
    "tpp",
    "memtis",
    "flexmem",
    "nomad",
    "tierbpf",
    "arms",
    "jenga",
    "chrono",
]


def twin_fleet(seed=0, n_procs=4, n_pages=96, fast=256, slow=1024):
    """One kernel + fleet; calling twice with the same args yields twins
    in identical state (same machine, same placement, same streams)."""
    kernel = make_kernel(fast_pages=fast, slow_pages=slow, seed=seed)
    processes = [
        make_process(pid=index + 1, n_pages=n_pages, seed=seed)
        for index in range(n_procs)
    ]
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    return kernel, processes


def perturb(processes, seed=1):
    """Drive the per-page state into a mixed regime deterministically:
    some windows counted, some accessed bits, mixed LRU membership."""
    rng = np.random.default_rng(seed)
    for process in processes:
        pages = process.pages
        n = pages.n_pages
        pages.last_window_count[:] = rng.poisson(1.5, n)
        pages.accessed[:] = rng.random(n) < 0.3
        pages.lru_active[:] = rng.random(n) < 0.5
        pages.lru_gen[:] = rng.integers(0, 1_000, n)


def assert_pages_equal(left, right):
    pages_l, pages_r = left.pages, right.pages
    np.testing.assert_array_equal(pages_l.tier, pages_r.tier)
    np.testing.assert_array_equal(pages_l.lru_gen, pages_r.lru_gen)
    np.testing.assert_array_equal(pages_l.lru_active, pages_r.lru_active)
    np.testing.assert_array_equal(pages_l.accessed, pages_r.accessed)
    np.testing.assert_array_equal(
        pages_l.last_window_count, pages_r.last_window_count
    )


class TestAgingOracle:
    def test_age_fleet_matches_sequential_bitwise(self):
        _, procs_batched = twin_fleet()
        _, procs_seq = twin_fleet()
        perturb(procs_batched)
        perturb(procs_seq)
        lru_batched = LruLists(RngStreams(7).get("lru"))
        lru_seq = LruLists(RngStreams(7).get("lru"))

        touched_batched = lru_batched.age_fleet(procs_batched, now_ns=123)
        touched_seq = [
            lru_seq.age_process(p, now_ns=123) for p in procs_seq
        ]

        for t_b, t_s, p_b, p_s in zip(
            touched_batched, touched_seq, procs_batched, procs_seq
        ):
            np.testing.assert_array_equal(t_b, t_s)
            assert_pages_equal(p_b, p_s)
            np.testing.assert_array_equal(
                lru_batched._misses(p_b), lru_seq._misses(p_s)
            )
        # The fleet pass drew exactly the uniforms the sequential calls
        # would have: both generators sit at the same stream position.
        assert lru_batched._rng.random() == lru_seq._rng.random()

    def test_second_pass_stays_aligned(self):
        """Miss counters and stream position survive into the next pass:
        hysteresis (deactivation after two misses) agrees too."""
        _, procs_batched = twin_fleet()
        _, procs_seq = twin_fleet()
        perturb(procs_batched)
        perturb(procs_seq)
        lru_batched = LruLists(RngStreams(7).get("lru"))
        lru_seq = LruLists(RngStreams(7).get("lru"))
        for now_ns in (100, 200, 300):
            lru_batched.age_fleet(procs_batched, now_ns=now_ns)
            for process in procs_seq:
                lru_seq.age_process(process, now_ns=now_ns)
        for p_b, p_s in zip(procs_batched, procs_seq):
            assert_pages_equal(p_b, p_s)


class TestScanPassOracle:
    def _scan_state(self, kernel, processes):
        return (
            [p.pages.scan_ts_ns.copy() for p in processes],
            [p.pages.prot_none.copy() for p in processes],
            kernel.stats.pages_scanned,
            kernel.stats.scan_passes,
            kernel.stats.kernel_time_ns,
        )

    def test_scan_fleet_matches_sequential_scans(self):
        config = ScanConfig(
            scan_period_ns=SECOND, scan_step_pages=32,
            tier_filter=SLOW_TIER,
        )
        kernel_b, procs_b = twin_fleet()
        kernel_s, procs_s = twin_fleet()
        scanner_b = kernel_b.create_scanner(config)
        scanner_s = kernel_s.create_scanner(config)

        entries = [(process, 1_000) for process in procs_b]
        scanner_b.scan_fleet(entries)
        for process in procs_s:
            scanner_s.scan_once(process, kernel_s.clock.now)

        state_b = self._scan_state(kernel_b, procs_b)
        state_s = self._scan_state(kernel_s, procs_s)
        for arr_b, arr_s in zip(state_b[0], state_s[0]):
            np.testing.assert_array_equal(arr_b, arr_s)
        for arr_b, arr_s in zip(state_b[1], state_s[1]):
            np.testing.assert_array_equal(arr_b, arr_s)
        assert state_b[2:] == state_s[2:]
        for p_b, p_s in zip(procs_b, procs_s):
            assert p_b.pending_kernel_ns == p_s.pending_kernel_ns

    def test_scan_fleet_hook_order_is_entry_order(self):
        kernel, procs = twin_fleet()
        scanner = kernel.create_scanner(
            ScanConfig(scan_period_ns=SECOND, scan_step_pages=16)
        )
        seen = []
        scanner.on_scan = lambda process, window, now: seen.append(
            process.pid
        )
        scanner.scan_fleet([(process, 1_000) for process in procs])
        assert seen == [process.pid for process in procs]


class TestReclaimSelectionOracle:
    def _paint(self, processes, seed=5):
        """Random tiers, sparse inactive membership -- small enough
        inactive sets that the two-phase fallback engages."""
        rng = np.random.default_rng(seed)
        for process in processes:
            pages = process.pages
            n = pages.n_pages
            pages.tier[:] = np.where(
                rng.random(n) < 0.6, FAST_TIER, SLOW_TIER
            ).astype(pages.tier.dtype)
            pages.lru_active[:] = rng.random(n) < 0.9
            pages.lru_gen[:] = rng.integers(0, 10_000, n)

    @pytest.mark.parametrize("n_pages", [1, 17, 120, 10_000])
    def test_two_phase_matches_sequential_phases(self, n_pages):
        _, procs = twin_fleet()
        self._paint(procs)
        lru_fused = LruLists(RngStreams(3).get("lru"))
        lru_seq = LruLists(RngStreams(3).get("lru"))

        first, second = lru_fused.coldest_pages_two_phase(
            procs, FAST_TIER, n_pages
        )
        ref_first = lru_seq.coldest_pages(
            procs, FAST_TIER, n_pages, inactive_only=True
        )
        selected = sum(v.size for _, v in ref_first)
        ref_second = []
        if selected < n_pages:
            ref_second = lru_seq.coldest_pages(
                procs, FAST_TIER, n_pages - selected, inactive_only=False
            )

        for got, want in ((first, ref_first), (second, ref_second)):
            assert len(got) == len(want)
            for (proc_g, vpns_g), (proc_w, vpns_w) in zip(got, want):
                assert proc_g is proc_w
                np.testing.assert_array_equal(vpns_g, vpns_w)
        # Identical RNG consumption (shuffles per phase).
        assert lru_fused._rng.random() == lru_seq._rng.random()

    def test_no_shortfall_skips_second_phase(self):
        _, procs = twin_fleet()
        for process in procs:
            process.pages.tier[:] = FAST_TIER
            process.pages.lru_active[:] = False
        lru = LruLists(RngStreams(3).get("lru"))
        first, second = lru.coldest_pages_two_phase(procs, FAST_TIER, 8)
        assert sum(v.size for _, v in first) == 8
        assert second == []


class TestMigrationBatchOracle:
    def _batches(self, processes, src_tier, seed=11):
        """Per-process vpn picks from ``src_tier``, in scrambled order
        (migrate sorts after the capacity cut)."""
        rng = np.random.default_rng(seed)
        batches = []
        for process in processes:
            candidates = np.flatnonzero(process.pages.tier == src_tier)
            take = min(candidates.size, int(rng.integers(1, 40)))
            batches.append(
                (process, rng.permutation(candidates)[:take])
            )
        return batches

    def _stats_tuple(self, kernel):
        stats = kernel.stats
        return (
            stats.pgpromote,
            stats.pgdemote,
            stats.promotion_dropped,
            stats.kernel_time_ns,
            stats.migration_time_ns,
            stats.context_switches,
        )

    @pytest.mark.parametrize(
        "dst,src", [(FAST_TIER, SLOW_TIER), (SLOW_TIER, FAST_TIER)]
    )
    def test_migrate_many_matches_sequential_loop(self, dst, src):
        # A small fast tier makes promotion overflow (dropped pages)
        # part of the oracle, not just the happy path.
        kernel_b, procs_b = twin_fleet(fast=128, slow=1024)
        kernel_s, procs_s = twin_fleet(fast=128, slow=1024)

        moved_b = kernel_b.migration.migrate_many(
            self._batches(procs_b, src), dst
        )
        moved_s = [
            (process, kernel_s.migration.migrate(process, vpns, dst))
            for process, vpns in self._batches(procs_s, src)
        ]

        assert len(moved_b) == len(moved_s)
        for (proc_b, vpns_b), (proc_s, vpns_s) in zip(moved_b, moved_s):
            assert proc_b.pid == proc_s.pid
            np.testing.assert_array_equal(vpns_b, vpns_s)
            np.testing.assert_array_equal(
                proc_b.pages.tier, proc_s.pages.tier
            )
            np.testing.assert_array_equal(
                proc_b.pages.lru_active, proc_s.pages.lru_active
            )
            np.testing.assert_array_equal(
                proc_b.pages.demoted, proc_s.pages.demoted
            )
            assert proc_b.pending_kernel_ns == proc_s.pending_kernel_ns
            assert (
                proc_b.stats.pages_promoted == proc_s.stats.pages_promoted
            )
            assert (
                proc_b.stats.pages_demoted == proc_s.stats.pages_demoted
            )
        for tier_b, tier_s in zip(
            kernel_b.machine.tiers, kernel_s.machine.tiers
        ):
            assert tier_b.free_pages == tier_s.free_pages
            assert tier_b._migration_bytes == tier_s._migration_bytes
        assert self._stats_tuple(kernel_b) == self._stats_tuple(kernel_s)

    def test_mark_demoted_matches(self):
        kernel_b, procs_b = twin_fleet()
        kernel_s, procs_s = twin_fleet()
        kernel_b.migration.migrate_many(
            self._batches(procs_b, FAST_TIER), SLOW_TIER,
            mark_demoted=True,
        )
        for process, vpns in self._batches(procs_s, FAST_TIER):
            kernel_s.migration.migrate(
                process, vpns, SLOW_TIER, mark_demoted=True
            )
        for proc_b, proc_s in zip(procs_b, procs_s):
            np.testing.assert_array_equal(
                proc_b.pages.demoted, proc_s.pages.demoted
            )
            np.testing.assert_array_equal(
                proc_b.pages.demote_ts_ns, proc_s.pages.demote_ts_ns
            )
            np.testing.assert_array_equal(
                proc_b.pages.prot_none, proc_s.pages.prot_none
            )


class TestArrayKernelOracle:
    def test_dcsc_fold_matches_scatter_add_reference(self):
        rng = np.random.default_rng(2)
        tiers = rng.integers(0, 2, 512)
        buckets = rng.integers(0, 28, 512)
        expected = np.zeros((2, 28), dtype=np.float64)
        np.add.at(expected, (tiers, buckets), 1.0)
        np.testing.assert_array_equal(
            dcsc_fold(tiers, buckets, 2, 28), expected
        )

    def test_dcsc_fold_empty(self):
        empty = np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(
            dcsc_fold(empty, empty, 2, 28), np.zeros((2, 28))
        )

    def test_scan_filter_matches_gather_compress(self):
        """The fleet scan's tier filter keeps exactly the window pages
        on the filtered tier, in window order, and marks only them."""
        kernel, procs = twin_fleet()
        _, twins = twin_fleet()
        scanner = kernel.create_scanner(
            ScanConfig(
                scan_period_ns=SECOND, scan_step_pages=64,
                tier_filter=FAST_TIER,
            )
        )
        seen = {}
        scanner.on_scan = lambda process, window, now: seen.setdefault(
            process.pid, window.copy()
        )
        scanner.scan_fleet([(process, 1_000) for process in procs])
        for process, twin in zip(procs, twins):
            window, _ = twin.aspace.next_scan_window(64)
            expected = window[twin.pages.tier[window] == FAST_TIER]
            np.testing.assert_array_equal(seen[process.pid], expected)
            np.testing.assert_array_equal(
                np.flatnonzero(process.pages.prot_none), np.sort(expected)
            )


class TestPolicyTransientOracle:
    """The ``batched_transients`` contract, policy by policy: flipping a
    policy to the sequential transient loops must reproduce the batched
    trajectory exactly, because every fleet pass is bit-identical per
    process and every registered hook only touches its own process."""

    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_sequential_transients_match_batched(self, policy_name):
        results = []
        for batched in (True, False):
            setup = StandardSetup(duration_ns=SECOND)
            policy = setup.build_policy(policy_name)
            policy.batched_transients = batched
            processes = build_fleet(
                setup, "pmbench", n_procs=3, pages_per_proc=512
            )
            results.append(
                run_experiment(processes, policy, setup.run_config())
            )
        batched_run, sequential_run = results
        assert (
            batched_run.throughput_per_sec
            == sequential_run.throughput_per_sec
        )
        assert batched_run.fmar == sequential_run.fmar
        assert batched_run.stats == sequential_run.stats


@st.composite
def fleet_layout(draw):
    """Random per-process sizes plus a paint seed."""
    sizes = draw(
        st.lists(st.integers(1, 48), min_size=2, max_size=5)
    )
    return sizes, draw(st.integers(0, 2**16))


class TestSegmentOffsetProperties:
    """Segment-offset repair: fleet passes concatenate per-process
    arrays, select on global indices, and split back per owner.  The
    invariant is that every selected page lands in its owner's own vpn
    space -- no cross-segment bleed, no out-of-range vpns."""

    @given(layout=fleet_layout(), n_pages=st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_coldest_pages_preserves_vpn_spaces(self, layout, n_pages):
        sizes, paint_seed = layout
        rng = np.random.default_rng(paint_seed)
        processes = []
        for index, size in enumerate(sizes):
            process = make_process(pid=index + 1, n_pages=size)
            pages = process.pages
            pages.tier[:] = np.where(
                rng.random(size) < 0.5, FAST_TIER, SLOW_TIER
            ).astype(pages.tier.dtype)
            pages.lru_active[:] = rng.random(size) < 0.4
            pages.lru_gen[:] = rng.integers(0, 5_000, size)
            processes.append(process)

        lru = LruLists(RngStreams(paint_seed).get("lru"))
        selection = lru.coldest_pages(
            processes, FAST_TIER, n_pages, inactive_only=False
        )

        candidates = sum(
            int(np.count_nonzero(p.pages.tier == FAST_TIER))
            for p in processes
        )
        total = sum(v.size for _, v in selection)
        assert total == min(n_pages, candidates)
        seen_pids = [process.pid for process, _ in selection]
        assert seen_pids == sorted(seen_pids)
        for process, vpns in selection:
            assert vpns.size > 0
            assert vpns.min() >= 0
            assert vpns.max() < process.n_pages
            assert np.unique(vpns).size == vpns.size
            assert (np.diff(vpns) > 0).all()
            assert (process.pages.tier[vpns] == FAST_TIER).all()

    @given(layout=fleet_layout(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_merge_victims_preserves_vpn_spaces(self, layout, data):
        sizes, _ = layout
        processes = [
            make_process(pid=index + 1, n_pages=size)
            for index, size in enumerate(sizes)
        ]

        def victim_list():
            entries = []
            for process in processes:
                if not data.draw(st.booleans()):
                    continue
                vpns = data.draw(
                    st.lists(
                        st.integers(0, process.n_pages - 1),
                        max_size=process.n_pages,
                    )
                )
                entries.append(
                    (process, np.asarray(vpns, dtype=np.int64))
                )
            return entries

        first, second = victim_list(), victim_list()
        merged = _merge_victims(first, second)

        expected = {}
        for process, vpns in first + second:
            expected.setdefault(process.pid, set()).update(
                int(v) for v in vpns
            )
        expected = {
            pid: vpns for pid, vpns in expected.items() if vpns
        }
        got = {
            process.pid: set(int(v) for v in vpns)
            for process, vpns in merged
        }
        assert got == expected
        for process, vpns in merged:
            assert vpns.min() >= 0
            assert vpns.max() < process.n_pages
            assert (np.diff(vpns) > 0).all()
