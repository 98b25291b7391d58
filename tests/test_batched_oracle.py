"""Oracle equivalence for every kernel transient pass.

The kernel runs its scan, aging, migration, and reclaim windows as fleet
passes: ``TickingScanner.scan_fleet``, ``LruLists.age_fleet``,
``LruLists.coldest_pages_two_phase`` and ``MigrationEngine.migrate_many``
(the per-process entry points ``scan_once``, ``age_process`` and
``migrate`` are one-process calls of them), plus the DCSC histogram fold
(``repro.core.dcsc.dcsc_fold``) and the fleet scan's tier filter.  Each
pass claims *exact* equivalence with the per-process loop it replaced,
kept in ``tests/transient_oracle.py`` -- same state updates, same RNG
stream consumption, same global stats.  These tests hold every claim
against that oracle: twin fixtures with identical seeds run the fleet
pass and the oracle, and every observable must match bit for bit, on
one process and on several.

The end-to-end oracle runs each registered policy with the oracle's
loops installed in place of the fleet passes and demands the
trajectory match the default exactly, on a contended config where
scans mark pages in multi-process passes, aging runs, and pages
migrate.  The hypothesis suite checks the segment-offset repair
invariant: concatenating per-process arrays and splitting selections
back by owner must land every page in its owner's vpn space.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dcsc import dcsc_fold
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.kernel.kernel import Kernel
from repro.kernel.lru import LruLists
from repro.kernel.reclaim import _merge_victims
from repro.kernel.scanner import ScanConfig, TickingScanner
from repro.mem.machine import MachineSpec, TieredMachine
from repro.mem.tier import FAST_TIER, SLOW_TIER, dram_spec, optane_spec
from repro.policies.registry import policy_names
from repro.sim.rng import RngStreams
from repro.sim.timeunits import SECOND
from repro.vm.page_state import PageTable
from tests import transient_oracle as oracle
from tests.conftest import make_kernel, make_process


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
    def _twins(self, n_procs=4, fine_grained=False):
        """Twin perturbed fleets and twin LRU lists.  The first process
        has every page a candidate (the oracle's dense pass), the others
        only some (its sparse pass)."""
        fleets, lrus = [], []
        for _ in range(2):
            _, procs = twin_fleet(n_procs=n_procs)
            perturb(procs)
            procs[0].pages.lru_active[:] = True
            fleets.append(procs)
            lrus.append(
                LruLists(
                    RngStreams(7).get("lru"), fine_grained=fine_grained
                )
            )
        return fleets, lrus

    def _assert_aligned(self, lrus, fleets, touched=None):
        (lru_f, lru_s), (procs_f, procs_s) = lrus, fleets
        for index, (p_f, p_s) in enumerate(zip(procs_f, procs_s)):
            if touched is not None:
                np.testing.assert_array_equal(
                    touched[0][index], touched[1][index]
                )
            assert_pages_equal(p_f, p_s)
            np.testing.assert_array_equal(
                p_f.pages.lru_misses, p_s.pages.lru_misses
            )
        # The fleet pass drew exactly the numbers the per-process calls
        # would have: both generators sit at the same stream position.
        assert lru_f._rng.random() == lru_s._rng.random()

    def test_age_fleet_matches_sequential_bitwise(self):
        fleets, lrus = self._twins()
        touched_f = lrus[0].age_fleet(fleets[0], now_ns=123)
        touched_s = [
            oracle.age_process(lrus[1], p, now_ns=123) for p in fleets[1]
        ]
        self._assert_aligned(lrus, fleets, (touched_f, touched_s))

    def test_one_process_matches_sequential(self):
        """``age_process``: the fleet pass over a one-process fleet."""
        fleets, lrus = self._twins(n_procs=1)
        touched = lrus[0].age_process(fleets[0][0], now_ns=123)
        reference = oracle.age_process(lrus[1], fleets[1][0], now_ns=123)
        self._assert_aligned(lrus, fleets, ([touched], [reference]))

    def test_second_pass_stays_aligned(self):
        """Miss counters and stream position survive into the next pass:
        hysteresis (deactivation after two misses) agrees too."""
        fleets, lrus = self._twins()
        for now_ns in (100, 200, 300):
            lrus[0].age_fleet(fleets[0], now_ns=now_ns)
            for process in fleets[1]:
                oracle.age_process(lrus[1], process, now_ns=now_ns)
        self._assert_aligned(lrus, fleets)

    @pytest.mark.parametrize("n_procs", [1, 4])
    def test_fine_grained_matches_sequential(self, n_procs):
        """Recency stamps draw each process's uniforms, then its
        exponentials, over its own window since its last pass."""
        fleets, lrus = self._twins(n_procs, fine_grained=True)
        for now_ns in (1_000, 5_000):
            touched_f = lrus[0].age_fleet(fleets[0], now_ns=now_ns)
            touched_s = [
                oracle.age_process(lrus[1], p, now_ns=now_ns)
                for p in fleets[1]
            ]
            self._assert_aligned(lrus, fleets, (touched_f, touched_s))
            for procs in fleets:
                perturb(procs, seed=now_ns)

    def test_empty_fleet(self):
        lrus = [LruLists(RngStreams(7).get("lru")) for _ in range(2)]
        assert lrus[0].age_fleet([], now_ns=10) == []
        assert lrus[0]._rng.random() == lrus[1]._rng.random()

    def test_tick_after_every_process_finished(self):
        """The aging tick still runs, and reschedules itself, when no
        process is left to age."""
        kernel, procs = twin_fleet()
        for process in procs:
            process.finished = True
        kernel._aging_tick(kernel.aging_period_ns)
        assert kernel.next_event_ns() == 2 * kernel.aging_period_ns


class TestScanPassOracle:
    def _scan_state(self, kernel, processes):
        return (
            [p.pages.scan_ts_ns.copy() for p in processes],
            [p.pages.prot_none.copy() for p in processes],
            kernel.stats.pages_scanned,
            kernel.stats.scan_passes,
            kernel.stats.kernel_time_ns,
            [p.pending_kernel_ns for p in processes],
        )

    def _assert_same_state(self, kernel_f, procs_f, kernel_s, procs_s):
        state_f = self._scan_state(kernel_f, procs_f)
        state_s = self._scan_state(kernel_s, procs_s)
        for arr_f, arr_s in zip(state_f[0] + state_f[1],
                                state_s[0] + state_s[1]):
            np.testing.assert_array_equal(arr_f, arr_s)
        assert state_f[2:] == state_s[2:]

    def _twins(self, n_procs, tier_filter=SLOW_TIER):
        config = ScanConfig(
            scan_period_ns=SECOND, scan_step_pages=32,
            tier_filter=tier_filter,
        )
        twins = []
        for _ in range(2):
            kernel, procs = twin_fleet(n_procs=n_procs)
            scanner = kernel.create_scanner(config)
            seen = []
            scanner.on_scan = lambda process, window, now, seen=seen: (
                seen.append((process.pid, window.copy(), now))
            )
            twins.append((kernel, procs, scanner, seen))
        return twins

    def _check_passes(self, n_procs):
        (kernel_f, procs_f, scanner_f, seen_f), (
            kernel_s, procs_s, scanner_s, seen_s
        ) = self._twins(n_procs)
        for _ in range(3):  # the third pass wraps the 96-page spaces
            scanner_f.scan_fleet([(process, 1_000) for process in procs_f])
            for process in procs_s:
                oracle.scan_once(scanner_s, process, kernel_s.clock.now)
        self._assert_same_state(kernel_f, procs_f, kernel_s, procs_s)
        assert [(pid, now) for pid, _, now in seen_f] == [
            (pid, now) for pid, _, now in seen_s
        ]
        for (_, window_f, _), (_, window_s, _) in zip(seen_f, seen_s):
            np.testing.assert_array_equal(window_f, window_s)

    def test_scan_fleet_matches_sequential_scans(self):
        self._check_passes(n_procs=4)

    def test_one_process_matches_sequential_scans(self):
        self._check_passes(n_procs=1)

    def test_scan_once_stamps_its_argument(self):
        """``scan_once`` is the fleet pass over one process, stamped at
        the caller's time rather than the clock's."""
        (kernel_f, procs_f, scanner_f, seen_f), (
            kernel_s, procs_s, scanner_s, seen_s
        ) = self._twins(1, tier_filter=None)
        window_f = scanner_f.scan_once(procs_f[0], now_ns=100)
        window_s = oracle.scan_once(scanner_s, procs_s[0], now_ns=100)
        np.testing.assert_array_equal(window_f, window_s)
        self._assert_same_state(kernel_f, procs_f, kernel_s, procs_s)
        assert [now for _, _, now in seen_f] == [100]

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

    def _check_phases(self, n_procs, n_pages):
        _, procs = twin_fleet(n_procs=n_procs)
        self._paint(procs)
        lru_fused = LruLists(RngStreams(3).get("lru"))
        lru_seq = LruLists(RngStreams(3).get("lru"))

        first, second = lru_fused.coldest_pages_two_phase(
            procs, FAST_TIER, n_pages
        )
        ref_first, ref_second = oracle.coldest_pages_two_phase(
            lru_seq, procs, FAST_TIER, n_pages
        )

        for got, want in ((first, ref_first), (second, ref_second)):
            assert len(got) == len(want)
            for (proc_g, vpns_g), (proc_w, vpns_w) in zip(got, want):
                assert proc_g is proc_w
                np.testing.assert_array_equal(vpns_g, vpns_w)
        # Identical RNG consumption (shuffles per phase).
        assert lru_fused._rng.random() == lru_seq._rng.random()

    @pytest.mark.parametrize("n_pages", [1, 17, 120, 10_000])
    def test_two_phase_matches_sequential_phases(self, n_pages):
        self._check_phases(4, n_pages)

    @pytest.mark.parametrize("n_pages", [1, 17, 120, 10_000])
    def test_one_process_matches_sequential_phases(self, n_pages):
        self._check_phases(1, n_pages)

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

    def _assert_same_outcome(self, kernel_b, moved_b, kernel_s, moved_s):
        assert len(moved_b) == len(moved_s)
        for (proc_b, vpns_b), (proc_s, vpns_s) in zip(moved_b, moved_s):
            assert proc_b.pid == proc_s.pid
            np.testing.assert_array_equal(vpns_b, vpns_s)
            for name in (
                "tier", "lru_active", "lru_gen", "demoted",
                "demote_ts_ns", "prot_none",
            ):
                np.testing.assert_array_equal(
                    getattr(proc_b.pages, name), getattr(proc_s.pages, name)
                )
            assert proc_b.pending_kernel_ns == proc_s.pending_kernel_ns
            assert proc_b.stats.pages_promoted == proc_s.stats.pages_promoted
            assert proc_b.stats.pages_demoted == proc_s.stats.pages_demoted
            assert (
                proc_b.stats.context_switches
                == proc_s.stats.context_switches
            )
        for tier_b, tier_s in zip(
            kernel_b.machine.tiers, kernel_s.machine.tiers
        ):
            assert tier_b.free_pages == tier_s.free_pages
            assert tier_b._migration_bytes == tier_s._migration_bytes
        assert self._stats_tuple(kernel_b) == self._stats_tuple(kernel_s)

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
        moved_s = oracle.migrate_many(
            kernel_s.migration, self._batches(procs_s, src), dst
        )
        self._assert_same_outcome(kernel_b, moved_b, kernel_s, moved_s)

    @pytest.mark.parametrize(
        "dst,src", [(FAST_TIER, SLOW_TIER), (SLOW_TIER, FAST_TIER)]
    )
    def test_one_process_migrate_matches_sequential(self, dst, src):
        """``migrate`` is a one-batch ``migrate_many``: one process,
        overflow, repeats and mark-demoted calls included."""
        kernel_b, procs_b = twin_fleet(n_procs=1, fast=40, slow=1024)
        kernel_s, procs_s = twin_fleet(n_procs=1, fast=40, slow=1024)
        (proc_b,), (proc_s,) = procs_b, procs_s
        for seed in (11, 12, 13):
            (_, vpns), = self._batches(procs_b, src, seed=seed)
            mark = seed == 13
            moved_b = kernel_b.migration.migrate(proc_b, vpns, dst, mark)
            moved_s = oracle.migrate(
                kernel_s.migration, proc_s, vpns, dst, mark
            )
            self._assert_same_outcome(
                kernel_b, [(proc_b, moved_b)], kernel_s, [(proc_s, moved_s)]
            )

    def test_mark_demoted_matches(self):
        kernel_b, procs_b = twin_fleet()
        kernel_s, procs_s = twin_fleet()
        kernel_b.clock.advance(77)
        kernel_s.clock.advance(77)
        moved_b = kernel_b.migration.migrate_many(
            self._batches(procs_b, FAST_TIER), SLOW_TIER,
            mark_demoted=True,
        )
        moved_s = oracle.migrate_many(
            kernel_s.migration, self._batches(procs_s, FAST_TIER),
            SLOW_TIER, mark_demoted=True,
        )
        self._assert_same_outcome(kernel_b, moved_b, kernel_s, moved_s)

    def test_mixed_source_tiers_match_sequential_loop(self):
        """On a three-tier machine, a batch drawn from two source tiers
        and one drawn from a single tier return each tier exactly the
        frames it gave up."""
        def three_tier_fleet():
            spec = MachineSpec(
                tiers=(dram_spec(64), optane_spec(512), optane_spec(512))
            )
            kernel = Kernel(machine=TieredMachine(spec), rng=RngStreams(0))
            procs = [make_process(pid=pid, n_pages=96) for pid in (1, 2)]
            for process in procs:
                kernel.register_process(process)
                process.pages.tier[::2] = 1
                process.pages.tier[1::2] = 2
                kernel.machine.tiers[1].allocate(48)
                kernel.machine.tiers[2].allocate(48)
            return kernel, procs

        kernel_b, procs_b = three_tier_fleet()
        kernel_s, procs_s = three_tier_fleet()
        def batches(procs):
            # tiers 1 and 2 alternate by vpn: the second batch is all
            # tier 2
            return [
                (procs[0], np.arange(0, 40)), (procs[1], np.arange(1, 40, 2))
            ]

        moved_b = kernel_b.migration.migrate_many(
            batches(procs_b), FAST_TIER
        )
        moved_s = oracle.migrate_many(
            kernel_s.migration, batches(procs_s), FAST_TIER
        )
        self._assert_same_outcome(kernel_b, moved_b, kernel_s, moved_s)
        assert [t.used_pages for t in kernel_b.machine.tiers] == [
            60, 96 - 20, 96 - 20 - 20,
        ]


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


#: registered policies that move no page at the oracle config
NON_MIGRATING = {"multiclock"}


class TestPolicyTransientOracle:
    """The transient-hook contract, policy by policy: installing the
    per-process loops of ``tests/transient_oracle.py`` in place of the
    fleet passes must reproduce the default trajectory exactly, because
    every fleet pass is bit-identical per process and every registered
    hook touches only its own process.

    The config is contended so the transients actually run: 16
    processes of 256 pmbench pages over a 1,024-page fast tier, with a
    half-second scan period, for 2 s.  Each run checks its own coverage.
    """

    @staticmethod
    def _run(policy_name):
        setup = StandardSetup(
            duration_ns=2 * SECOND,
            fast_pages=1_024,
            scan_period_ns=SECOND // 2,
        )
        policy = setup.build_policy(policy_name)
        processes = build_fleet(
            setup, "pmbench", n_procs=16, pages_per_proc=256
        )
        return run_experiment(processes, policy, setup.run_config())

    @pytest.mark.parametrize("policy_name", policy_names())
    def test_sequential_transients_match_batched(
        self, policy_name, monkeypatch
    ):
        coverage = {"aging": 0, "fleet_scans": 0, "fleet_marked": 0}
        scan_fleet = TickingScanner.scan_fleet
        age_fleet = LruLists.age_fleet

        def counted_scan(scanner, entries):
            before = scanner.kernel.stats.pages_scanned
            scan_fleet(scanner, entries)
            if len(entries) > 1:
                coverage["fleet_scans"] += 1
                coverage["fleet_marked"] += (
                    scanner.kernel.stats.pages_scanned - before
                )

        def counted_aging(lru, processes, now_ns):
            processes = list(processes)
            coverage["aging"] += bool(processes)
            return age_fleet(lru, processes, now_ns)

        with monkeypatch.context() as patch:
            patch.setattr(TickingScanner, "scan_fleet", counted_scan)
            patch.setattr(LruLists, "age_fleet", counted_aging)
            fleet_run = self._run(policy_name)
        with monkeypatch.context() as patch:
            oracle.install(patch)
            sequential_run = self._run(policy_name)

        assert (
            fleet_run.throughput_per_sec
            == sequential_run.throughput_per_sec
        )
        assert fleet_run.fmar == sequential_run.fmar
        assert fleet_run.stats == sequential_run.stats

        assert coverage["aging"] > 0
        if fleet_run.kernel.scanner is not None:
            assert coverage["fleet_scans"] > 0
            assert coverage["fleet_marked"] > 0
        if policy_name not in NON_MIGRATING:
            stats = fleet_run.stats
            assert stats["pgpromote"] + stats["pgdemote"] > 0


@st.composite
def fleet_layout(draw):
    """Random per-process sizes plus a paint seed."""
    sizes = draw(
        st.lists(st.integers(1, 48), min_size=2, max_size=5)
    )
    return sizes, draw(st.integers(0, 2**16))


class TestSegmentOffsetProperties:
    """Segment-offset repair: fleet passes select on a page table's
    global indices and split back per owner.  The invariant is that
    every selected page lands in its owner's own vpn space -- no
    cross-segment bleed, no out-of-range vpns."""

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
        PageTable([p.pages for p in processes])

        lru = LruLists(RngStreams(paint_seed).get("lru"))
        first, second = lru.coldest_pages_two_phase(
            processes, FAST_TIER, n_pages
        )

        inactive = sum(
            int(np.count_nonzero(
                (p.pages.tier == FAST_TIER) & ~p.pages.lru_active
            ))
            for p in processes
        )
        candidates = sum(
            int(np.count_nonzero(p.pages.tier == FAST_TIER))
            for p in processes
        )
        taken = sum(v.size for _, v in first)
        assert taken == min(n_pages, inactive)
        assert sum(v.size for _, v in second) == (
            min(n_pages - taken, candidates) if taken < n_pages else 0
        )
        for phase, selection in enumerate((first, second)):
            seen_pids = [process.pid for process, _ in selection]
            assert seen_pids == sorted(seen_pids)
            for process, vpns in selection:
                assert vpns.size > 0
                assert vpns.min() >= 0
                assert vpns.max() < process.n_pages
                assert (np.diff(vpns) > 0).all()
                assert (process.pages.tier[vpns] == FAST_TIER).all()
                if phase == 0:
                    assert not process.pages.lru_active[vpns].any()

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
