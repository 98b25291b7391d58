"""One page table: the kernel owns every process's page arrays.

Every registered process's ``PageState`` is a segment of the kernel's
:class:`~repro.vm.page_state.PageTable` -- its per-page fields are views
of the table's arrays, its epochs, protected count and queued kernel
time elements of the table's per-segment vectors.  Checked here:

* after registration and placement every field of every page state
  shares memory with the kernel's table, and writes through either side
  show on the other;
* a second ``ProcessArena`` over the same kernel copies no page array:
  every page state keeps the very arrays it had, the newer arena steps
  and the superseded one refuses to;
* a standalone ``PageState`` / ``SimProcess`` behaves as before, on a
  one-segment table of its own that is bound on first use, and carries
  its values over when a kernel binds it;
* ``LruLists.age_fleet`` (through the kernel's aging tick) and
  ``coldest_pages_two_phase`` on the table equal the sequential oracles
  of ``tests/transient_oracle.py`` bit for bit, RNG positions included,
  with finished processes in the fleet.
"""

import numpy as np
import pytest

from repro.harness.arena import ProcessArena
from repro.harness.engine import QuantumEngine
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.timeunits import MILLISECOND
from repro.vm.page_state import NO_TIMESTAMP, PAGE_FIELDS, PageState, PageTable
from tests import transient_oracle as oracle
from tests.conftest import make_kernel, make_process

#: (page-state attribute, table field) for every per-page array
ATTRS = [
    ("_" + name if name.endswith("count") else name, name)
    for name, _, _ in PAGE_FIELDS
]


def fleet(n_procs=4, sizes=(96, 40, 1, 72), seed=0):
    kernel = make_kernel(fast_pages=128, slow_pages=1_024, seed=seed)
    processes = [
        make_process(pid=k + 1, n_pages=sizes[k % len(sizes)], seed=seed)
        for k in range(n_procs)
    ]
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    return kernel, processes


class TestKernelTable:
    def test_every_field_shares_memory_with_the_table(self):
        kernel, processes = fleet()
        table = kernel.page_table
        assert table.n_segs == len(processes)
        for seg, process in enumerate(processes):
            pages = process.pages
            assert pages.table is table and pages.seg == seg
            lo, hi = table.starts[seg], table.starts[seg + 1]
            for attr, name in ATTRS:
                view = getattr(pages, attr)
                assert view.size == pages.n_pages == hi - lo
                if view.size:
                    assert np.shares_memory(view, getattr(table, name))
                    assert view.__array_interface__["data"][0] == (
                        getattr(table, name)[lo:].__array_interface__[
                            "data"
                        ][0]
                    )

    def test_writes_show_on_both_sides(self):
        kernel, processes = fleet()
        table = kernel.page_table
        pages = processes[3].pages
        lo = int(table.starts[3])
        epoch = pages.epoch
        pages.move_to_tier(np.array([1, 2]), FAST_TIER)
        assert table.tier[lo + 1] == FAST_TIER
        assert table.epoch[3] == epoch + 1 == pages.epoch
        pages.protect(np.array([5, 9]), now_ns=11)
        assert table.n_protected[3] == 2 == pages.n_protected
        assert table.protect_epoch[3] == pages.protect_epoch == 1
        assert table.scan_ts_ns[lo + 9] == 11
        table.lru_misses[lo + 4] = 3
        assert pages.lru_misses[4] == 3
        processes[1].charge_kernel(250.0)
        assert table.debt[1] == 250.0 == processes[1].pending_kernel_ns
        assert processes[1].drain_pending_kernel(100) == 100
        assert table.debt[1] == 150.0

    def test_a_late_registration_rebinds_with_values(self):
        kernel, processes = fleet()
        processes[0].pages.protect(np.array([7]), now_ns=3)
        processes[0].charge_kernel(42.0)
        late = make_process(pid=9, n_pages=16)
        kernel.register_process(late)
        table = kernel.page_table
        assert table.n_segs == 5
        for process in processes + [late]:
            assert process.pages.table is table
        assert processes[0].pages.scan_ts_ns[7] == 3
        assert processes[0].pages.n_protected == 1
        assert processes[0].pending_kernel_ns == 42.0
        assert late.pages.seg == 4


class TestArenaOnTheTable:
    def test_second_arena_copies_no_page_array(self):
        kernel, processes = fleet()
        first = ProcessArena(QuantumEngine(kernel))
        first.step(0, 10 * MILLISECOND)
        before = [
            [getattr(p.pages, attr) for attr, _ in ATTRS] for p in processes
        ]
        table = kernel.page_table
        second = ProcessArena(QuantumEngine(kernel))
        assert second.table is first.table is table
        assert kernel.page_table is table
        for process, arrays in zip(processes, before):
            for (attr, _), array in zip(ATTRS, arrays):
                assert getattr(process.pages, attr) is array
        for name in ("tier", "prot_none", "scan_ts_ns", "accessed"):
            assert name not in vars(second)
        with pytest.raises(RuntimeError, match="later arena"):
            first.step(10 * MILLISECOND, 10 * MILLISECOND)
        second.step(10 * MILLISECOND, 10 * MILLISECOND)
        assert kernel.arena is second
        second.detach()
        assert kernel.arena is None
        with pytest.raises(RuntimeError):
            second.step(20 * MILLISECOND, 10 * MILLISECOND)


class TestStandalone:
    def test_page_state_defaults_on_a_table_of_its_own(self):
        pages = PageState(8)
        assert "table" not in vars(pages)
        assert pages.tier.dtype == np.int8
        assert (pages.tier == SLOW_TIER).all()
        assert (pages.scan_ts_ns == NO_TIMESTAMP).all()
        # the filter's running max: 0 while the page is no candidate
        assert not pages.candidate_cit_ns.any() and not pages.candidate.any()
        assert not pages.prot_none.any() and not pages.lru_active.any()
        assert pages.lru_misses.dtype == np.int32
        assert pages.table.n_segs == 1 and pages.seg == 0
        assert (pages.epoch, pages.protect_epoch, pages.n_protected) == (
            0, 0, 0
        )

    def test_page_state_methods_as_before(self):
        pages = PageState(8)
        assert pages.protect(np.array([1, 3, 3]), now_ns=5) == 2
        assert pages.n_protected == 2 and pages.protect_epoch == 1
        np.testing.assert_array_equal(pages.protected_pages(), [1, 3])
        pages.unprotect(np.array([3]))
        np.testing.assert_array_equal(pages.protected_pages(), [1])
        pages.move_to_tier(np.array([0, 2]), FAST_TIER)
        assert pages.epoch == 1 and pages.count_in_tier(FAST_TIER) == 2
        pages.defer_accesses(np.full(8, 0.125), 8.0)
        assert pages.access_count.sum() == 8.0
        assert np.shares_memory(pages.access_count, pages.table.access_count)

    def test_process_debt_as_before(self):
        process = make_process(n_pages=4)
        process.charge_kernel(150.0)
        assert process.pending_kernel_ns == 150.0
        assert process.drain_pending_kernel(400.0) == 150.0
        assert process.pending_kernel_ns == 0.0
        assert process.stats.kernel_time_ns == 150.0
        with pytest.raises(ValueError):
            process.charge_kernel(-1.0)

    def test_binding_carries_a_used_state_over(self):
        kernel = make_kernel()
        used, fresh = make_process(pid=1), make_process(pid=2)
        used.pages.protect(np.array([2, 6]), now_ns=9)
        used.pages.move_to_tier(np.array([4]), FAST_TIER)
        used.pages.lru_misses[1] = 1
        used.charge_kernel(77.0)
        kernel.register_process(used)
        kernel.register_process(fresh)
        assert "table" not in vars(fresh.pages)
        table = kernel.page_table
        assert used.pages.table is table is fresh.pages.table
        assert used.pages.scan_ts_ns[6] == 9 and used.pages.prot_none[2]
        assert used.pages.tier[4] == FAST_TIER
        assert used.pages.lru_misses[1] == 1
        assert (used.pages.n_protected, used.pages.protect_epoch) == (2, 1)
        assert used.pages.epoch == 1
        assert used.pending_kernel_ns == 77.0
        np.testing.assert_array_equal(used.pages.protected_pages(), [2, 6])


def perturb(processes, seed):
    rng = np.random.default_rng(seed)
    for process in processes:
        pages = process.pages
        n = pages.n_pages
        pages.tier[:] = np.where(rng.random(n) < 0.5, FAST_TIER, SLOW_TIER)
        pages.last_window_count[:] = rng.poisson(1.0, n)
        pages.accessed[:] = rng.random(n) < 0.3
        pages.lru_active[:] = rng.random(n) < 0.5
        pages.lru_gen[:] = rng.integers(0, 1_000, n)


class TestFleetPassesOnTheTable:
    """The fleet passes against the sequential oracles, on twin kernels
    whose fleets hold finished processes."""

    @staticmethod
    def _twins(seed):
        twins = []
        for _ in range(2):
            kernel, processes = fleet(n_procs=7, seed=seed)
            perturb(processes, seed)
            for k in (1, 4):
                processes[k].finished = True
            twins.append((kernel, processes))
        return twins

    @staticmethod
    def _assert_same(left, right):
        for p_l, p_r in zip(left, right):
            for attr, _ in ATTRS:
                np.testing.assert_array_equal(
                    getattr(p_l.pages, attr), getattr(p_r.pages, attr)
                )
            assert p_l.pending_kernel_ns == p_r.pending_kernel_ns

    @pytest.mark.parametrize("fine_grained", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_aging_ticks_match_the_oracle(self, seed, fine_grained):
        (k_f, p_f), (k_s, p_s) = self._twins(seed)
        k_f.lru.fine_grained = k_s.lru.fine_grained = fine_grained
        for tick in (1, 2, 3):
            now = tick * k_f.aging_period_ns
            k_f._aging_tick(now)
            oracle.aging_tick(k_s, now)
            self._assert_same(p_f, p_s)
            perturb(p_f, seed + tick)
            perturb(p_s, seed + tick)
        # Finished processes are skipped: never aged, never missed.
        assert not p_f[1].pages.lru_misses.any()
        assert not p_f[4].pages.lru_misses.any()
        assert p_f[0].pages.lru_misses.any()
        assert k_f.lru._rng.random() == k_s.lru._rng.random()
        aging_f = k_f.rng.get("kernel.aging").random()
        assert aging_f == k_s.rng.get("kernel.aging").random()

    @pytest.mark.parametrize("n_pages", [1, 30, 150, 10_000])
    def test_victim_selection_matches_the_oracle(self, n_pages):
        (k_f, p_f), (k_s, p_s) = self._twins(seed=5)
        first, second = k_f.lru.coldest_pages_two_phase(
            p_f, FAST_TIER, n_pages
        )
        ref_first, ref_second = oracle.coldest_pages_two_phase(
            k_s.lru, p_s, FAST_TIER, n_pages
        )
        for got, want in ((first, ref_first), (second, ref_second)):
            assert [p.pid for p, _ in got] == [p.pid for p, _ in want]
            for (_, vpns_g), (_, vpns_w) in zip(got, want):
                np.testing.assert_array_equal(vpns_g, vpns_w)
        if n_pages == 10_000:
            assert second
        assert k_f.lru._rng.random() == k_s.lru._rng.random()


def test_empty_tables_and_segments():
    table = PageTable([])
    assert table.n_segs == 0 and table.tier.size == 0
    assert table.starts.tolist() == [0]
    empty, full = PageState(0), PageState(3)
    table = PageTable([empty, full])
    assert table.starts.tolist() == [0, 0, 3]
    assert empty.tier.size == 0 and full.seg == 1
