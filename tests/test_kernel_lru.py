"""Tests for LRU aging and cold-page selection."""

import numpy as np
import pytest

from repro.kernel.lru import LruLists
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.rng import RngStreams
from repro.vm.page_state import PageTable
from tests.conftest import make_process


@pytest.fixture
def lru():
    return LruLists(RngStreams(9).get("lru"))


class TestAging:
    def test_heavily_accessed_pages_become_active(self, lru):
        process = make_process(n_pages=32)
        process.pages.last_window_count[:8] = 50.0  # ~always touched
        touched = lru.age_process(process, now_ns=1000)
        assert touched[:8].all()
        assert process.pages.lru_active[:8].all()
        assert (process.pages.lru_gen[:8] == 1000).all()

    def test_untouched_pages_eventually_deactivate(self, lru):
        process = make_process(n_pages=8)
        process.pages.lru_active[:] = True
        # Two aging passes with zero accesses: second-chance expires.
        lru.age_process(process, now_ns=1)
        lru.age_process(process, now_ns=2)
        assert not process.pages.lru_active.any()

    def test_one_miss_keeps_page_active(self, lru):
        process = make_process(n_pages=8)
        process.pages.lru_active[:] = True
        lru.age_process(process, now_ns=1)
        assert process.pages.lru_active.all()

    def test_fault_accessed_bit_counts_as_touch(self, lru):
        process = make_process(n_pages=8)
        process.pages.accessed[3] = True
        touched = lru.age_process(process, now_ns=5)
        assert touched[3]
        assert process.pages.lru_gen[3] == 5

    def test_aging_clears_bits_and_window(self, lru):
        process = make_process(n_pages=8)
        process.pages.accessed[:] = True
        process.pages.last_window_count[:] = 3.0
        lru.age_process(process, now_ns=5)
        assert not process.pages.accessed.any()
        assert (process.pages.last_window_count == 0).all()


class TestColdestSelection:
    """``coldest_pages_two_phase``, the selector reclaim runs: inactive
    pages first, then the whole tier for any shortfall."""

    def test_orders_by_generation(self, lru):
        process = make_process(n_pages=8)
        process.pages.tier[:] = FAST_TIER
        process.pages.lru_active[:] = False
        process.pages.lru_gen[:] = np.arange(8)[::-1]  # page 7 is coldest
        first, second = lru.coldest_pages_two_phase([process], FAST_TIER, 2)
        (proc, vpns), = first
        assert proc is process
        assert set(vpns.tolist()) == {6, 7}
        assert second == []

    def test_respects_tier_filter(self, lru):
        process = make_process(n_pages=8)
        process.pages.tier[:4] = FAST_TIER
        process.pages.tier[4:] = SLOW_TIER
        first, second = lru.coldest_pages_two_phase(
            [process], FAST_TIER, 100
        )
        for (_, vpns) in first + second:
            assert (vpns < 4).all()

    def test_inactive_only(self, lru):
        process = make_process(n_pages=8)
        process.pages.tier[:] = FAST_TIER
        process.pages.lru_active[:4] = True
        first, second = lru.coldest_pages_two_phase(
            [process], FAST_TIER, 100
        )
        (_, vpns), = first
        assert (vpns >= 4).all()
        # The shortfall falls back to the whole tier, active pages too.
        (_, vpns), = second
        assert vpns.size == 8

    def test_spans_processes(self, lru):
        old = make_process(pid=1, n_pages=4)
        new = make_process(pid=2, n_pages=4)
        for proc, gen in [(old, 10), (new, 1000)]:
            proc.pages.tier[:] = FAST_TIER
            proc.pages.lru_active[:] = False
            proc.pages.lru_gen[:] = gen
        PageTable([old.pages, new.pages])
        first, second = lru.coldest_pages_two_phase(
            [old, new], FAST_TIER, 4
        )
        assert len(first) == 1
        assert first[0][0] is old
        assert second == []

    def test_zero_request(self, lru):
        assert lru.coldest_pages_two_phase(
            [make_process()], FAST_TIER, 0
        ) == ([], [])

    def test_no_matching_pages(self, lru):
        process = make_process(n_pages=4)  # all pages on slow tier
        assert lru.coldest_pages_two_phase(
            [process], FAST_TIER, 10
        ) == ([], [])


class TestOneTable:
    def test_processes_of_different_tables_are_rejected(self, lru):
        """Fleet passes read one table in place: processes bound to
        separate tables cannot be ranked together."""
        processes = [make_process(pid=1), make_process(pid=2)]
        with pytest.raises(ValueError, match="one page table"):
            lru.coldest_pages_two_phase(processes, FAST_TIER, 4)
        with pytest.raises(ValueError, match="one page table"):
            lru.age_fleet(processes, now_ns=1)

    def test_selection_needs_the_whole_table(self, lru):
        processes = [make_process(pid=1), make_process(pid=2)]
        PageTable([p.pages for p in processes])
        with pytest.raises(ValueError, match="whole table"):
            lru.coldest_pages_two_phase(processes[::-1], FAST_TIER, 4)
