"""Tests for the migration engine."""

import numpy as np
import pytest

from repro.mem.tier import FAST_TIER, SLOW_TIER
from tests.conftest import make_kernel, make_process


@pytest.fixture
def setup():
    kernel = make_kernel(fast_pages=32, slow_pages=128)
    process = make_process(n_pages=64)
    kernel.register_process(process)
    # All pages start on the slow tier; account the frames.
    kernel.machine.slow.allocate(64)
    return kernel, process


class TestPromotion:
    def test_promote_moves_pages_and_frames(self, setup):
        kernel, process = setup
        moved = kernel.migration.promote(process, np.array([0, 1, 2]))
        assert moved.size == 3
        assert (process.pages.tier[[0, 1, 2]] == FAST_TIER).all()
        assert kernel.machine.fast.used_pages == 3
        assert kernel.machine.slow.used_pages == 61
        assert kernel.stats.pgpromote == 3
        assert process.stats.pages_promoted == 3

    def test_promotion_activates_pages(self, setup):
        kernel, process = setup
        kernel.clock.advance(500)
        kernel.migration.promote(process, np.array([5]))
        assert process.pages.lru_active[5]
        assert process.pages.lru_gen[5] == 500

    def test_promote_skips_already_fast(self, setup):
        kernel, process = setup
        kernel.migration.promote(process, np.array([0]))
        moved = kernel.migration.promote(process, np.array([0]))
        assert moved.size == 0
        assert kernel.stats.pgpromote == 1

    def test_capacity_limit_drops_overflow(self, setup):
        kernel, process = setup
        moved = kernel.migration.promote(process, np.arange(64))
        assert moved.size == 32  # fast tier only holds 32
        assert kernel.stats.promotion_dropped == 32

    def test_promotion_clears_demoted_flag(self, setup):
        kernel, process = setup
        process.pages.demoted[7] = True
        kernel.migration.promote(process, np.array([7]))
        assert not process.pages.demoted[7]

    def test_charges_kernel_time(self, setup):
        kernel, process = setup
        kernel.migration.promote(process, np.array([0, 1]))
        assert process.pending_kernel_ns > 0
        assert kernel.stats.migration_time_ns > 0


class TestDemotion:
    def test_demote_counts_and_flags(self, setup):
        kernel, process = setup
        kernel.migration.promote(process, np.array([0, 1]))
        moved = kernel.migration.migrate(
            process, np.array([0]), SLOW_TIER, mark_demoted=True
        )
        assert moved.size == 1
        assert process.pages.demoted[0]
        assert kernel.stats.pgdemote == 1
        assert process.stats.pages_demoted == 1

    def test_demote_without_mark(self, setup):
        kernel, process = setup
        kernel.migration.promote(process, np.array([0]))
        kernel.migration.migrate(process, np.array([0]), SLOW_TIER)
        assert not process.pages.demoted[0]

    def test_demotion_deactivates(self, setup):
        kernel, process = setup
        kernel.migration.promote(process, np.array([3]))
        kernel.migration.migrate(process, np.array([3]), SLOW_TIER)
        assert not process.pages.lru_active[3]


class TestAccounting:
    def test_empty_batch(self, setup):
        kernel, process = setup
        moved = kernel.migration.promote(process, np.array([], dtype=int))
        assert moved.size == 0
        assert kernel.stats.pgpromote == 0

    def test_migration_bandwidth_charged(self, setup):
        kernel, process = setup
        kernel.migration.promote(process, np.array([0, 1]))
        assert kernel.machine.fast.consume_migration_bytes() == 2 * 4096
        assert kernel.machine.slow.consume_migration_bytes() == 2 * 4096

    def test_context_switches_recorded(self, setup):
        kernel, process = setup
        kernel.migration.promote(process, np.array([0]))
        assert kernel.stats.context_switches >= 1
