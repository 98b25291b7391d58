"""Tests for the structure-of-arrays page state."""

import numpy as np
import pytest

from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.vm.page_state import NO_TIMESTAMP, PageState, ledger_fold


class TestConstruction:
    def test_initial_state(self):
        pages = PageState(16)
        assert pages.n_pages == 16
        assert not pages.prot_none.any()
        assert not pages.accessed.any()
        assert (pages.scan_ts_ns == NO_TIMESTAMP).all()
        assert (pages.tier == SLOW_TIER).all()

    def test_zero_pages_is_legal(self):
        """A zero-page process (an empty arena segment) is valid; only
        negative sizes are rejected."""
        pages = PageState(0)
        assert pages.n_pages == 0
        assert pages.fast_page_fraction() == 0.0
        assert pages.protected_pages().size == 0
        with pytest.raises(ValueError):
            PageState(-1)


class TestProtection:
    def test_protect_stamps_time(self):
        pages = PageState(8)
        marked = pages.protect(np.array([1, 3]), now_ns=1000)
        assert marked == 2
        assert pages.prot_none[1] and pages.prot_none[3]
        assert pages.scan_ts_ns[1] == 1000
        assert pages.scan_ts_ns[2] == NO_TIMESTAMP

    def test_double_protect_keeps_first_timestamp(self):
        pages = PageState(8)
        pages.protect(np.array([2]), now_ns=100)
        marked = pages.protect(np.array([2]), now_ns=500)
        assert marked == 0
        assert pages.scan_ts_ns[2] == 100

    def test_unprotect(self):
        pages = PageState(8)
        pages.protect(np.array([4]), now_ns=10)
        pages.unprotect(np.array([4]))
        assert not pages.prot_none[4]
        # Scan timestamp survives the fault: CIT metadata is read later.
        assert pages.scan_ts_ns[4] == 10

    def test_protected_pages(self):
        pages = PageState(8)
        pages.protect(np.array([0, 5, 7]), now_ns=1)
        np.testing.assert_array_equal(pages.protected_pages(), [0, 5, 7])


class TestResidency:
    def test_move_to_tier(self):
        pages = PageState(8)
        pages.move_to_tier(np.array([0, 1]), FAST_TIER)
        assert pages.count_in_tier(FAST_TIER) == 2
        assert pages.count_in_tier(SLOW_TIER) == 6
        np.testing.assert_array_equal(pages.pages_in_tier(FAST_TIER), [0, 1])

    def test_fast_page_fraction(self):
        pages = PageState(10)
        pages.move_to_tier(np.arange(4), FAST_TIER)
        assert pages.fast_page_fraction() == pytest.approx(0.4)


class TestProtectAtDuplicates:
    def test_duplicate_vpns_count_once(self):
        """Regression: duplicated vpns in one protect_at batch must bump
        ``n_protected`` once per page, not once per occurrence."""
        pages = PageState(8)
        pages.protect_at(
            np.array([3, 3, 5, 3]), np.array([10, 20, 30, 40])
        )
        assert pages.n_protected == 2
        assert pages.n_protected == int(pages.prot_none.sum())
        np.testing.assert_array_equal(pages.protected_pages(), [3, 5])

    def test_last_duplicate_timestamp_wins(self):
        pages = PageState(8)
        pages.protect_at(
            np.array([3, 3, 5, 3]), np.array([10, 20, 30, 40])
        )
        assert pages.scan_ts_ns[3] == 40
        assert pages.scan_ts_ns[5] == 30

    def test_reprotect_overwrites_timestamp_without_recount(self):
        pages = PageState(8)
        pages.protect(np.array([2]), now_ns=100)
        pages.protect_at(np.array([2]), np.array([900]))
        assert pages.n_protected == 1
        assert pages.scan_ts_ns[2] == 900


class TestUnprotectResolved:
    def test_complementary_split_keeps_invariants(self):
        pages = PageState(16)
        pages.protect(np.array([1, 4, 7, 9, 12]), now_ns=5)
        snapshot = pages.protected_pages()
        touched = snapshot[[1, 3]]  # 4, 9
        remainder = snapshot[[0, 2, 4]]  # 1, 7, 12
        pages.unprotect_resolved(touched, remainder)
        assert pages.n_protected == 3
        assert not pages.prot_none[4] and not pages.prot_none[9]
        np.testing.assert_array_equal(
            pages.protected_pages(), [1, 7, 12]
        )
        np.testing.assert_array_equal(
            pages.protected_pages(), np.flatnonzero(pages.prot_none)
        )


class TestDeferredLedger:
    def test_defer_is_lazy_until_read(self):
        pages = PageState(8)
        probs = np.full(8, 1 / 8)
        pages.defer_accesses(probs, 100.0)
        assert pages.has_pending_accesses
        assert (pages._access_count == 0).all()  # not yet materialised
        np.testing.assert_allclose(pages.access_count, probs * 100.0)
        assert not pages.has_pending_accesses

    def test_same_distribution_runs_merge(self):
        pages = PageState(8)
        probs = np.full(8, 1 / 8)
        other = np.full(8, 1 / 8)
        pages.defer_accesses(probs, 10.0)
        pages.defer_accesses(probs, 20.0)  # same object: merges
        pages.defer_accesses(other, 5.0)  # equal values, new object
        assert len(pages._pending) == 2
        assert pages._pending[0][1] == 30.0

    def test_flush_is_idempotent(self):
        pages = PageState(8)
        probs = np.full(8, 1 / 8)
        pages.defer_accesses(probs, 16.0)
        pages.flush_accounting()
        pages.flush_accounting()
        np.testing.assert_allclose(pages.access_count, np.full(8, 2.0))

    def test_ledger_fold_accumulates_both_counters(self):
        rng = np.random.default_rng(0)
        probs = rng.random(257)
        probs /= probs.sum()
        access = rng.random(257) * 100.0
        window = rng.random(257) * 10.0
        base_access, base_window = access.copy(), window.copy()
        ledger_fold(probs, 50.0, access, window, np.empty_like(probs))
        np.testing.assert_array_equal(access, base_access + probs * 50.0)
        np.testing.assert_array_equal(window, base_window + probs * 50.0)


class TestMoveJournal:
    def test_epoch_bumps_once_per_move(self):
        pages = PageState(8)
        assert pages.epoch == 0
        pages.move_to_tier(np.array([0, 1, 2]), FAST_TIER)
        assert pages.epoch == 1
        pages.move_to_tier(np.array([1]), SLOW_TIER)
        assert pages.epoch == 2

    def test_moves_since_replays_deltas(self):
        pages = PageState(8)
        pages.move_to_tier(np.array([0, 1]), FAST_TIER)
        base = pages.epoch
        pages.move_to_tier(np.array([1, 2]), SLOW_TIER)
        entries = pages.moves_since(base)
        assert len(entries) == 1
        epoch, vpns, old_tiers, new_tier = entries[0]
        assert epoch == base + 1
        np.testing.assert_array_equal(vpns, [1, 2])
        np.testing.assert_array_equal(old_tiers, [FAST_TIER, SLOW_TIER])
        assert new_tier == SLOW_TIER

    def test_moves_since_current_epoch_is_empty(self):
        pages = PageState(8)
        pages.move_to_tier(np.array([3]), FAST_TIER)
        assert pages.moves_since(pages.epoch) == []

    def test_journal_caps_force_recount(self, monkeypatch):
        monkeypatch.setattr(PageState, "MOVE_LOG_CAP_PAGES", 4)
        pages = PageState(8)
        pages.move_to_tier(np.array([0, 1, 2]), FAST_TIER)
        pages.move_to_tier(np.array([3, 4]), FAST_TIER)
        # 5 journaled pages > cap 4: the oldest entry was dropped.
        assert pages.moves_since(0) is None
        assert pages.move_log_base == 1
        assert pages.moves_since(1) is not None

    def test_entry_cap_bounds_empty_moves(self, monkeypatch):
        monkeypatch.setattr(PageState, "MOVE_LOG_CAP_ENTRIES", 3)
        pages = PageState(8)
        for _ in range(10):
            pages.move_to_tier(np.empty(0, dtype=np.int64), FAST_TIER)
        assert len(pages._move_log) == 3
        assert pages.moves_since(0) is None


class TestWindowCounts:
    def test_clear(self):
        pages = PageState(4)
        pages.last_window_count[:] = 2.5
        pages.clear_window_counts()
        assert (pages.last_window_count == 0).all()

    def test_clear_flushes_pending_first(self):
        pages = PageState(4)
        probs = np.full(4, 0.25)
        pages.defer_accesses(probs, 8.0)
        pages.clear_window_counts()
        assert (pages.last_window_count == 0).all()
        # The closing window's accesses still reached the lifetime
        # counter before the window rolled.
        np.testing.assert_allclose(pages.access_count, np.full(4, 2.0))

    def test_sparse_clear_covers_candidate_set(self):
        pages = PageState(8)
        probs = np.zeros(8)
        probs[[2, 5]] = 0.5
        pages.defer_accesses(probs, 10.0)
        candidates = np.array([2, 5])  # covers every nonzero entry
        pages.clear_window_counts(candidates)
        assert (pages.last_window_count == 0).all()
        np.testing.assert_allclose(pages.access_count, probs * 10.0)

    def test_repr_mentions_counts(self):
        pages = PageState(4)
        assert "n_pages=4" in repr(pages)
