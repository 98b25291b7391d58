"""Tests for the rate-limited promotion queue.

A process on a page table of its own enqueues its vpns (they are its
global page indices); processes sharing a table enqueue global indices.
"""

import numpy as np
import pytest

from repro.core.promotion import PromotionQueue
from repro.sim.timeunits import SECOND
from repro.vm.page_state import PageTable
from tests.conftest import make_process


@pytest.fixture
def process():
    return make_process(n_pages=64)


class TestEnqueue:
    def test_enqueue_counts(self, process):
        queue = PromotionQueue(100.0)
        added = queue.enqueue([process], np.array([1, 2, 3]))
        assert added.tolist() == [1, 2, 3]
        assert len(queue) == 3
        assert queue.enqueued_total == 3
        assert process.pages.queued[[1, 2, 3]].all()

    def test_duplicates_ignored(self, process):
        queue = PromotionQueue(100.0)
        queue.enqueue([process], np.array([1, 2]))
        added = queue.enqueue([process], np.array([2, 3, 3]))
        assert added.tolist() == [3]
        assert len(queue) == 3
        # Attempted submissions count, duplicates included.
        assert queue.enqueue_rate_per_sec(SECOND) == 5.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PromotionQueue(0)

    def test_set_rate_limit(self):
        queue = PromotionQueue(100.0)
        queue.set_rate_limit(50.0)
        assert queue.rate_limit_pages_per_sec == 50.0
        with pytest.raises(ValueError):
            queue.set_rate_limit(-1)


class TestDrain:
    def test_budget_respected(self, process):
        queue = PromotionQueue(rate_limit_pages_per_sec=10.0)
        queue.enqueue([process], np.arange(20))
        batches = queue.drain(elapsed_ns=SECOND)
        total = sum(v.size for _, v in batches)
        assert total == 10
        assert len(queue) == 10
        assert queue.dequeued_total == 10
        # Drained pages leave the queue: they may be enqueued again.
        assert not process.pages.queued[:10].any()
        assert process.pages.queued[10:20].all()

    def test_fifo_order(self, process):
        queue = PromotionQueue(10.0)
        queue.enqueue([process], np.array([5, 1, 9]))
        ((_, vpns),) = queue.drain(elapsed_ns=SECOND)
        np.testing.assert_array_equal(vpns, [5, 1, 9])

    def test_fractional_budget_carries_over(self, process):
        queue = PromotionQueue(rate_limit_pages_per_sec=1.0)
        queue.enqueue([process], np.arange(4))
        assert queue.drain(SECOND // 2) == []
        batches = queue.drain(SECOND // 2)
        total = sum(v.size for _, v in batches)
        assert total == 1

    def test_carry_resets_when_queue_drained(self, process):
        queue = PromotionQueue(1000.0)
        queue.enqueue([process], np.array([1]))
        queue.drain(SECOND)
        # Queue empty; a long idle gap must not accumulate burst credit
        # beyond the available work.
        queue.enqueue([process], np.array([2]))
        batches = queue.drain(SECOND)
        assert sum(v.size for _, v in batches) == 1

    def test_multiple_processes_batched_separately(self):
        a, b = make_process(pid=1), make_process(pid=2)
        PageTable([a.pages, b.pages])
        lo_b = b.pages.table.starts[1]
        queue = PromotionQueue(100.0)
        queue.enqueue([a], np.array([1]))
        queue.enqueue([a, b], np.array([lo_b + 2]))
        queue.enqueue([a], np.array([3]))
        batches = queue.drain(SECOND)
        assert [(p.pid, v.tolist()) for p, v in batches] == [
            (1, [1, 3]),
            (2, [2]),
        ]

    def test_processes_leave_in_first_appearance_order(self):
        """A process whose page was queued first drains first, whatever
        its segment."""
        a, b = make_process(pid=1), make_process(pid=2)
        PageTable([a.pages, b.pages])
        lo_b = b.pages.table.starts[1]
        queue = PromotionQueue(3.0)
        queue.enqueue([b], lo_b + np.array([7, 4]))
        queue.enqueue([a], np.array([9, 0]))
        queue.enqueue([b], lo_b + np.array([1]))
        batches = queue.drain(SECOND)
        assert [(p.pid, v.tolist()) for p, v in batches] == [
            (2, [7, 4]),
            (1, [9]),
        ]
        batches = queue.drain(SECOND)
        assert [(p.pid, v.tolist()) for p, v in batches] == [
            (1, [0]),
            (2, [1]),
        ]

    def test_queued_pages_follow_a_table_rebuild(self):
        """Pages queued before the processes' table is rebuilt drain
        under their own vpns, flags cleared in the new table."""
        a, b = make_process(pid=1), make_process(pid=2)
        queue = PromotionQueue(100.0)
        queue.enqueue([b], np.array([5, 6]))
        PageTable([a.pages, b.pages])
        assert b.pages.queued[[5, 6]].all()
        queue.enqueue([a], np.array([2]))
        batches = queue.drain(SECOND)
        assert [(p.pid, v.tolist()) for p, v in batches] == [
            (2, [5, 6]),
            (1, [2]),
        ]
        assert not a.pages.table.queued.any()

    def test_negative_elapsed_rejected(self, process):
        queue = PromotionQueue(10.0)
        with pytest.raises(ValueError):
            queue.drain(-1)


class TestEnqueueRate:
    def test_rate_over_window(self, process):
        queue = PromotionQueue(100.0)
        queue.enqueue([process], np.arange(50))
        rate = queue.enqueue_rate_per_sec(window_ns=SECOND // 2)
        assert rate == pytest.approx(100.0)

    def test_window_resets(self, process):
        queue = PromotionQueue(100.0)
        queue.enqueue([process], np.arange(10))
        queue.enqueue_rate_per_sec(SECOND)
        assert queue.enqueue_rate_per_sec(SECOND) == 0.0

    def test_bad_window(self, process):
        queue = PromotionQueue(100.0)
        with pytest.raises(ValueError):
            queue.enqueue_rate_per_sec(0)
