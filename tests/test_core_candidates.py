"""Tests for the n-round candidate filter.

The filter's state is two page-table fields: ``candidate`` counts the
rounds a slot passed, ``candidate_cit_ns`` its largest CIT so far.  A
process on a table of its own feeds its vpns (its global page indices).
"""

import numpy as np
import pytest

from repro.core.candidates import CandidateFilter
from tests.conftest import make_process

THRESHOLD = 1_000_000  # 1 ms


@pytest.fixture
def process():
    return make_process(n_pages=64)


class TestTwoRoundFilter:
    def test_first_pass_creates_candidate(self, process):
        filt = CandidateFilter(n_rounds=2)
        result = filt.observe(
            process.pages.table, np.array([3]), np.array([100]), THRESHOLD
        )
        assert result.ready.size == 0
        assert result.new_candidates == 1
        assert process.pages.candidate[3] == 1
        assert process.pages.candidate_cit_ns[3] == 100
        assert filt.candidate_count(process) == 1

    def test_second_pass_promotes(self, process):
        filt = CandidateFilter(n_rounds=2)
        filt.observe(process.pages.table, np.array([3]), np.array([100]), THRESHOLD)
        result = filt.observe(
            process.pages.table, np.array([3]), np.array([200]), THRESHOLD
        )
        np.testing.assert_array_equal(result.ready, [3])
        assert not process.pages.candidate[3]
        assert not process.pages.candidate_cit_ns[3]
        assert filt.candidate_count(process) == 0

    def test_over_threshold_second_round_evicts(self, process):
        filt = CandidateFilter(n_rounds=2)
        filt.observe(process.pages.table, np.array([3]), np.array([100]), THRESHOLD)
        result = filt.observe(
            process.pages.table, np.array([3]), np.array([THRESHOLD + 1]), THRESHOLD
        )
        assert result.ready.size == 0
        assert result.rejected == 1
        assert filt.candidate_count(process) == 0

    def test_max_of_two_semantics(self, process):
        """Passing requires BOTH samples below threshold -- thresholding
        the max (Appendix B.1's estimator)."""
        filt = CandidateFilter(n_rounds=2)
        filt.observe(
            process.pages.table, np.array([1, 2]), np.array([100, 100]), THRESHOLD
        )
        result = filt.observe(
            process.pages.table,
            np.array([1, 2]),
            np.array([500, THRESHOLD + 5]),
            THRESHOLD,
        )
        np.testing.assert_array_equal(result.ready, [1])

    def test_candidate_cit_records_max(self, process):
        filt = CandidateFilter(n_rounds=3)
        table = process.pages.table
        filt.observe(table, np.array([7]), np.array([900]), THRESHOLD)
        assert process.pages.candidate_cit_ns[7] == 900
        filt.observe(table, np.array([7]), np.array([400]), THRESHOLD)
        assert process.pages.candidate_cit_ns[7] == 900
        assert process.pages.candidate[7] == 2

    def test_over_threshold_first_round_is_noop(self, process):
        filt = CandidateFilter(n_rounds=2)
        result = filt.observe(
            process.pages.table, np.array([3]), np.array([THRESHOLD + 1]), THRESHOLD
        )
        assert result.new_candidates == 0
        assert result.rejected == 0
        assert filt.candidate_count(process) == 0


class TestRoundCounts:
    def test_one_round_promotes_immediately(self, process):
        filt = CandidateFilter(n_rounds=1)
        result = filt.observe(
            process.pages.table, np.array([5]), np.array([10]), THRESHOLD
        )
        np.testing.assert_array_equal(result.ready, [5])

    def test_three_rounds(self, process):
        filt = CandidateFilter(n_rounds=3)
        for _ in range(2):
            result = filt.observe(
                process.pages.table, np.array([5]), np.array([10]), THRESHOLD
            )
            assert result.ready.size == 0
        result = filt.observe(
            process.pages.table, np.array([5]), np.array([10]), THRESHOLD
        )
        np.testing.assert_array_equal(result.ready, [5])

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            CandidateFilter(n_rounds=0)
        with pytest.raises(ValueError):
            CandidateFilter(n_rounds=128)


class TestGroupSlots:
    def test_group_state_sits_at_the_first_page(self, process):
        """In huge-page mode the caller keys a 16-page group by its
        first page; the filter tracks that slot like any page."""
        filt = CandidateFilter(n_rounds=2)
        filt.observe(
            process.pages.table, np.array([16]), np.array([10]), THRESHOLD
        )
        assert filt.candidate_count(process) == 1
        assert np.flatnonzero(process.pages.candidate).tolist() == [16]
        assert process.pages.candidate_cit_ns[16] == 10


class TestHousekeeping:
    def test_footprint_bounded(self, process):
        filt = CandidateFilter(n_rounds=2)
        vpns = np.arange(10)
        filt.observe(process.pages.table, vpns, np.full(10, 10), THRESHOLD)
        assert filt.footprint_bytes(process) == 10 * 16

    def test_parallel_array_validation(self, process):
        filt = CandidateFilter()
        with pytest.raises(ValueError):
            filt.observe(
                process.pages.table, np.array([1, 2]), np.array([10]), THRESHOLD
            )

    def test_threshold_validation(self, process):
        filt = CandidateFilter()
        with pytest.raises(ValueError):
            filt.observe(process.pages.table, np.array([1]), np.array([10]), 0)
