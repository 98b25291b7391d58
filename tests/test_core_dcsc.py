"""Tests for the DCSC statistics collector."""

import numpy as np
import pytest

from repro.core.cit import bucket_upper_bound_ns
from repro.core.dcsc import DcscCollector, DcscConfig
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.rng import RngStreams
from repro.sim.timeunits import SECOND
from repro.vm.fault import FaultBatch, FleetFaults
from tests.conftest import make_process


def probed_faults(collector, process, vpns, cit_ns, fault_ts_ns, quantum_ns):
    """Feed faults on probed pages of ``process`` to the collector, as
    the one-process delivery a fault pass hands it."""
    vpns = np.asarray(vpns)
    faults = FleetFaults.single(
        process,
        FaultBatch(
            process.pid,
            vpns,
            np.asarray(fault_ts_ns, dtype=np.int64),
            np.asarray(cit_ns, dtype=np.int64),
        ),
    )
    collector.on_probed_fault(faults, np.arange(vpns.size), quantum_ns)


def make_collector(**config_overrides):
    defaults = dict(
        victim_fraction=0.05,
        min_victims_per_process=4,
        probe_timeout_ns=2 * SECOND,
        min_samples=4.0,
    )
    defaults.update(config_overrides)
    return DcscCollector(
        DcscConfig(**defaults), RngStreams(7).get("dcsc")
    )


class TestConfig:
    def test_paper_defaults(self):
        config = DcscConfig()
        assert config.victim_fraction == pytest.approx(0.00003)
        assert config.n_buckets == 28
        assert config.cit_unit_ns == 1_000_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(victim_fraction=0),
            dict(victim_fraction=1.0),
            dict(n_buckets=1),
            dict(cit_unit_ns=0),
            dict(probe_period_ns=0),
            dict(decay=0),
            dict(min_samples=0),
            dict(min_victims_per_process=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DcscConfig(**kwargs)


class TestProbing:
    def test_probe_marks_and_protects(self):
        collector = make_collector()
        process = make_process(n_pages=128)
        probed = collector.probe_process(process, now_ns=100)
        assert probed >= 4
        vpns = np.flatnonzero(process.pages.probed)
        assert vpns.size == probed
        assert process.pages.prot_none[vpns].all()
        assert (process.pages.scan_ts_ns[vpns] == 100).all()

    def test_reprobe_skips_pending(self):
        collector = make_collector(victim_fraction=0.5)
        process = make_process(n_pages=16)
        first = collector.probe_process(process, now_ns=0)
        second = collector.probe_process(process, now_ns=1)
        total_probed = int(process.pages.probed.sum())
        assert total_probed <= first + second

    def test_stale_probes_counted_cold(self):
        collector = make_collector(probe_timeout_ns=10)
        process = make_process(n_pages=64)
        collector.probe_process(process, now_ns=0)
        collector.probe_process(process, now_ns=1_000)  # expires the first
        assert collector.heat_maps[SLOW_TIER][-1] > 0
        assert collector.samples_recorded > 0

    def test_expiry_reads_only_live_probes(self):
        """A probe that completed its rounds, or was probed again since,
        does not expire on its old log entry."""
        collector = make_collector(probe_timeout_ns=10, victim_fraction=0.5)
        process = make_process(n_pages=16)
        collector.probe_process(process, now_ns=0)
        vpns = np.flatnonzero(process.pages.probed)
        for ts in (100, 200):  # two rounds: every probe completes
            probed_faults(
                collector, process, vpns, np.full(vpns.size, 50),
                np.full(vpns.size, ts), quantum_ns=1_000,
            )
        assert not process.pages.probed.any()
        recorded = collector.samples_recorded
        assert recorded == vpns.size
        again = collector.probe_process(process, now_ns=1_000)
        assert again > 0
        # The first probes' entries are dead: nothing expires at 1,000.
        assert collector.samples_recorded == recorded
        assert process.pages.probed.sum() == again
        collector.probe_process(process, now_ns=5_000)
        assert collector.samples_recorded == recorded + again

    def test_decay(self):
        collector = make_collector(decay=0.5)
        collector.heat_maps[FAST_TIER][3] = 8.0
        collector.decay_maps()
        assert collector.heat_maps[FAST_TIER][3] == 4.0


class TestTwoRoundCollection:
    def test_round_one_reprotects_at_the_next_boundary(self):
        collector = make_collector()
        process = make_process(n_pages=64)
        collector.probe_process(process, now_ns=0)
        vpn = int(np.flatnonzero(process.pages.probed)[0])
        probed_faults(
            collector,
            process,
            np.array([vpn]),
            np.array([5_000]),
            np.array([5_000]),
            quantum_ns=2_000,
        )
        # Still probed, re-protected, nothing recorded yet.
        assert process.pages.probed[vpn]
        assert process.pages.prot_none[vpn]
        assert process.pages.scan_ts_ns[vpn] == 6_000
        assert collector.samples_recorded == 0

    def test_round_two_records_max(self):
        collector = make_collector(cit_unit_ns=1_000)
        process = make_process(n_pages=64)
        collector.probe_process(process, now_ns=0)
        vpn = int(np.flatnonzero(process.pages.probed)[0])
        probed_faults(
            collector, process, np.array([vpn]), np.array([1_500]),
            np.array([1_500]), quantum_ns=1_000,
        )
        probed_faults(
            collector, process, np.array([vpn]), np.array([7_000]),
            np.array([9_000]), quantum_ns=1_000,
        )
        assert not process.pages.probed[vpn]
        assert collector.samples_recorded == 1
        # max(1500, 7000) = 7000 ns = 7 units -> bucket 3 ([4, 8)).
        assert collector.heat_maps[SLOW_TIER][3] == 1.0

    def test_tier_attribution(self):
        collector = make_collector(cit_unit_ns=1_000)
        process = make_process(n_pages=64)
        process.pages.tier[:32] = FAST_TIER
        collector.probe_process(process, now_ns=0)
        vpns = np.flatnonzero(process.pages.probed)
        for _ in range(2):  # two rounds
            probed_faults(
                collector, process, vpns, np.full(vpns.size, 500),
                np.full(vpns.size, 500), quantum_ns=1_000,
            )
        fast_mass = collector.heat_maps[FAST_TIER].sum()
        slow_mass = collector.heat_maps[SLOW_TIER].sum()
        n_fast = int((process.pages.tier[vpns] == FAST_TIER).sum())
        assert fast_mass == n_fast
        assert slow_mass == vpns.size - n_fast


class TestTargets:
    def test_insufficient_samples(self):
        collector = make_collector(min_samples=100)
        assert collector.compute_targets(100, 400, SECOND) is None

    def test_threshold_one_bucket_under_capacity_quantile(self):
        collector = make_collector(cit_unit_ns=1_000)
        # 25 hot samples in bucket 2, 75 cold in bucket 10.  The capacity
        # quantile lands in bucket 2; the repeated-trial correction backs
        # off one bucket.
        collector.heat_maps[SLOW_TIER][2] = 25.0
        collector.heat_maps[SLOW_TIER][10] = 75.0
        threshold, _ = collector.compute_targets(
            fast_capacity_pages=100, total_pages=400, scan_period_ns=SECOND
        )
        assert threshold == bucket_upper_bound_ns(1, unit_ns=1_000)

    def test_threshold_floor_at_bucket_zero(self):
        collector = make_collector(cit_unit_ns=1_000)
        collector.heat_maps[SLOW_TIER][0] = 100.0
        threshold, _ = collector.compute_targets(
            fast_capacity_pages=100, total_pages=400, scan_period_ns=SECOND
        )
        assert threshold == bucket_upper_bound_ns(0, unit_ns=1_000)

    def test_rate_from_misplacement(self):
        collector = make_collector(cit_unit_ns=1_000)
        # Half the hot mass sits in the slow tier.
        collector.heat_maps[FAST_TIER][1] = 10.0
        collector.heat_maps[SLOW_TIER][1] = 10.0
        collector.heat_maps[SLOW_TIER][10] = 60.0
        _, rate = collector.compute_targets(
            fast_capacity_pages=100,
            total_pages=400,
            scan_period_ns=2 * SECOND,
        )
        # misplaced fraction = 10/80; 0.125 * 400 pages / 2 s = 25/s.
        assert rate == pytest.approx(25.0)

    def test_no_misplacement_floors_rate(self):
        collector = make_collector(cit_unit_ns=1_000)
        collector.heat_maps[FAST_TIER][1] = 25.0
        collector.heat_maps[SLOW_TIER][10] = 75.0
        _, rate = collector.compute_targets(100, 400, SECOND)
        assert rate == 1.0

    def test_validation(self):
        collector = make_collector()
        with pytest.raises(ValueError):
            collector.compute_targets(0, 100, SECOND)
        with pytest.raises(ValueError):
            collector.compute_targets(10, 0, SECOND)
        with pytest.raises(ValueError):
            collector.compute_targets(10, 100, 0)
