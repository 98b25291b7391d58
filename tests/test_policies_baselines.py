"""Tests for the baseline tiering policies."""

import numpy as np
import pytest

from repro.kernel.scanner import ScanConfig
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.policies import (
    AutoTieringPolicy,
    LinuxNUMABalancing,
    MemtisPolicy,
    MultiClockPolicy,
    TPPPolicy,
    make_policy,
    policy_names,
)
from repro.policies.base import PromotionRateLimiter
from repro.policies.autotiering import _popcount8
from repro.sim.timeunits import SECOND
from repro.vm.fault import FaultBatch, FleetFaults
from tests.conftest import make_kernel, make_process


def attach(policy, fast_pages=64, slow_pages=512, n_pages=128):
    kernel = make_kernel(fast_pages=fast_pages, slow_pages=slow_pages)
    process = make_process(n_pages=n_pages)
    kernel.register_process(process)
    kernel.allocate_initial_placement()
    kernel.set_policy(policy)
    return kernel, process


def fleet_faults(process, vpns):
    """One process's faults as the kernel delivers them."""
    return FleetFaults.single(process, fault_batch(process, vpns))


def fault_batch(process, vpns, cits=None, now=1000):
    vpns = np.asarray(vpns, dtype=np.int64)
    if cits is None:
        cits = np.full(vpns.size, 100, dtype=np.int64)
    return FaultBatch(
        pid=process.pid,
        vpns=vpns,
        fault_ts_ns=np.full(vpns.size, now, dtype=np.int64),
        cit_ns=np.asarray(cits, dtype=np.int64),
    )


class TestRegistry:
    def test_all_names_buildable(self):
        for name in policy_names():
            policy = make_policy(name)
            assert policy.name.startswith(name.split("-")[0])

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_policy("nope")

    def test_kwargs_forwarded(self):
        policy = make_policy("linux-nb", scan_period_ns=SECOND)
        assert policy._scan_config.scan_period_ns == SECOND


class TestRateLimiter:
    def test_grant_respects_budget(self):
        kernel = make_kernel()
        limiter = PromotionRateLimiter(rate_mbps=1.0)
        limiter.bind(kernel)
        # 1 MB/s at 4 KB pages (scale 1) = ~244 pages/s.
        kernel.clock.advance(SECOND)
        granted = limiter.grant(10_000, kernel.clock.now)
        assert 240 <= granted <= 245

    def test_tokens_accumulate_capped(self):
        kernel = make_kernel()
        limiter = PromotionRateLimiter(rate_mbps=1.0)
        limiter.bind(kernel)
        kernel.clock.advance(100 * SECOND)
        granted = limiter.grant(10_000_000, kernel.clock.now)
        assert granted <= 245  # capped at one second of budget

    def test_unbound_rejected(self):
        limiter = PromotionRateLimiter(1.0)
        with pytest.raises(RuntimeError):
            limiter.grant(1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PromotionRateLimiter(0)
        kernel = make_kernel()
        limiter = PromotionRateLimiter(1.0)
        limiter.bind(kernel)
        with pytest.raises(ValueError):
            limiter.grant(-1, 0)


class TestLinuxNB:
    def test_promotes_faulting_slow_pages(self):
        policy = LinuxNUMABalancing(scan_period_ns=SECOND)
        kernel, process = attach(policy)
        # Open fast-tier headroom (kswapd would have done this).
        fast_vpns = process.pages.pages_in_tier(FAST_TIER)[:8]
        kernel.migration.migrate(process, fast_vpns, SLOW_TIER)
        slow_vpns = process.pages.pages_in_tier(SLOW_TIER)[:4]
        kernel.clock.advance(SECOND)
        policy.on_faults(fleet_faults(process, slow_vpns))
        assert (process.pages.tier[slow_vpns] == FAST_TIER).all()

    def test_ignores_fast_tier_faults(self):
        policy = LinuxNUMABalancing(scan_period_ns=SECOND)
        kernel, process = attach(policy)
        fast_vpns = process.pages.pages_in_tier(FAST_TIER)[:2]
        kernel.clock.advance(SECOND)
        policy.on_faults(fleet_faults(process, fast_vpns))
        assert kernel.stats.pgpromote == 0

    def test_rate_limit_drops_excess(self):
        policy = LinuxNUMABalancing(
            scan_period_ns=SECOND, promote_rate_limit_mbps=0.01
        )
        kernel, process = attach(policy)
        fast_vpns = process.pages.pages_in_tier(FAST_TIER)[:16]
        kernel.migration.migrate(process, fast_vpns, SLOW_TIER)
        promoted_before = kernel.stats.pgpromote
        slow_vpns = process.pages.pages_in_tier(SLOW_TIER)[:50]
        kernel.clock.advance(SECOND)
        policy.on_faults(fleet_faults(process, slow_vpns))
        assert kernel.stats.pgpromote - promoted_before <= 3
        assert kernel.stats.promotion_dropped > 0

    def test_never_reclaims_synchronously(self):
        policy = LinuxNUMABalancing(scan_period_ns=SECOND)
        kernel, process = attach(policy, fast_pages=16, n_pages=128)
        kernel.machine.fast.allocate(kernel.machine.fast.free_pages)
        slow_vpns = process.pages.pages_in_tier(SLOW_TIER)[:8]
        kernel.clock.advance(SECOND)
        policy.on_faults(fleet_faults(process, slow_vpns))
        assert kernel.stats.pgdemote == 0


class TestAutoTiering:
    def test_lap_shift_on_scan(self):
        policy = AutoTieringPolicy(scan_period_ns=SECOND)
        kernel, process = attach(policy)
        lap = policy.lap_vector(process)
        lap[:4] = 0b0000_0001
        kernel.scanner.scan_once(process, now_ns=10)
        window = np.arange(4)  # scan starts at vpn 0
        assert (policy.lap_vector(process)[window] == 0b0000_0010).all()

    def test_fault_sets_bit(self):
        policy = AutoTieringPolicy(scan_period_ns=SECOND)
        kernel, process = attach(policy)
        kernel.clock.advance(SECOND)
        vpn = int(process.pages.pages_in_tier(SLOW_TIER)[0])
        policy.on_fault(process, fault_batch(process, [vpn]))
        assert policy.lap_vector(process)[vpn] & 1

    def test_promotion_needs_history(self):
        policy = AutoTieringPolicy(
            scan_period_ns=SECOND, promote_min_bits=2
        )
        kernel, process = attach(policy)
        kernel.clock.advance(SECOND)
        vpn = int(process.pages.pages_in_tier(SLOW_TIER)[0])
        # First fault: one LAP bit -> no promotion.
        policy.on_fault(process, fault_batch(process, [vpn]))
        assert process.pages.tier[vpn] == SLOW_TIER
        # History accumulates over a scan shift + second fault.
        lap = policy.lap_vector(process)
        lap[vpn] = 0b0000_0010
        policy.on_fault(process, fault_batch(process, [vpn]))
        assert process.pages.tier[vpn] == FAST_TIER

    def test_background_demotion_of_idle_pages(self):
        policy = AutoTieringPolicy(
            scan_period_ns=SECOND, demote_period_ns=SECOND
        )
        kernel, process = attach(policy)
        kernel.start()
        assert process.pages.count_in_tier(FAST_TIER) > 0
        kernel.advance_to(SECOND + 1)
        # All fast pages had empty LAPs -> demoted.
        assert process.pages.count_in_tier(FAST_TIER) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoTieringPolicy(promote_min_bits=0)
        with pytest.raises(ValueError):
            AutoTieringPolicy(demote_period_ns=0)

    def test_popcount(self):
        values = np.array([0, 1, 3, 0xFF, 0b1010], dtype=np.uint8)
        np.testing.assert_array_equal(
            _popcount8(values), [0, 1, 2, 8, 2]
        )


class TestMultiClock:
    def test_levels_rise_and_fall(self):
        policy = MultiClockPolicy(n_levels=4)
        kernel, process = attach(policy)
        touched = np.zeros(process.n_pages, dtype=bool)
        touched[:8] = True
        for _ in range(5):
            policy.on_lru_age(process, touched, kernel.clock.now)
        levels = policy.levels(process)
        assert (levels[:8] == 3).all()
        assert (levels[8:] == 0).all()

    def test_promotes_top_level_slow_pages(self):
        policy = MultiClockPolicy(n_levels=4, promote_level=3)
        kernel, process = attach(policy)
        slow_vpns = process.pages.pages_in_tier(SLOW_TIER)
        touched = np.zeros(process.n_pages, dtype=bool)
        touched[slow_vpns[:4]] = True
        for _ in range(4):
            policy.on_lru_age(process, touched, kernel.clock.now)
        assert (process.pages.tier[slow_vpns[:4]] == FAST_TIER).all()

    def test_demotes_bottom_level_to_make_room(self):
        policy = MultiClockPolicy(n_levels=4, promote_level=3)
        kernel, process = attach(policy, fast_pages=8, n_pages=64)
        kernel.machine.fast.allocate(kernel.machine.fast.free_pages)
        slow_vpns = process.pages.pages_in_tier(SLOW_TIER)
        touched = np.zeros(process.n_pages, dtype=bool)
        touched[slow_vpns[:4]] = True
        for _ in range(4):
            policy.on_lru_age(process, touched, kernel.clock.now)
        assert kernel.stats.pgdemote > 0
        assert kernel.stats.pgpromote > 0

    def test_no_scanner(self):
        policy = MultiClockPolicy()
        kernel, _ = attach(policy)
        assert kernel.scanner is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiClockPolicy(n_levels=1)
        with pytest.raises(ValueError):
            MultiClockPolicy(n_levels=4, promote_level=4)
        with pytest.raises(ValueError):
            MultiClockPolicy(migrate_batch_pages=0)


class TestTPP:
    def test_latency_gate(self):
        policy = TPPPolicy(
            scan_period_ns=SECOND, hint_fault_latency_ns=1_000
        )
        kernel, process = attach(policy)
        kernel.clock.advance(SECOND)
        slow_vpns = process.pages.pages_in_tier(SLOW_TIER)[:2]
        batch = fault_batch(
            process, slow_vpns, cits=[500, 5_000]
        )
        policy.on_fault(process, batch)
        assert process.pages.tier[slow_vpns[0]] == FAST_TIER
        assert process.pages.tier[slow_vpns[1]] == SLOW_TIER

    def test_sentinel_cit_never_promotes(self):
        policy = TPPPolicy(
            scan_period_ns=SECOND, hint_fault_latency_ns=1_000
        )
        kernel, process = attach(policy)
        kernel.clock.advance(SECOND)
        vpn = process.pages.pages_in_tier(SLOW_TIER)[:1]
        policy.on_fault(process, fault_batch(process, vpn, cits=[-1]))
        assert kernel.stats.pgpromote == 0

    def test_headroom_configured(self):
        policy = TPPPolicy(headroom_pages=10)
        kernel, _ = attach(policy, fast_pages=1024, n_pages=64)
        assert kernel.watermarks.pro_gap_pages == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            TPPPolicy(hint_fault_latency_ns=0)
        with pytest.raises(ValueError):
            TPPPolicy(headroom_pages=-1)


class TestAttachGuards:
    def test_double_attach_rejected(self):
        policy = LinuxNUMABalancing()
        kernel, _ = attach(policy)
        with pytest.raises(RuntimeError):
            policy.attach(kernel)

    def test_unattached_fault_rejected(self):
        policy = TPPPolicy()
        process = make_process()
        with pytest.raises(RuntimeError):
            policy.on_fault(process, fault_batch(process, [0]))
