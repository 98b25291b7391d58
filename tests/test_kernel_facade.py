"""Tests for the Kernel facade: registration, placement, daemons."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.timeunits import SECOND
from repro.vm.fault import FaultBatch
from repro.vm.process import SimProcess
from tests.conftest import make_kernel, make_process


def chunk_loop_placement(kernel, chunk_pages):
    """Reference oracle: the chunk-by-chunk round-robin walk that
    ``allocate_initial_placement`` computes in closed form, two
    ``move_to_tier`` calls per chunk, with the usable-capacity check."""
    fast = kernel.machine.fast
    slow = kernel.machine.slow
    cursors = [0] * len(kernel.processes)
    remaining = sum(p.n_pages for p in kernel.processes)
    headroom = max(0, fast.free_pages - kernel.watermarks.high_pages)
    if remaining > headroom + slow.free_pages:
        raise MemoryError("working sets exceed usable capacity")
    while remaining > 0:
        for index, process in enumerate(kernel.processes):
            if cursors[index] >= process.n_pages:
                continue
            take = min(chunk_pages, process.n_pages - cursors[index])
            headroom = fast.free_pages - kernel.watermarks.high_pages
            n_fast = max(0, min(take, headroom))
            fast.allocate(n_fast)
            slow.allocate(take - n_fast)
            vpns = np.arange(cursors[index], cursors[index] + take)
            process.pages.move_to_tier(vpns[:n_fast], FAST_TIER)
            process.pages.move_to_tier(vpns[n_fast:], SLOW_TIER)
            cursors[index] += take
            remaining -= take


def sized_kernel(sizes, fast_pages, slow_pages, fast_used):
    """A kernel with one process per size and ``fast_used`` fast frames
    already taken (so the headroom above ``high`` can be <= 0)."""
    kernel = make_kernel(fast_pages=fast_pages, slow_pages=slow_pages)
    kernel.machine.fast.allocate(fast_used)
    for pid, n_pages in enumerate(sizes):
        kernel.register_process(SimProcess(
            pid=pid,
            workload=SimpleNamespace(n_pages=n_pages),
            rng=np.random.default_rng(pid),
        ))
    return kernel


class RecordingPolicy:
    """Policy stub that records the hooks the kernel invokes."""

    name = "recording"

    def __init__(self):
        self.attached = None
        self.faults = []
        self.ages = []
        self.started = False

    def attach(self, kernel):
        self.attached = kernel

    def start(self):
        self.started = True

    def on_fault(self, process, batch):
        self.faults.append((process.pid, batch.n_faults))

    def on_lru_age(self, process, touched, now_ns):
        self.ages.append((process.pid, now_ns))


class TestRegistration:
    def test_register(self, kernel, process):
        kernel.register_process(process)
        assert kernel.processes == [process]

    def test_duplicate_pid_rejected(self, kernel):
        kernel.register_process(make_process(pid=1))
        with pytest.raises(ValueError):
            kernel.register_process(make_process(pid=1))

    def test_register_with_cgroup(self, kernel):
        process = make_process()
        kernel.register_process(process, cgroup="tenant-1")
        assert kernel.cgroups.get("tenant-1").processes == [process]


class TestInitialPlacement:
    def test_fast_tier_filled_to_watermark(self):
        kernel = make_kernel(fast_pages=100, slow_pages=400)
        process = make_process(n_pages=300)
        kernel.register_process(process)
        kernel.allocate_initial_placement(chunk_pages=10)
        fast_used = kernel.machine.fast.used_pages
        assert fast_used == 100 - kernel.watermarks.high_pages
        assert process.pages.count_in_tier(FAST_TIER) == fast_used
        assert kernel.machine.slow.used_pages == 300 - fast_used

    def test_round_robin_is_fair(self):
        kernel = make_kernel(fast_pages=100, slow_pages=400)
        a = make_process(pid=1, n_pages=120)
        b = make_process(pid=2, n_pages=120)
        kernel.register_process(a)
        kernel.register_process(b)
        kernel.allocate_initial_placement(chunk_pages=4)
        fast_a = a.pages.count_in_tier(FAST_TIER)
        fast_b = b.pages.count_in_tier(FAST_TIER)
        assert abs(fast_a - fast_b) <= 4

    def test_oversubscription_rejected(self):
        kernel = make_kernel(fast_pages=10, slow_pages=10)
        kernel.register_process(make_process(n_pages=100))
        with pytest.raises(MemoryError):
            kernel.allocate_initial_placement()

    def test_bad_chunk_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.allocate_initial_placement(chunk_pages=0)

    def test_frame_accounting_consistent(self):
        kernel = make_kernel(fast_pages=64, slow_pages=256)
        procs = [make_process(pid=i, n_pages=50) for i in range(4)]
        for proc in procs:
            kernel.register_process(proc)
        kernel.allocate_initial_placement()
        fast_resident = sum(
            p.pages.count_in_tier(FAST_TIER) for p in procs
        )
        slow_resident = sum(
            p.pages.count_in_tier(SLOW_TIER) for p in procs
        )
        assert fast_resident == kernel.machine.fast.used_pages
        assert slow_resident == kernel.machine.slow.used_pages

    def test_watermark_reserve_does_not_count_as_capacity(self):
        """Placement never fills the fast tier's reserve below ``high``,
        so 199 pages on 100 + 100 frames would over-commit the slow
        tier (103 pages resident, 100 frames accounted): refused."""
        kernel = make_kernel(fast_pages=100, slow_pages=100)
        kernel.register_process(make_process(n_pages=199))
        with pytest.raises(MemoryError):
            kernel.allocate_initial_placement()
        assert kernel.machine.fast.used_pages == 0
        assert kernel.machine.slow.used_pages == 0

    def test_exactly_usable_capacity_fits(self):
        kernel = make_kernel(fast_pages=100, slow_pages=100)
        usable = 100 - kernel.watermarks.high_pages + 100
        process = make_process(n_pages=usable)
        kernel.register_process(process)
        kernel.allocate_initial_placement()
        assert kernel.machine.slow.used_pages == 100
        assert process.pages.count_in_tier(SLOW_TIER) == 100

    def test_placement_bumps_epoch_and_restarts_journal(self):
        """Caches taken before placement must recount, not replay."""
        kernel = make_kernel(fast_pages=100, slow_pages=400)
        process = make_process(n_pages=300)
        kernel.register_process(process)
        before = process.pages.epoch
        kernel.allocate_initial_placement()
        assert process.pages.epoch > before
        assert process.pages.moves_since(before) is None
        assert process.pages.moves_since(process.pages.epoch) == []

    @settings(deadline=None, max_examples=150)
    @given(
        sizes=st.lists(st.integers(0, 300), max_size=8),
        chunk_pages=st.integers(1, 100),
        fast_pages=st.integers(1, 600),
        slow_pages=st.integers(1, 1_500),
        fast_used_share=st.floats(0.0, 1.0),
    )
    def test_closed_form_matches_chunk_loop(
        self, sizes, chunk_pages, fast_pages, slow_pages, fast_used_share
    ):
        """Tier arrays and frame counts equal the chunk loop's, for
        fleets with zero-page processes and headroom at or below 0."""
        fast_used = int(fast_pages * fast_used_share)
        kernel = sized_kernel(sizes, fast_pages, slow_pages, fast_used)
        oracle = sized_kernel(sizes, fast_pages, slow_pages, fast_used)
        try:
            chunk_loop_placement(oracle, chunk_pages)
        except MemoryError:
            with pytest.raises(MemoryError):
                kernel.allocate_initial_placement(chunk_pages=chunk_pages)
            return
        kernel.allocate_initial_placement(chunk_pages=chunk_pages)
        for got, want in zip(kernel.processes, oracle.processes):
            np.testing.assert_array_equal(got.pages.tier, want.pages.tier)
        for got, want in zip(kernel.machine.tiers, oracle.machine.tiers):
            assert got.used_pages == want.used_pages
        resident = sum(p.pages.count_in_tier(SLOW_TIER)
                       for p in kernel.processes)
        assert resident == kernel.machine.slow.used_pages


class TestPolicyPlumbing:
    def test_set_policy_attaches(self, kernel):
        policy = RecordingPolicy()
        kernel.set_policy(policy)
        assert policy.attached is kernel

    def test_start_starts_policy(self, kernel):
        policy = RecordingPolicy()
        kernel.set_policy(policy)
        kernel.start()
        assert policy.started

    def test_start_idempotent(self, kernel):
        kernel.start()
        pending = len(kernel.scheduler)
        kernel.start()
        assert len(kernel.scheduler) == pending

    def test_deliver_faults_accounts_and_forwards(self, kernel):
        policy = RecordingPolicy()
        kernel.set_policy(policy)
        process = make_process()
        kernel.register_process(process)
        batch = FaultBatch(
            pid=process.pid,
            vpns=np.array([1, 2]),
            fault_ts_ns=np.array([10, 20]),
            cit_ns=np.array([5, 5]),
        )
        kernel.deliver_faults(process, batch)
        assert kernel.stats.hint_faults == 2
        assert process.stats.hint_faults == 2
        assert process.pending_kernel_ns > 0
        assert policy.faults == [(process.pid, 2)]

    def test_empty_fault_batch_is_noop(self, kernel):
        policy = RecordingPolicy()
        kernel.set_policy(policy)
        process = make_process()
        kernel.register_process(process)
        kernel.deliver_faults(process, FaultBatch.empty(process.pid))
        assert policy.faults == []


class TestAgingDaemon:
    def test_aging_fires_and_notifies_policy(self):
        kernel = make_kernel(aging_period_ns=SECOND)
        policy = RecordingPolicy()
        kernel.set_policy(policy)
        process = make_process()
        kernel.register_process(process)
        kernel.start()
        kernel.advance_to(2 * SECOND + 1)
        assert [pid for pid, _ in policy.ages] == [process.pid] * 2

    def test_aging_charges_kernel_time(self):
        kernel = make_kernel(aging_period_ns=SECOND)
        process = make_process()
        kernel.register_process(process)
        kernel.start()
        kernel.advance_to(SECOND + 1)
        assert kernel.stats.kernel_time_ns > 0


class TestAdvanceTo:
    def test_fires_events_in_time_order(self, kernel):
        fired = []
        kernel.scheduler.schedule(100, lambda t: fired.append(t))
        kernel.scheduler.schedule(50, lambda t: fired.append(t))
        kernel.advance_to(200)
        assert fired == [50, 100]
        assert kernel.clock.now == 200

    def test_clock_does_not_pass_target(self, kernel):
        kernel.scheduler.schedule(300, lambda t: None)
        kernel.advance_to(200)
        assert kernel.clock.now == 200
        assert len(kernel.scheduler) == 1
