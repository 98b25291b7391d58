"""One hint-fault delivery per quantum, held to its per-process oracle.

The arena resolves every touched page of a quantum in one pass over the
kernel's page table, which every ``PageState``'s fields are slices of,
then hands the kernel one :class:`~repro.vm.fault.FleetFaults`; the
kernel books it per process and makes one ``policy.on_faults`` call.
That is exact under the fault-hook contract of ``TieringPolicy``:

* end to end, every registered policy run with the segment-by-segment
  resolve and delivery of ``tests/arena_oracle.py`` installed follows
  the production trajectory exactly, ``fault.batch`` events included;
* Linux-NB's ``on_faults``, which hands only the tenants that can
  still promote to its ``on_fault`` and books the other drops in bulk,
  equals its per-process rule applied tenant by tenant (kept here as
  ``linux_nb_on_fault``), on hand-built fleets that reach each branch
  of the rule;
* the kernel records the one arena that steps it: a second arena over
  the same kernel reads the same table without copying it, and the
  first then refuses to step.

Also checked here: the kernel's fleet delivery and the dynamic-row
calendar.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.arena import FaultPlan, ProcessArena
from repro.harness.engine import QuantumEngine
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.obs.hub import ObsHub
from repro.policies.linux_nb import LinuxNUMABalancing
from repro.policies.registry import policy_names
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.fault import FaultBatch, FleetFaults
from repro.vm.page_state import PageTable
from repro.vm.process import SimProcess
from repro.workloads.base import TraceWorkload
from tests.arena_oracle import resolve_reference
from tests.conftest import make_kernel, make_process


class _FaultEvents:
    """A tracer that keeps only the ``fault.batch`` events."""

    def __init__(self):
        self.events = []

    def emit(self, type_, t, **fields):
        if type_ == "fault.batch":
            self.events.append((
                t,
                fields["pid"],
                fields["n_faults"],
                fields["vpns"].tolist(),
                fields["fault_ts_ns"].tolist(),
                fields["cit_ns"].tolist(),
            ))


def _contended_run(policy_name):
    """``TestPolicyTransientOracle``'s contended fleet: 16 x 256 pmbench
    pages over a 1,024-page fast tier, half-second scans, 2 s."""
    setup = StandardSetup(
        duration_ns=2 * SECOND,
        fast_pages=1_024,
        scan_period_ns=SECOND // 2,
    )
    policy = setup.build_policy(policy_name)
    processes = build_fleet(
        setup, "pmbench", n_procs=16, pages_per_proc=256
    )
    events = _FaultEvents()
    result = run_experiment(
        processes, policy, setup.run_config(), obs=ObsHub(tracer=events)
    )
    return result, events.events


class TestResolveOracle:
    @pytest.mark.parametrize("policy_name", policy_names())
    def test_one_delivery_matches_per_segment_delivery(
        self, policy_name, monkeypatch
    ):
        fleet_run, fleet_events = _contended_run(policy_name)
        with monkeypatch.context() as patch:
            patch.setattr(FaultPlan, "_resolve", resolve_reference)
            oracle_run, oracle_events = _contended_run(policy_name)

        assert (
            fleet_run.throughput_per_sec == oracle_run.throughput_per_sec
        )
        assert fleet_run.fmar == oracle_run.fmar
        assert (
            fleet_run.latency_summary["p99"]
            == oracle_run.latency_summary["p99"]
        )
        assert fleet_run.stats == oracle_run.stats
        assert fleet_events == oracle_events
        if fleet_run.kernel.scanner is not None:
            # Coverage: quanta in which several processes faulted.
            steps = [t for t, *_ in fleet_events]
            assert len(steps) > len(set(steps))


# ---------------------------------------------------------------------------
# Linux-NB: one pass against the per-process rule
# ---------------------------------------------------------------------------
def linux_nb_on_fault(policy, process, batch):
    """Linux-NB's per-process rule: promote every rate-limited
    slow-tier fault, capped by the fast tier's free pages."""
    kernel = policy.kernel
    vpns = batch.vpns
    slow = vpns[process.pages.tier[vpns] == SLOW_TIER]
    if slow.size == 0:
        return
    budget = policy.rate_limiter.grant(int(slow.size), kernel.clock.now)
    budget = min(budget, kernel.machine.fast.free_pages)
    if budget < slow.size:
        kernel.stats.promotion_dropped += int(slow.size) - max(budget, 0)
    if budget <= 0:
        return
    if budget < slow.size:
        slow = process.rng.permutation(slow)[:budget]
    kernel.migration.promote(process, slow)


def fleet_faults(processes, faulted):
    """A fleet delivery of ``faulted`` (one vpn list per process,
    empty for processes that did not fault), indexing the page table
    the processes share as an arena's delivery does."""
    table = processes[0].pages.table
    assert all(p.pages.table is table for p in processes)
    listed = [(p, v) for p, v in zip(processes, faulted) if len(v)]
    vpns = [np.asarray(v, dtype=np.int64) for _, v in listed]
    index = [
        table.starts[p.pages.seg] + v for (p, _), v in zip(listed, vpns)
    ]
    n = np.array([v.size for v in vpns], dtype=np.int64)
    flat = np.concatenate(vpns)
    return FleetFaults(
        processes=[p for p, _ in listed],
        bounds=np.r_[0, np.cumsum(n)],
        vpns=flat,
        fault_ts_ns=np.full(flat.size, 1_000, dtype=np.int64),
        cit_ns=np.full(flat.size, 100, dtype=np.int64),
        table=table,
        index=np.concatenate(index),
    )


def twin_linux_nb(n_procs, rate_mbps, fast_pages=256, n_pages=128,
                  fill_fast=0):
    """A Linux-NB kernel over ``n_procs`` processes of 128 pages: at
    four or more, half of each process is on the slow tier and the fast
    tier keeps its 10-page watermark reserve free, of which
    ``fill_fast`` frames are then taken."""
    kernel = make_kernel(fast_pages=fast_pages, slow_pages=2_048)
    processes = [
        make_process(pid=k + 1, n_pages=n_pages, seed=k)
        for k in range(n_procs)
    ]
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    policy = LinuxNUMABalancing(
        scan_period_ns=SECOND, promote_rate_limit_mbps=rate_mbps
    )
    kernel.set_policy(policy)
    kernel.machine.fast.allocate(fill_fast)
    kernel.clock.advance(SECOND)
    return kernel, policy, processes


def linux_nb_state(kernel, policy, processes):
    limiter = policy.rate_limiter
    return (
        [p.pages.tier.tolist() for p in processes],
        kernel.stats.snapshot(),
        [vars(p.stats).copy() for p in processes],
        [p.pending_kernel_ns for p in processes],
        kernel.machine.fast.free_pages,
        (limiter._tokens, limiter._last_ns),
        # RNG positions: the next draw of every process's stream.
        [float(p.rng.random()) for p in processes],
    )


def slow_picks(processes, counts, fast_counts=None):
    """Per process: its first ``counts[k]`` slow pages plus its first
    ``fast_counts[k]`` fast pages, sorted."""
    fast_counts = fast_counts or [0] * len(processes)
    picks = []
    for process, n_slow, n_fast in zip(processes, counts, fast_counts):
        pages = process.pages
        vpns = np.r_[
            pages.pages_in_tier(SLOW_TIER)[:n_slow],
            pages.pages_in_tier(FAST_TIER)[:n_fast],
        ]
        picks.append(np.sort(vpns).tolist())
    return picks


class TestLinuxNBOnFaults:
    CASES = {
        # 0.02 MB/s at scale 1 is ~4.9 pages per second of budget: the
        # first tenant empties the bucket.
        "bucket-dry-after-first": dict(
            rate_mbps=0.02, counts=[20, 6, 9, 4]
        ),
        # A budget below the slow-page count: the permutation path.
        "budget-below-slow-count": dict(
            rate_mbps=0.05, counts=[5, 30, 8, 2]
        ),
        # Plenty of tokens, few free fast frames.
        "free-pages-below-grant": dict(
            rate_mbps=1_000.0, counts=[10, 12, 7, 1], fill_fast=6
        ),
        # Tenants whose faults all land on the fast tier.
        "fast-tier-tenants": dict(
            rate_mbps=1.0, counts=[0, 5, 0, 3], fast_counts=[4, 2, 6, 0]
        ),
    }

    def _twins(self, rate_mbps, counts, fast_counts=None, fill_fast=0):
        out = []
        for _ in range(2):
            kernel, policy, processes = twin_linux_nb(
                len(counts), rate_mbps, fill_fast=fill_fast
            )
            picks = slow_picks(processes, counts, fast_counts)
            out.append((kernel, policy, processes, picks))
        return out

    #: tenants that reach ``on_fault``: only those that can promote
    ON_FAULT_CALLS = {
        "bucket-dry-after-first": 1,
        "budget-below-slow-count": 2,
        "free-pages-below-grant": 1,
        "fast-tier-tenants": 2,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fleet_pass_matches_per_process_rule(self, case):
        params = self.CASES[case]
        (k1, p1, procs1, picks), (k2, p2, procs2, _) = self._twins(
            **params
        )
        calls = self._deliver_both(p1, procs1, p2, procs2, picks)
        assert linux_nb_state(k1, p1, procs1) == linux_nb_state(
            k2, p2, procs2
        )
        assert calls == self.ON_FAULT_CALLS[case]
        self._check_coverage(case, k2, params)

    @staticmethod
    def _deliver_both(p1, procs1, p2, procs2, picks):
        """One ``on_faults`` call on one twin, the per-process rule
        tenant by tenant on the other; how often the first twin's
        ``on_fault`` ran."""
        calls = []
        on_fault = p1.on_fault
        p1.on_fault = lambda *args: calls.append(on_fault(*args))
        p1.on_faults(fleet_faults(procs1, picks))
        for process, vpns in zip(procs2, picks):
            if vpns:
                batch = FaultBatch(
                    process.pid,
                    np.asarray(vpns, dtype=np.int64),
                    np.full(len(vpns), 1_000, dtype=np.int64),
                    np.full(len(vpns), 100, dtype=np.int64),
                )
                linux_nb_on_fault(p2, process, batch)
        return len(calls)

    @staticmethod
    def _check_coverage(case, kernel, params):
        stats = kernel.stats
        if case == "bucket-dry-after-first":
            assert 0 < stats.pgpromote < params["counts"][0]
            assert stats.promotion_dropped >= sum(params["counts"][1:])
            assert kernel.machine.fast.free_pages > 0
        elif case == "budget-below-slow-count":
            assert params["counts"][0] < stats.pgpromote
            assert stats.pgpromote < sum(params["counts"][:2])
        elif case == "free-pages-below-grant":
            assert kernel.machine.fast.free_pages == 0
            assert stats.promotion_dropped > 0
        else:
            assert stats.pgpromote == sum(params["counts"])

    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 4)),
            min_size=4, max_size=6,
        ),
        st.sampled_from([0.02, 0.1, 1.0]),
        st.integers(0, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_fleets_match_per_process_rule(
        self, shape, rate_mbps, fill_fast
    ):
        counts = [s for s, _ in shape]
        fast_counts = [f for _, f in shape]
        (k1, p1, procs1, picks), (k2, p2, procs2, _) = self._twins(
            rate_mbps, counts, fast_counts, fill_fast
        )
        if not any(picks):
            return
        self._deliver_both(p1, procs1, p2, procs2, picks)
        assert linux_nb_state(k1, p1, procs1) == linux_nb_state(
            k2, p2, procs2
        )


# ---------------------------------------------------------------------------
# The arena on the kernel's page table
# ---------------------------------------------------------------------------
class TestFleetArrays:
    @staticmethod
    def _fleet():
        kernel = make_kernel(fast_pages=128, slow_pages=1_024)
        processes = [make_process(pid=k + 1, n_pages=96) for k in range(3)]
        for process in processes:
            kernel.register_process(process)
        kernel.allocate_initial_placement()
        return kernel, processes

    FIELDS = ("tier", "prot_none", "scan_ts_ns", "accessed")

    def test_the_arena_reads_the_page_table_in_place(self):
        kernel, processes = self._fleet()
        processes[1].pages.protect(np.array([3, 5]), now_ns=7)
        arena = ProcessArena(QuantumEngine(kernel))
        table = arena.table
        assert table is kernel.page_table
        for process in processes:
            for field in self.FIELDS:
                assert np.shares_memory(
                    getattr(process.pages, field), getattr(table, field)
                )
        # Writes through either side show on the other.
        processes[2].pages.move_to_tier(np.array([0]), SLOW_TIER)
        assert table.tier[arena.seg_starts[2]] == SLOW_TIER
        table.accessed[arena.seg_starts[1] + 4] = True
        assert processes[1].pages.accessed[4]

    def test_one_resolve_pass_and_one_delivery(self):
        """A quantum long enough to touch every protected page: one
        delivery names every page of every process, each unprotected
        and accessed, with its CIT against its own scan stamp."""
        kernel, processes = self._fleet()
        policy = _Recorder()
        kernel.set_policy(policy)
        for k, process in enumerate(processes):
            process.pages.protect(np.arange(k, 96, 3), now_ns=k)
        epochs = [p.pages.protect_epoch for p in processes]
        arena = ProcessArena(QuantumEngine(kernel))
        arena.step(0, SECOND)
        [delivery] = policy.calls
        assert [pid for pid, *_ in delivery] == [1, 2, 3]
        for (pid, vpns, cits, fault_ts), process, k, epoch in zip(
            delivery, processes, range(3), epochs
        ):
            pages = process.pages
            assert vpns == list(range(k, 96, 3))
            assert pages.accessed[vpns].all()
            assert not pages.prot_none.any()
            assert pages.n_protected == 0
            assert pages.protect_epoch == epoch + 1
            assert cits == [t - k for t in fault_ts]

    def test_second_arena_copies_nothing_and_supersedes_the_first(self):
        """The superseded arena refuses to step and the newer one steps
        (the full check lives in ``tests/test_page_table.py``)."""
        kernel, _ = self._fleet()
        first = ProcessArena(QuantumEngine(kernel))
        first.step(0, 10 * MILLISECOND)
        second = ProcessArena(QuantumEngine(kernel))
        assert second.table is first.table
        with pytest.raises(RuntimeError, match="later arena"):
            first.step(10 * MILLISECOND, 10 * MILLISECOND)
        second.step(10 * MILLISECOND, 10 * MILLISECOND)

    def test_detached_arena_refuses_to_step(self):
        kernel, _ = self._fleet()
        arena = ProcessArena(QuantumEngine(kernel))
        arena.detach()
        with pytest.raises(RuntimeError):
            arena.step(0, 10 * MILLISECOND)


# ---------------------------------------------------------------------------
# The kernel's fleet delivery
# ---------------------------------------------------------------------------
class _Recorder:
    name = "recorder"

    def __init__(self):
        self.calls = []

    def attach(self, kernel):
        pass

    def on_faults(self, faults):
        self.calls.append([
            (p.pid, b.vpns.tolist(), b.cit_ns.tolist(),
             b.fault_ts_ns.tolist())
            for p, b in faults.batches()
        ])


class TestDeliverFaults:
    def test_books_per_process_and_calls_the_policy_once(self):
        kernel = make_kernel()
        policy = _Recorder()
        kernel.set_policy(policy)
        processes = [make_process(pid=k + 1) for k in range(3)]
        for process in processes:
            kernel.register_process(process)
        kernel.page_table  # binds the registered processes
        faults = fleet_faults(processes, [[1, 2], [], [0, 5, 9]])
        kernel.deliver_faults(faults)
        cost = kernel.machine.spec.effective_fault_cost_ns
        assert [p.stats.hint_faults for p in processes] == [2, 0, 3]
        assert [p.pending_kernel_ns for p in processes] == [
            2 * cost, 0.0, 3 * cost
        ]
        assert kernel.stats.hint_faults == 5
        assert kernel.stats.context_switches == 5
        assert kernel.stats.kernel_time_ns == 5 * cost
        assert [
            [(pid, vpns) for pid, vpns, *_ in call]
            for call in policy.calls
        ] == [[(1, [1, 2]), (3, [0, 5, 9])]]

    def test_fleet_tiers_read_through_the_page_table(self):
        processes = [make_process(pid=k + 1) for k in range(2)]
        PageTable([p.pages for p in processes])
        faults = fleet_faults(processes, [[3], [4, 7]])
        processes[1].pages.move_to_tier(np.array([7]), FAST_TIER)
        assert faults.tiers().tolist() == [
            int(processes[0].pages.tier[3]),
            int(processes[1].pages.tier[4]),
            FAST_TIER,
        ]
        assert faults.counts() == [1, 2]

    def test_single_process_delivery(self):
        process = make_process()
        batch = FaultBatch(
            process.pid, np.array([2, 8]), np.array([5, 6]),
            np.array([1, -1]),
        )
        faults = FleetFaults.single(process, batch)
        [(got_process, got)] = list(faults.batches())
        assert got_process is process
        assert got.vpns.tolist() == [2, 8]
        assert got.cit_ns.tolist() == [1, -1]
        empty = FleetFaults.single(process, FaultBatch.empty(process.pid))
        assert empty.n_faults == 0 and empty.processes == []


# ---------------------------------------------------------------------------
# The dynamic-row calendar
# ---------------------------------------------------------------------------
class TestRowCalendar:
    @pytest.mark.parametrize("fusion", [False, True])
    def test_dynamic_rows_are_visited_only_when_due(self, fusion):
        """A phase shifter is advanced once per phase, a stationary
        table never, and a duck-typed row every quantum -- with fusion
        on too: the fusion horizon reads the calendar and calls no
        workload (the duck-typed row holds every step to one
        quantum)."""
        calls = {"shifter": 0, "duck": 0}

        class CountingShifter(TraceWorkload):
            def advance(self, now_ns):
                calls["shifter"] += 1
                super().advance(now_ns)

        kernel = make_kernel(
            fast_pages=512, slow_pages=1_024, aging_period_ns=1000 * SECOND
        )
        shifter = CountingShifter(
            [(100 * MILLISECOND, np.arange(1.0, 65.0)),
             (100 * MILLISECOND, np.arange(64.0, 0.0, -1.0))]
        )
        duck = make_process(pid=2)
        duck_advance = duck.workload.advance

        def counted(now_ns):
            calls["duck"] += 1
            duck_advance(now_ns)

        duck.workload.advance = counted
        kernel.register_process(
            SimProcess(pid=1, workload=shifter, rng=make_process(pid=1).rng)
        )
        kernel.register_process(duck)
        kernel.allocate_initial_placement()
        engine = QuantumEngine(
            kernel, quantum_ns=10 * MILLISECOND, fusion=fusion
        )
        engine.run(SECOND)
        assert engine.steps_run == 100
        assert calls["duck"] == 100
        # The first step and the nine phase boundaries inside the run.
        assert calls["shifter"] == 10
