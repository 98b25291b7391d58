"""Arena stepping: equivalence with the reference engine, and the
arena's segment mechanics.

The arena (``repro.harness.arena``) executes each quantum as one
batched array program over the concatenated fleet.  It draws faults
from one fleet-wide fault plan (the ``engine.arena`` RNG) where the
reference engine (``fast_path=False``) draws from per-process streams,
so the two are statistically equivalent (same laws), not bit for bit
(``docs/SIMULATION.md`` section 7).  Its bit-identity with its test
oracle is checked in ``tests/test_arena_step.py``.
"""

import numpy as np
import pytest

from repro.harness.arena import ProcessArena
from repro.harness.engine import QuantumEngine
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.obs import ObsHub
from repro.policies.base import TieringPolicy
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.process import SimProcess
from tests.arena_oracle import step_reference
from tests.conftest import make_kernel, make_process

#: every registered policy (the Table 1 roster): oracle bit-identity
#: and statistical equivalence with the reference engine must hold for
#: all of them
ALL_POLICIES = [
    "linux-nb",
    "autotiering",
    "tpp",
    "multiclock",
    "memtis",
    "telescope",
    "flexmem",
    "chrono",
    "nomad",
    "tierbpf",
    "arms",
    "jenga",
]


#: the registered policies that take NUMA hint faults (the others
#: sample through PEBS or reference bits and never fault)
HINT_FAULT_POLICIES = [
    "linux-nb",
    "autotiering",
    "tpp",
    "flexmem",
    "chrono",
    "nomad",
    "tierbpf",
    "arms",
    "jenga",
]

#: a contended regime: 4 x 1,024 pages against 1,024 fast pages, with
#: scans every 0.5 s so hint faults flow within the 2 s run
CONTENDED = dict(n_procs=4, fast_pages=1_024, scan_period_ns=SECOND // 2)


def run_policy(
    policy_name,
    n_procs=2,
    pages_per_proc=1024,
    fusion=False,
    obs=None,
    seed=0,
    fleet=None,
    fast_path=True,
    **setup_overrides,
):
    """One run on a pmbench fleet, or on ``fleet`` -- a
    ``(workload family, builder kwargs)`` pair -- when given; the
    arena by default, the reference engine with ``fast_path=False``."""
    setup = StandardSetup(
        duration_ns=2 * SECOND, seed=seed, **setup_overrides
    )
    policy = setup.build_policy(policy_name)
    workload, kwargs = fleet or (
        "pmbench", dict(n_procs=n_procs, pages_per_proc=pages_per_proc)
    )
    processes = build_fleet(setup, workload, **kwargs)
    return run_experiment(
        processes,
        policy,
        setup.run_config(fusion=fusion),
        obs=obs,
        fast_path=fast_path,
    )


def seed_means(runs):
    """Mean throughput and FMAR over a list of runs."""
    return (
        float(np.mean([r.throughput_per_sec for r in runs])),
        float(np.mean([r.fmar for r in runs])),
    )


class TestMultiProcessEquivalence:
    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_headline_metrics_agree(self, policy_name):
        """The arena draws faults from one aggregate stream and the
        reference engine from per-process ones, so trajectories diverge
        stochastically; headline metrics must agree within the natural
        spread across seeds."""
        arena = run_policy(policy_name, n_procs=4)
        reference = run_policy(policy_name, n_procs=4, fast_path=False)
        assert arena.throughput_per_sec == pytest.approx(
            reference.throughput_per_sec, rel=0.05
        )
        assert arena.fmar == pytest.approx(
            reference.fmar, rel=0.05, abs=1e-4
        )

    @pytest.mark.parametrize("policy_name", HINT_FAULT_POLICIES)
    def test_contended_fleet_agrees(self, policy_name):
        """A contended fleet (FMAR < 1) with live scans: the fault plan
        carries every hint fault, so this is where its law shows.
        Three-seed means must agree with the reference engine's within
        0.035 on throughput and 0.106 on FMAR, inside the reference's
        own widest three-seed range over these policies at this config
        (0.041 and 0.112, both flexmem)."""
        arena = [
            run_policy(policy_name, seed=seed, **CONTENDED)
            for seed in (0, 1, 2)
        ]
        reference = [
            run_policy(
                policy_name, seed=seed, fast_path=False, **CONTENDED
            )
            for seed in (0, 1, 2)
        ]
        for run in arena:
            assert run.fmar < 1.0
            assert run.stats["hint_faults"] > 0
        arena_tput, arena_fmar = seed_means(arena)
        ref_tput, ref_fmar = seed_means(reference)
        assert arena_tput == pytest.approx(ref_tput, rel=0.035)
        assert arena_fmar == pytest.approx(ref_fmar, rel=0.106)


#: fleets for the fusion composition check: the default two pmbench
#: processes, and eight multitenant tenants sharing two tables
FUSION_FLEETS = {
    "pmbench": None,
    "shared-tables": (
        "multitenant",
        dict(
            n_tenants=8,
            pages_per_tenant=256,
            delay_step_units=0,
            n_distinct=2,
        ),
    ),
}


class TestFusionComposition:
    @pytest.mark.parametrize("fleet", sorted(FUSION_FLEETS))
    def test_arena_fuses_and_stays_equivalent(self, fleet):
        """Fusion composes with the arena: the witness lives in the
        arena's per-segment epoch vectors, macro-quanta still engage,
        and the fused arena matches the per-quantum arena within the
        fusion tolerance."""
        hub = ObsHub.create(metrics=True)
        fleet = FUSION_FLEETS[fleet]
        fused = run_policy("memtis", fusion=True, obs=hub, fleet=fleet)
        stepped = run_policy("memtis", fusion=False, fleet=fleet)
        assert hub.snapshot()["counters"]["engine.fused_quanta"] > 0
        assert fused.throughput_per_sec == pytest.approx(
            stepped.throughput_per_sec, rel=0.02
        )
        assert fused.fmar == pytest.approx(
            stepped.fmar, rel=0.02, abs=1e-4
        )


class ZeroPageWorkload:
    """A process with no pages: empty distribution, nothing to access."""

    name = "zero"
    n_pages = 0
    write_fraction = 0.0
    delay_ns_per_access = 0.0

    def __init__(self):
        self._probs = np.zeros(0, dtype=np.float64)

    def access_distribution(self, now_ns=0):
        return self._probs

    def advance(self, now_ns):
        pass


def build_engine(processes, fast_pages=256, slow_pages=768):
    kernel = make_kernel(fast_pages=fast_pages, slow_pages=slow_pages)
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    return kernel, QuantumEngine(kernel, quantum_ns=10 * MILLISECOND)


class TestZeroPageSegment:
    def test_empty_segment_is_priced_to_zero(self):
        empty = SimProcess(
            pid=1,
            workload=ZeroPageWorkload(),
            rng=RngStreams(0).spawn("zero").get("access"),
        )
        busy = make_process(pid=2, n_pages=64)
        _, engine = build_engine([empty, busy])
        engine.run(SECOND)
        assert empty.stats.accesses == 0.0
        assert busy.stats.accesses > 0.0

    def test_all_empty_arena_runs(self):
        empty = SimProcess(
            pid=1,
            workload=ZeroPageWorkload(),
            rng=RngStreams(0).spawn("zero").get("access"),
        )
        _, engine = build_engine([empty])
        end = engine.run(SECOND)
        assert end == SECOND
        assert empty.stats.accesses == 0.0


class TestSegmentRetirement:
    def test_finished_process_is_retired_mid_run(self):
        """A process hitting its access target mid-run is marked
        finished, drops out of the hot-loop rows, and stops
        accumulating while the rest of the fleet keeps running."""
        quick = make_process(pid=1, n_pages=64)
        steady = make_process(pid=2, n_pages=64)
        quick.target_accesses = 1_000.0
        _, engine = build_engine([quick, steady])
        engine.run(SECOND)
        assert quick.finished
        assert not steady.finished
        # Overshoots by at most the quantum it finished in, then stops
        # accumulating while the steady process runs the full second.
        assert quick.stats.accesses >= quick.target_accesses
        assert quick.stats.accesses < steady.stats.accesses / 10
        # The live row set no longer carries the finished segment.
        rows = engine._arena._rows if engine._arena else []
        assert all(row[1] is not quick for row in rows)

    def test_finished_process_stays_retired_across_runs(self):
        """Each ``run`` builds a fresh arena; one built over a process
        that already finished retires it up front and runs the rest."""
        quick = make_process(pid=1, n_pages=64)
        steady = make_process(pid=2, n_pages=64)
        quick.target_accesses = 1_000.0
        _, engine = build_engine([quick, steady])
        engine.run(SECOND)
        assert quick.finished
        done, steady_before = quick.stats.accesses, steady.stats.accesses
        engine.run(SECOND)
        assert quick.stats.accesses == done
        assert steady.stats.accesses > steady_before

    def test_retirement_matches_reference_mode(self, monkeypatch):
        """A one-process arena stops its fixed-work process where the
        test oracle's step does, to the last bit."""
        results = []
        for oracle in (False, True):
            if oracle:
                monkeypatch.setattr(ProcessArena, "step", step_reference)
            quick = make_process(pid=1, n_pages=64)
            quick.target_accesses = 1_000.0
            _, engine = build_engine([quick])
            engine.run(SECOND)
            assert quick.finished
            results.append(quick.stats.accesses)
        assert results[0] == results[1]


class TestLedgerLaziness:
    def test_open_run_drains_on_first_counter_read(self):
        """The arena accumulates each segment's ledger share in the
        concatenated open run; a segment drains into its PageState
        only when a consumer reads the counters."""
        process = make_process(pid=1, n_pages=64)
        _, engine = build_engine([process])
        demand = engine._arena_step(0, 10 * MILLISECOND)
        assert demand.shape == (2,)
        arena = engine._arena
        assert arena.open_n[0] > 0.0
        assert process.pages.has_pending_accesses
        expected = float(arena.open_n[0])
        counts = process.pages.access_count
        assert arena.open_n[0] == 0.0
        assert counts.sum() == pytest.approx(expected)

    def test_detach_drains_and_unhooks(self):
        """Detaching closes the arena's open run into the PageState's
        own pending ledger (still lazy there) and unhooks the ledger
        source, so counters stay readable after the arena is gone."""
        process = make_process(pid=1, n_pages=64)
        _, engine = build_engine([process])
        engine._arena_step(0, 10 * MILLISECOND)
        arena = engine._arena
        expected = float(arena.open_n[0])
        arena.detach()
        assert arena.open_n[0] == 0.0
        assert process.pages.access_count.sum() == pytest.approx(expected)
        assert not process.pages.has_pending_accesses


class _NoHookPolicy(TieringPolicy):
    name = "no-hook"

    def _configure(self, kernel):
        pass


class _HookPolicy(TieringPolicy):
    name = "hook"

    def __init__(self):
        super().__init__()
        self.calls = 0

    def _configure(self, kernel):
        pass

    def on_quantum(self, process, probs, n_accesses, start_ns, quantum_ns):
        self.calls += 1


class TestPolicyHookSkip:
    def test_base_no_op_hook_is_skipped(self):
        process = make_process(pid=1, n_pages=64)
        kernel, engine = build_engine([process])
        kernel.set_policy(_NoHookPolicy())
        engine._arena_step(0, 10 * MILLISECOND)
        assert engine._arena._resolve_policy_hook(kernel.policy) is None

    def test_overridden_hook_is_called_per_live_segment(self):
        process = make_process(pid=1, n_pages=64)
        kernel, engine = build_engine([process])
        policy = _HookPolicy()
        kernel.set_policy(policy)
        engine._arena_step(0, 10 * MILLISECOND)
        engine._arena_step(10 * MILLISECOND, 10 * MILLISECOND)
        assert policy.calls == 2


class TestWorkloadContract:
    def test_profile_scalars_refresh_on_distribution_swap(self):
        """A workload that changes its write fraction must swap its
        distribution object (the identity contract); the arena picks
        the new scalars up on the swap."""
        process = make_process(pid=1, n_pages=64)
        _, engine = build_engine([process])
        engine._arena_step(0, 10 * MILLISECOND)
        arena = engine._arena
        workload = process.workload
        workload.write_fraction = 0.75
        workload._probs = workload._probs.copy()  # new identity
        engine._arena_step(10 * MILLISECOND, 10 * MILLISECOND)
        assert arena._wf[0] == 0.75
