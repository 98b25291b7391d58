"""The one arena step against its test oracle and the reference engine.

``ProcessArena.step`` (``repro.harness.arena``, docs/SIMULATION.md
section 7) gathers over the page table's per-segment vectors, visits
only the rows its calendar says are due, prices every row in one fold
and caches steady-state quanta.  Its contract:

1. it executes the same IEEE-754 operations and consumes the same RNG
   stream as the test oracle (``tests/arena_oracle.py``, a per-segment
   step that recomputes everything every quantum), so trajectories are
   bit-identical on every fleet -- one tenant alone, distinct delays,
   distinct tables and shared tables, contended or not, for every
   registered policy, with the steady-state cache serving steps on the
   uncontended ones;
2. a fault-path mass repair made after pricing hands the next step a
   fresh pricing: the cache flag that only pricing arms stays down, so
   even a step with no other change reprices (the hand-off case, at
   constant latencies and no kernel charge);
3. on shared-table fleets, contended included, the default engine
   agrees with the reference engine (``fast_path=False``) within the
   reference's own seed spread.
"""

import numpy as np
import pytest

from repro.harness.arena import NEVER, ProcessArena
from repro.harness.engine import QuantumEngine
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.kernel.kernel import Kernel
from repro.mem.machine import MachineSpec, TieredMachine
from repro.mem.tier import SLOW_TIER, dram_spec, optane_spec
from repro.obs import ObsHub
from repro.policies.base import TieringPolicy
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.workloads.multitenant import make_multitenant_processes
from tests.arena_oracle import step_reference
from tests.conftest import make_kernel
from tests.test_harness_arena import (
    ALL_POLICIES,
    HINT_FAULT_POLICIES,
    seed_means,
)

#: a contended regime: 8 x 256 tenant pages against 512 fast pages,
#: with scans every 0.5 s so hint faults flow within the 2 s run
CONTENDED = dict(
    n_tenants=8, fast_pages=512, scan_period_ns=SECOND // 2
)

#: fleet shapes for the oracle bit-identity checks: one tenant alone,
#: one shared table at distinct delays, and eight tenants sharing two
#: tables at one delay
FLEETS = {
    "one-tenant": dict(n_tenants=1),
    "distinct-delays": dict(delay_step_units=1),
    "shared-tables": dict(n_tenants=8, delay_step_units=0, n_distinct=2),
}

#: the contended fleet shapes: the multi-tenant ones under
#: ``CONTENDED``, and one tenant of 1,024 pages against 512 fast pages
#: (scans every 0.5 s)
CONTENDED_FLEETS = {
    "distinct-delays": dict(FLEETS["distinct-delays"], **CONTENDED),
    "shared-tables": dict(FLEETS["shared-tables"], **CONTENDED),
    "one-tenant": dict(
        n_tenants=1, pages=1_024, fast_pages=512,
        scan_period_ns=SECOND // 2,
    ),
}


def run_multitenant(
    policy_name,
    n_tenants=4,
    pages=256,
    delay_step_units=1,
    n_distinct=1,
    fusion=False,
    seed=0,
    obs=None,
    fast_path=True,
    **setup_overrides,
):
    """One multitenant run: the arena by default, the reference engine
    with ``fast_path=False``."""
    setup = StandardSetup(
        duration_ns=2 * SECOND, seed=seed, **setup_overrides
    )
    policy = setup.build_policy(policy_name)
    processes = build_fleet(
        setup,
        "multitenant",
        n_tenants=n_tenants,
        pages_per_tenant=pages,
        delay_step_units=delay_step_units,
        n_distinct=n_distinct,
    )
    return run_experiment(
        processes,
        policy,
        setup.run_config(fusion=fusion),
        obs=obs,
        fast_path=fast_path,
    )


def run_oracle(policy_name, **kwargs):
    """The same run with the test oracle installed as the arena step."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessArena, "step", step_reference)
        return run_multitenant(policy_name, **kwargs)


def fingerprint(result):
    return (
        result.throughput_per_sec,
        result.fmar,
        result.latency_summary,
        result.stats,
    )


#: policies the steady-state cache serves no step of some uncontended
#: fleet: Telescope charges kernel time every quantum, and under Chrono
#: and AutoTiering the contended tier latencies move at every step of
#: the shared-table fleet's 2 s run
RESTLESS_POLICIES = ("autotiering", "chrono", "telescope")


class TestOracleBitIdentity:
    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_uncontended_fleet_matches_oracle_exactly(
        self, policy_name, fleet
    ):
        """Shared tables and distinct delays alike: every segment
        prices from its own tier-mass row, so the step reproduces the
        oracle bit for bit -- on the steps the steady-state cache
        serves too."""
        hub = ObsHub.create(metrics=True)
        step = run_multitenant(policy_name, obs=hub, **FLEETS[fleet])
        oracle = run_oracle(policy_name, **FLEETS[fleet])
        assert fingerprint(step) == fingerprint(oracle)
        if policy_name not in RESTLESS_POLICIES:
            assert hub.snapshot()["counters"]["arena.cached_steps"] > 0

    def test_distinct_tables_match_oracle_exactly(self):
        """All-distinct tables (one stride per tenant)."""
        step = run_multitenant(
            "chrono", delay_step_units=0, n_distinct=4
        )
        oracle = run_oracle("chrono", delay_step_units=0, n_distinct=4)
        assert fingerprint(step) == fingerprint(oracle)

    @pytest.mark.parametrize("fleet", sorted(CONTENDED_FLEETS))
    @pytest.mark.parametrize("policy_name", HINT_FAULT_POLICIES)
    def test_contended_fleet_matches_oracle_exactly(
        self, policy_name, fleet
    ):
        """The contended regime, where placements diverge across
        tenants and hint faults flow through the fault plan -- one
        tenant alone included: still bit for bit."""
        kwargs = CONTENDED_FLEETS[fleet]
        step = run_multitenant(policy_name, **kwargs)
        oracle = run_oracle(policy_name, **kwargs)
        assert step.fmar < 1.0
        assert step.stats["hint_faults"] > 0
        assert fingerprint(step) == fingerprint(oracle)


class TestReferenceEquivalence:
    @pytest.mark.parametrize(
        "policy_name", ["linux-nb", "memtis", "chrono"]
    )
    def test_shared_tables_agree(self, policy_name):
        """Eight tenants sharing two tables at one delay, uncontended
        (the fleet fits in the fast tier): the default engine matches
        the reference engine's headline metrics."""
        kwargs = dict(n_tenants=8, delay_step_units=0, n_distinct=2)
        default = run_multitenant(policy_name, **kwargs)
        reference = run_multitenant(
            policy_name, fast_path=False, **kwargs
        )
        assert default.throughput_per_sec == pytest.approx(
            reference.throughput_per_sec, rel=0.05
        )
        assert default.fmar == pytest.approx(
            reference.fmar, rel=0.05, abs=1e-4
        )

    @pytest.mark.parametrize("policy_name", ["linux-nb", "chrono", "tpp"])
    def test_contended_shared_tables_agree(self, policy_name):
        """The same shared-table fleet contended (FMAR < 1, hint faults
        flowing), where tenants on one table diverge in placement.
        Three-seed means of the default engine must agree with the
        reference engine's within the reference's own widest
        three-seed range at this config: 0.021 on throughput and 0.048
        on FMAR (both linux-nb)."""
        kwargs = dict(delay_step_units=0, n_distinct=2, **CONTENDED)
        runs = {
            fast_path: [
                run_multitenant(
                    policy_name, fast_path=fast_path, seed=seed, **kwargs
                )
                for seed in (0, 1, 2)
            ]
            for fast_path in (True, False)
        }
        for run in runs[True]:
            assert run.fmar < 1.0
            assert run.stats["hint_faults"] > 0
        default_tput, default_fmar = seed_means(runs[True])
        ref_tput, ref_fmar = seed_means(runs[False])
        assert default_tput == pytest.approx(ref_tput, rel=0.021)
        assert default_fmar == pytest.approx(ref_fmar, rel=0.048)


def build_arena_engine(n_tenants=4, pages=64, delay_step_units=0):
    pairs = make_multitenant_processes(
        n_tenants=n_tenants,
        pages_per_tenant=pages,
        delay_step_units=delay_step_units,
    )
    processes = [process for process, _cgroup in pairs]
    kernel = make_kernel()
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    engine = QuantumEngine(kernel, quantum_ns=10 * MILLISECOND)
    return kernel, engine, processes


class TestSteadyStateCache:
    def test_steady_quanta_are_served_by_the_cache(self):
        """The first step prices and folds from scratch; with no input
        changing after it, every later step is served by the cache."""
        _, engine, _ = build_arena_engine(n_tenants=4)
        served = []
        for step in range(4):
            engine._arena_step(step * 10 * MILLISECOND, 10 * MILLISECOND)
            served.append(engine._arena.cached_step)
        assert served == [False, True, True, True]

    def test_static_rows_are_never_due(self):
        """Stationary pmbench tenants are static rows: the calendar
        never sends them through the per-row ``advance`` loop."""
        _, engine, _ = build_arena_engine(n_tenants=4)
        engine._arena_step(0, 10 * MILLISECOND)
        arena = engine._arena
        assert (arena._due_ns == NEVER).all()
        assert arena._next_due_ns == NEVER

    def test_steady_state_cache_arms_and_survives_mass_changes(self):
        """Quanta with no input change keep the steady-state cache
        armed; an external page move is repaired and repriced in one
        quantum, which pricing re-arms (the cache may never serve stale
        vectors)."""
        _, engine, processes = build_arena_engine(n_tenants=4)
        for step in range(3):
            engine._arena_step(step * 10 * MILLISECOND, 10 * MILLISECOND)
        arena = engine._arena
        assert arena._ss_valid and arena.cached_step
        fast_before = arena.mass[0, 0]
        n_before = arena._n.copy()
        processes[0].pages.move_to_tier(np.array([0, 1]), 1)
        engine._arena_step(30 * MILLISECOND, 10 * MILLISECOND)
        # The move invalidated the cache, forced a repair and a
        # reprice, and pricing re-armed it.
        assert not arena.cached_step
        assert arena._ss_valid
        assert arena.mass[0, 0] < fast_before
        assert arena._n[0] < n_before[0]
        assert (arena._n[1:] == n_before[1:]).all()
        engine._arena_step(40 * MILLISECOND, 10 * MILLISECOND)
        assert arena.cached_step

    def test_refilled_budget_reprices_the_access_count(self):
        """A quantum that drained kernel debt runs on a cut budget; the
        next quantum refills it and must not reuse the cut ``n``."""
        _, engine, processes = build_arena_engine(n_tenants=2)
        for step in range(3):
            engine._arena_step(step * 10 * MILLISECOND, 10 * MILLISECOND)
        arena = engine._arena
        full = arena._n.copy()
        processes[0].charge_kernel(5 * MILLISECOND)
        engine._arena_step(30 * MILLISECOND, 10 * MILLISECOND)
        assert arena._n[0] < full[0]
        engine._arena_step(40 * MILLISECOND, 10 * MILLISECOND)
        assert arena._n[0] == full[0]


class _DemoteOnFault(TieringPolicy):
    """Moves every faulted page to the slow tier inside ``on_faults``:
    a fault-path mass change that charges no kernel time and puts no
    bytes on the migration path."""

    name = "demote-on-fault"

    def _configure(self, kernel):
        pass

    def on_faults(self, faults):
        for process, batch in faults.batches():
            process.pages.move_to_tier(batch.vpns, SLOW_TIER)


def hand_off_trace(step=None):
    """Twelve 10 ms arena steps of four tenants under
    ``_DemoteOnFault``, with ``step`` installed as the arena step when
    given.  The engine is stepped directly, so the tier latencies stay
    constant and no timer fires; every page is protected before every
    third step and a hint fault costs nothing, so a fault-path repair
    is the only input that moves.  Returns the per-step vectors and
    cache routes, and the final latency store."""
    spec = MachineSpec(
        tiers=(dram_spec(512), optane_spec(512)), page_fault_cost_ns=0
    )
    kernel = Kernel(machine=TieredMachine(spec), rng=RngStreams(0))
    processes = [
        process
        for process, _cgroup in make_multitenant_processes(
            n_tenants=4, pages_per_tenant=64, delay_step_units=1
        )
    ]
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    kernel.set_policy(_DemoteOnFault())
    engine = QuantumEngine(kernel, quantum_ns=10 * MILLISECOND)
    vectors, routes = [], []
    with pytest.MonkeyPatch.context() as patch:
        if step is not None:
            patch.setattr(ProcessArena, "step", step)
        for k in range(12):
            start = k * 10 * MILLISECOND
            if k % 3 == 0:
                for process in processes:
                    pages = process.pages
                    pages.protect(np.arange(pages.n_pages), start)
            demand = engine._arena_step(start, 10 * MILLISECOND)
            arena = engine._arena
            vectors.append(
                [
                    vec.copy()
                    for vec in (
                        demand, arena._n, arena._mean_lat, arena._acc_n,
                        arena._acc_fast, arena._acc_user, arena.mass,
                    )
                ]
            )
            routes.append(arena.cached_step)
    store = {key: vec.tolist() for key, vec in arena._lat_store.items()}
    return vectors, routes, store, kernel


class TestCacheHandOff:
    def test_fault_path_repair_reprices_the_next_step(self):
        """Pages the policy moves inside ``on_faults`` change the mass
        after this step priced; the next step must price again even
        though no other input moved, exactly as the oracle does."""
        vectors, routes, store, kernel = hand_off_trace()
        expect, _, expect_store, _ = hand_off_trace(step_reference)
        assert kernel.stats.hint_faults > 0
        assert kernel.stats.kernel_time_ns == 0
        assert any(routes) and not all(routes)
        assert store == expect_store
        for k, (got, want) in enumerate(zip(vectors, expect)):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b, err_msg=f"step {k}")


class TestObsMetrics:
    def test_cached_steps_and_table_gauges_emitted(self):
        hub = ObsHub.create(metrics=True)
        result = run_multitenant(
            "linux-nb",
            n_tenants=8,
            delay_step_units=0,
            n_distinct=2,
            obs=hub,
        )
        snapshot = hub.snapshot()
        counters = snapshot["counters"]
        # Every arena step counts at most once; Linux-NB leaves the
        # uncontended fleet in steady state for a third of its steps.
        assert 0 < counters["arena.cached_steps"] < result.engine.steps_run
        # Table-cache effectiveness: eight tenants over two compiled
        # tables means two builds (or fewer, if warm) and hits for the
        # rest of the fleet.
        assert snapshot["gauges"]["workload.table_bytes"] > 0
        assert (
            snapshot["gauges"]["workload.table_hits"]
            + snapshot["gauges"]["workload.table_misses"]
            >= 8
        )


class TestMultitenantWorkload:
    def test_n_distinct_cycles_compiled_tables(self):
        pairs = make_multitenant_processes(
            n_tenants=8, pages_per_tenant=64, n_distinct=3
        )
        tables = {
            id(process.workload.access_distribution())
            for process, _ in pairs
        }
        assert len(tables) == 3

    def test_default_shares_one_table(self):
        pairs = make_multitenant_processes(
            n_tenants=4, pages_per_tenant=64
        )
        tables = {
            id(process.workload.access_distribution())
            for process, _ in pairs
        }
        assert len(tables) == 1

    def test_n_distinct_must_be_positive(self):
        with pytest.raises(ValueError, match="distinct"):
            make_multitenant_processes(n_tenants=2, n_distinct=0)

    def test_base_delay_is_uniform_across_tenants(self):
        """A base think time with no stagger keeps per-access cost
        equal fleet-wide."""
        pairs = make_multitenant_processes(
            n_tenants=4,
            pages_per_tenant=64,
            delay_step_units=0,
            base_delay_units=100,
        )
        delays = {
            process.workload.delay_ns_per_access
            for process, _ in pairs
        }
        assert len(delays) == 1
        assert delays.pop() > 0.0

    def test_base_delay_must_be_non_negative(self):
        with pytest.raises(ValueError, match="base delay"):
            make_multitenant_processes(
                n_tenants=2, base_delay_units=-1
            )

    def test_registered_as_fleet_builder(self):
        from repro.harness.experiments import fleet_names

        assert "multitenant" in fleet_names()
