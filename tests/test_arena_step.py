"""The one arena step against its test oracle and the reference engine.

``ProcessArena.step`` (``repro.harness.arena``, docs/SIMULATION.md
section 7) gathers over write-through witness cells, skips ``advance``
for static rows, refolds only dirty price rows and caches steady-state
quanta.  Its contract:

1. it executes the same IEEE-754 operations and consumes the same RNG
   stream as the test oracle (``tests/arena_oracle.py``, a per-segment
   step that recomputes everything every quantum), so trajectories are
   bit-identical on every fleet -- one tenant alone, distinct delays,
   distinct tables and shared tables, contended or not, for every
   registered policy;
2. on shared-table fleets, contended included, the default engine
   agrees with the reference engine (``fast_path=False``) within the
   reference's own seed spread;
3. its masked pricing fold (``price_fold``) rewrites exactly the dirty
   rows, in the full fold's operation order.
"""

import numpy as np
import pytest

from repro.harness.arena import ProcessArena, price_fold
from repro.harness.engine import QuantumEngine
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.obs import ObsHub
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


class TestOracleBitIdentity:
    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_uncontended_fleet_matches_oracle_exactly(
        self, policy_name, fleet
    ):
        """Shared tables and distinct delays alike: every segment
        prices from its own tier-mass row, so the step reproduces the
        oracle bit for bit."""
        step = run_multitenant(policy_name, **FLEETS[fleet])
        oracle = run_oracle(policy_name, **FLEETS[fleet])
        assert fingerprint(step) == fingerprint(oracle)

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


class TestDirtyRowPricing:
    def test_dirty_bits_skip_clean_repricing(self):
        """Every segment is accounted either repriced or skipped each
        quantum, and steady-state quanta skip clean rows."""
        _, engine, _ = build_arena_engine(n_tenants=4)
        arena = None
        for step in range(3):
            engine._arena_step(step * 10 * MILLISECOND, 10 * MILLISECOND)
            arena = arena or engine._arena
        repriced, skipped = arena.take_reprice_counters()
        assert repriced + skipped == 3 * 4
        assert skipped > 0
        assert arena.take_reprice_counters() == (0, 0)

    def test_static_rows_skip_the_gather_loop(self):
        """Stationary pmbench tenants are static rows: nothing is left
        for the per-row ``advance`` loop."""
        _, engine, _ = build_arena_engine(n_tenants=4)
        engine._arena_step(0, 10 * MILLISECOND)
        assert engine._arena._dynamic_rows == []

    def test_steady_state_cache_arms_and_survives_mass_changes(self):
        """Quanta with no input change re-arm the steady-state cache;
        an external page move is repaired, repriced, and re-armed in
        one quantum (the cache may never serve stale vectors)."""
        _, engine, processes = build_arena_engine(n_tenants=4)
        for step in range(3):
            engine._arena_step(step * 10 * MILLISECOND, 10 * MILLISECOND)
        arena = engine._arena
        assert arena._ss_valid
        fast_before = arena.mass[0, 0]
        arena.take_reprice_counters()
        processes[0].pages.move_to_tier(np.array([0, 1]), 1)
        engine._arena_step(30 * MILLISECOND, 10 * MILLISECOND)
        # The move invalidated mid-step, forced a repair and a reprice
        # of exactly the moved row, refreshed every cached vector, and
        # re-armed the cache.
        assert arena._ss_valid
        assert arena.mass[0, 0] < fast_before
        repriced, _ = arena.take_reprice_counters()
        assert repriced == 1

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


class TestPriceFold:
    def test_price_fold_masked_rows_only(self):
        """The masked pricing fold writes exactly the indexed rows,
        with the reference tier-order accumulation (coef = rf*read +
        wf*write, then *mass, summed per tier)."""
        rng = np.random.default_rng(4)
        n_segs, n_tiers = 13, 3
        mass = rng.random((n_segs, n_tiers)) * 5.0
        wf = rng.random(n_segs)
        rf = 1.0 - wf
        read_lats = rng.random(n_tiers) * 100.0
        write_lats = rng.random(n_tiers) * 300.0
        idx = np.array([0, 2, 5, 11], dtype=np.int64)
        out = np.full(n_segs, -1.0)
        price_fold(mass, rf, wf, read_lats, write_lats, idx, out)
        expected = np.full(n_segs, -1.0)
        acc = np.zeros(idx.size)
        for tier_id in range(n_tiers):
            coef = rf[idx] * read_lats[tier_id]
            coef += wf[idx] * write_lats[tier_id]
            coef *= mass[idx, tier_id]
            acc += coef
        expected[idx] = acc
        np.testing.assert_array_equal(out, expected)
        assert out[1] == -1.0  # untouched rows keep their value


class TestObsMetrics:
    def test_reprice_counters_and_table_gauges_emitted(self):
        hub = ObsHub.create(metrics=True)
        run_multitenant(
            "chrono",
            n_tenants=8,
            delay_step_units=0,
            n_distinct=2,
            obs=hub,
        )
        snapshot = hub.snapshot()
        counters = snapshot["counters"]
        assert counters["arena.repriced_segments"] > 0
        total = (
            counters["arena.repriced_segments"]
            + counters["arena.reprice_skipped_segments"]
        )
        assert total > 0
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
