"""Distribution interning: equivalence-class arena stepping.

The interning layer (``repro.harness.arena``, docs/SIMULATION.md
section 8) groups arena segments that share one compiled distribution
table into equivalence classes and prices/steps each class once per
quantum.  Its contract extends the arena's own (section 7):

1. when every class is a *singleton* -- distinct tables, or shared
   tables with distinct write fractions / delays -- the interned step
   executes the same IEEE-754 operations in the same order as the
   uninterned arena step: bit-identical, for every registered policy;
2. *multi-member* classes share one class-level price and one merged
   ledger run, so trajectories diverge stochastically -- statistically
   equivalent within the arena's own multi-process tolerances;
3. interning composes with quantum fusion, segment retirement, and the
   ``CHRONO_JIT`` kernels (the CI jit job re-runs this file).
"""

import numpy as np
import pytest

from repro.harness.engine import QuantumEngine
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.obs import ObsHub
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.workloads.base import distribution_fingerprint
from repro.workloads.multitenant import make_multitenant_processes
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


def run_multitenant(
    policy_name,
    intern,
    n_tenants=4,
    pages=256,
    delay_step_units=1,
    n_distinct=1,
    fusion=False,
    seed=0,
    obs=None,
    **setup_overrides,
):
    """One multitenant run with interning on or off (arena always on)."""
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
        setup.run_config(arena=True, fusion=fusion, intern=intern),
        obs=obs,
    )


def fingerprint(result):
    return (
        result.throughput_per_sec,
        result.fmar,
        result.latency_summary,
        result.stats,
    )


class TestSingletonBitIdentity:
    @pytest.mark.parametrize("policy_name", ALL_POLICIES)
    def test_distinct_delays_match_uninterned_exactly(self, policy_name):
        """Tenants sharing one table but with distinct delays form no
        class (delay is part of the class key): the interned step must
        reproduce the uninterned arena step bit for bit."""
        interned = run_multitenant(
            policy_name, intern=True, delay_step_units=1
        )
        reference = run_multitenant(
            policy_name, intern=False, delay_step_units=1
        )
        assert fingerprint(interned) == fingerprint(reference)

    def test_distinct_tables_match_uninterned_exactly(self):
        """All-distinct tables (one stride per tenant) also stay
        singleton -- the other way classes fail to form."""
        interned = run_multitenant(
            "chrono", intern=True, delay_step_units=0, n_distinct=4
        )
        reference = run_multitenant(
            "chrono", intern=False, delay_step_units=0, n_distinct=4
        )
        assert fingerprint(interned) == fingerprint(reference)

    @pytest.mark.parametrize("policy_name", HINT_FAULT_POLICIES)
    def test_contended_singletons_match_uninterned_exactly(
        self, policy_name
    ):
        """The contended regime, where both steps carry hint faults
        through the fleet-wide fault plan: still bit for bit."""
        interned = run_multitenant(
            policy_name, intern=True, delay_step_units=1, **CONTENDED
        )
        reference = run_multitenant(
            policy_name, intern=False, delay_step_units=1, **CONTENDED
        )
        assert interned.fmar < 1.0
        assert interned.stats["hint_faults"] > 0
        assert fingerprint(interned) == fingerprint(reference)


#: the contended multi-member cases that class-mean pricing biases
#: beyond the seed spread (ROADMAP item 1): measured three-seed means
#: at this config read linux-nb FMAR 0.305 against 0.333 uninterned and
#: tpp 0.326 against 0.414
INTERNING_BIAS = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: class-mean pricing biases contended "
    "multi-member classes",
)


class TestMultiMemberEquivalence:
    @pytest.mark.parametrize(
        "policy_name", ["linux-nb", "memtis", "chrono"]
    )
    def test_headline_metrics_agree(self, policy_name):
        """Shared tables at equal delay form real classes; class-level
        pricing and the shared fault plan keep the same laws, so the
        headline metrics agree within the arena's own multi-process
        spread (uncontended: the fleet fits in the fast tier)."""
        interned = run_multitenant(
            policy_name,
            intern=True,
            n_tenants=8,
            delay_step_units=0,
            n_distinct=2,
        )
        reference = run_multitenant(
            policy_name,
            intern=False,
            n_tenants=8,
            delay_step_units=0,
            n_distinct=2,
        )
        assert interned.throughput_per_sec == pytest.approx(
            reference.throughput_per_sec, rel=0.05
        )
        assert interned.fmar == pytest.approx(
            reference.fmar, rel=0.05, abs=1e-4
        )

    @pytest.mark.parametrize(
        "policy_name",
        [
            pytest.param("linux-nb", marks=INTERNING_BIAS),
            "chrono",
            pytest.param("tpp", marks=INTERNING_BIAS),
        ],
    )
    def test_contended_classes_agree(self, policy_name):
        """Real classes in a contended fleet (FMAR < 1, hint faults
        flowing).  Three-seed means must agree within the uninterned
        step's own three-seed range, measured over these three policies
        at this config: at most 0.021 on throughput and 0.050 on FMAR
        (linux-nb)."""
        runs = {
            intern: [
                run_multitenant(
                    policy_name,
                    intern=intern,
                    delay_step_units=0,
                    n_distinct=2,
                    seed=seed,
                    **CONTENDED,
                )
                for seed in (0, 1, 2)
            ]
            for intern in (True, False)
        }
        for run in runs[True]:
            assert run.fmar < 1.0
            assert run.stats["hint_faults"] > 0
        interned_tput, interned_fmar = seed_means(runs[True])
        ref_tput, ref_fmar = seed_means(runs[False])
        assert interned_tput == pytest.approx(ref_tput, rel=0.021)
        assert interned_fmar == pytest.approx(ref_fmar, rel=0.050)


class TestFusionComposition:
    def test_interned_arena_fuses_and_stays_equivalent(self):
        """Fusion composes with interning: the witness rides the
        per-segment epoch cell matrix, macro-quanta still engage, and
        the fused interned run matches the per-quantum interned run
        within the fusion tolerance."""
        hub = ObsHub.create(metrics=True)
        fused = run_multitenant(
            "memtis",
            intern=True,
            n_tenants=8,
            delay_step_units=0,
            n_distinct=2,
            fusion=True,
            obs=hub,
        )
        stepped = run_multitenant(
            "memtis",
            intern=True,
            n_tenants=8,
            delay_step_units=0,
            n_distinct=2,
            fusion=False,
        )
        snapshot = hub.snapshot()
        assert snapshot["counters"]["engine.fused_quanta"] > 0
        assert snapshot["gauges"]["arena.interned_classes"] == 2
        assert fused.throughput_per_sec == pytest.approx(
            stepped.throughput_per_sec, rel=0.02
        )
        assert fused.fmar == pytest.approx(
            stepped.fmar, rel=0.02, abs=1e-4
        )


def build_intern_engine(
    n_tenants=4, pages=64, delay_step_units=0, n_distinct=1
):
    pairs = make_multitenant_processes(
        n_tenants=n_tenants,
        pages_per_tenant=pages,
        delay_step_units=delay_step_units,
        n_distinct=n_distinct,
    )
    processes = [process for process, _cgroup in pairs]
    kernel = make_kernel()
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    engine = QuantumEngine(
        kernel, quantum_ns=10 * MILLISECOND, arena=True
    )
    return kernel, engine, processes


class TestClassMachinery:
    def test_shared_table_fleet_forms_one_class(self):
        _, engine, processes = build_intern_engine(n_tenants=4)
        engine._arena_step(0, 10 * MILLISECOND)
        arena = engine._arena
        assert arena.intern
        assert arena.n_classes == 1
        assert arena.interned_segments == 4
        [members] = arena.class_members
        probs = arena.class_probs[0]
        for i in members.tolist():
            assert arena.probs_refs[i] is probs

    def test_distinct_delays_stay_singletons(self):
        _, engine, _ = build_intern_engine(
            n_tenants=4, delay_step_units=1
        )
        engine._arena_step(0, 10 * MILLISECOND)
        arena = engine._arena
        assert arena.intern
        assert arena.n_classes == 0
        assert arena.interned_segments == 0

    def test_single_segment_arena_never_interns(self):
        _, engine, _ = build_intern_engine(n_tenants=1)
        engine._arena_step(0, 10 * MILLISECOND)
        assert not engine._arena.intern

    def test_class_ledger_runs_superpose_member_shares(self):
        """The class's open ledger state is the superposed run
        ``(probs, sum of member n)``; the fingerprint is the
        compiled-table cache key."""
        _, engine, _ = build_intern_engine(n_tenants=4)
        engine._arena_step(0, 10 * MILLISECOND)
        arena = engine._arena
        [(print_, probs, total_n, n_members)] = arena.class_ledger_runs()
        assert n_members == 4
        assert probs is arena.class_probs[0]
        assert print_ == distribution_fingerprint(probs)
        assert print_ is not None
        assert total_n == pytest.approx(float(arena.open_n.sum()))
        assert total_n > 0.0

    def test_dirty_bits_skip_clean_repricing(self):
        """Every live segment is accounted either repriced or skipped
        each quantum, and steady-state quanta skip clean classes."""
        _, engine, _ = build_intern_engine(n_tenants=4)
        arena = None
        for step in range(3):
            engine._arena_step(step * 10 * MILLISECOND, 10 * MILLISECOND)
            arena = arena or engine._arena
        repriced, skipped = arena.take_reprice_counters()
        assert repriced + skipped == 3 * 4
        assert skipped > 0
        assert arena.take_reprice_counters() == (0, 0)

    def test_retirement_dissolves_small_classes(self):
        """A class losing members below two dissolves back to singleton
        (bit-identical) pricing for the survivor."""
        _, engine, processes = build_intern_engine(n_tenants=2)
        processes[0].target_accesses = 1_000.0
        arena = None
        for step in range(100):
            engine._arena_step(step * 10 * MILLISECOND, 10 * MILLISECOND)
            arena = arena or engine._arena
            if arena.interned_segments == 0:
                break
        assert processes[0].finished
        assert not processes[1].finished
        assert arena.interned_segments == 0
        assert (arena._class_of == -1).all()
        assert arena.class_members[0].size == 0
        assert arena.class_ledger_runs() == []

    def test_mass_change_dirties_the_class(self):
        _, engine, processes = build_intern_engine(n_tenants=4)
        engine._arena_step(0, 10 * MILLISECOND)
        arena = engine._arena
        arena.take_reprice_counters()
        arena._class_dirty[:] = False
        arena._price_dirty[:] = False
        pages = processes[0].pages
        pages.move_to_tier(np.array([0, 1]), 1)
        engine._arena_step(10 * MILLISECOND, 10 * MILLISECOND)
        assert not arena._class_dirty.any()  # re-priced and cleared
        repriced, _skipped = arena.take_reprice_counters()
        assert repriced >= 4

    def test_steady_state_cache_arms_and_survives_mass_changes(self):
        """Quanta with no input change re-arm the steady-state cache;
        an external page move is repaired, repriced, and re-armed in
        one quantum (the cache may never serve stale vectors)."""
        _, engine, processes = build_intern_engine(n_tenants=4)
        for step in range(3):
            engine._arena_step(step * 10 * MILLISECOND, 10 * MILLISECOND)
        arena = engine._arena
        assert arena._ss_valid
        fast_before = arena.mass[0, 0]
        arena.take_reprice_counters()
        processes[0].pages.move_to_tier(np.array([0, 1]), 1)
        engine._arena_step(30 * MILLISECOND, 10 * MILLISECOND)
        # The move invalidated mid-step, forced a repair + reprice,
        # refreshed every cached vector, and re-armed the cache.
        assert arena._ss_valid
        assert arena.mass[0, 0] < fast_before
        repriced, _ = arena.take_reprice_counters()
        assert repriced >= 4


class TestObsMetrics:
    def test_interning_gauges_and_counters_emitted(self):
        hub = ObsHub.create(metrics=True)
        run_multitenant(
            "chrono",
            intern=True,
            n_tenants=8,
            delay_step_units=0,
            n_distinct=2,
            obs=hub,
        )
        snapshot = hub.snapshot()
        assert snapshot["gauges"]["arena.interned_classes"] == 2
        assert snapshot["gauges"]["arena.interned_segments"] == 8
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
        equal fleet-wide, so shared-table tenants still intern."""
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
