"""The arena's fleet-wide hint-fault plan (``repro.harness.arena.FaultPlan``).

A multi-segment arena draws every quantum's hint faults from one plan
over its concatenated address space (``docs/SIMULATION.md`` section 7).
Three contracts:

1. the law: a protected page is touched in a quantum with probability
   ``1 - exp(-n_i p)``, independently -- through the active Bernoulli
   head and the chunked dormant Poisson tail alike, and still after
   tombstones, log-driven appends and re-protection;
2. the invariant: after any interleaving of protect, protect_at,
   unprotect, fault resolves and distribution swaps, the plan's live
   slots are exactly the union of every segment's ``prot_none``, each
   page live once;
3. the protection-change log is bounded, and the arena detaches it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.arena import ProcessArena
from repro.harness.engine import QuantumEngine
from repro.obs import ObsHub
from repro.vm.page_state import PageState
from tests.conftest import make_kernel, make_process
from tests.test_harness_arena import CONTENDED, run_policy


def make_arena(sizes, seed=0):
    """An arena over stub processes of ``sizes`` pages (no policy: the
    kernel accounts delivered faults and hands them to nobody)."""
    kernel = make_kernel(seed=seed)
    for i, n_pages in enumerate(sizes):
        kernel.register_process(
            make_process(
                pid=i,
                n_pages=n_pages,
                seed=seed + i,
                hot_fraction=0.1,
                hot_weight=0.8,
            )
        )
    return ProcessArena(QuantumEngine(kernel))


def protected_union(arena):
    """Global indices of every protected page, ascending."""
    return np.concatenate(
        [
            np.flatnonzero(proc.pages.prot_none) + arena.seg_starts[i]
            for i, proc in enumerate(arena.processes)
        ]
    )


def assert_plan_matches(arena):
    plan = arena.plan
    pages = np.concatenate(
        [plan.a_page[: plan.a_n], plan.d_page[: plan.d_n]]
    )
    live = np.sort(pages[pages >= 0])
    np.testing.assert_array_equal(live, protected_union(arena))
    assert plan.live == live.size
    assert plan.a_live == np.count_nonzero(plan.a_page[: plan.a_n] >= 0)
    # The page -> slot map names exactly the live slots.
    slots = plan.slot_of[live]
    active = slots > 0
    np.testing.assert_array_equal(
        plan.a_page[slots[active] - 1], live[active]
    )
    np.testing.assert_array_equal(
        plan.d_page[-slots[~active] - 1], live[~active]
    )
    assert np.count_nonzero(plan.slot_of) == live.size


class TestTouchLaw:
    #: segment sizes and per-quantum access counts: the 1,200-page
    #: segment's cold pages sit in the dormant tail (n * p ~ 0.007),
    #: everything else in the active head
    SIZES = (48, 160, 32, 1_200)
    N_VEC = np.array([30.0, 400.0, 5.0, 40.0])
    DRAWS = 3_000

    def test_touch_frequency_matches_law(self):
        arena = make_arena(self.SIZES)
        plan = arena.plan
        procs = arena.processes
        rng = np.random.default_rng(7)
        for proc in procs:
            proc.pages.protect(np.arange(proc.n_pages), 0)
        touches = [np.zeros(p.n_pages) for p in procs]
        exposures = [np.zeros(p.n_pages) for p in procs]
        faults = np.zeros(len(procs))
        pools_seen = [False, False]
        for t in range(self.DRAWS):
            exposed = [p.pages.prot_none.copy() for p in procs]
            faults.fill(0.0)
            plan.draw(self.N_VEC, faults, t * 1_000, 1_000)
            pools_seen[0] |= plan.a_n > 0
            pools_seen[1] |= plan.c_n > 0
            for i, proc in enumerate(procs):
                pages = proc.pages
                touched = exposed[i] & ~pages.prot_none
                touches[i] += touched
                exposures[i] += exposed[i]
                assert faults[i] == np.count_nonzero(touched)
                # Re-protect every unprotected page (log-driven
                # appends), then unprotect a few at random (log-driven
                # tombstones): they sit out the next draw.
                pages.protect(np.flatnonzero(~pages.prot_none), t)
                pages.unprotect(
                    np.flatnonzero(rng.random(proc.n_pages) < 0.05)
                )
        assert all(pools_seen)
        assert plan.tombstoned > 0 and plan.appended > 0
        for i, proc in enumerate(procs):
            probs = proc.workload.access_distribution()
            expect = -np.expm1(-self.N_VEC[i] * probs)
            mean = exposures[i] * expect
            sd = np.sqrt(exposures[i] * expect * (1.0 - expect))
            z = (touches[i] - mean) / sd
            # Per page: a binomial bound at 5 sigma; per segment: the
            # summed deviation catches a small systematic bias.
            assert np.abs(z).max() < 5.0, (i, np.abs(z).max())
            assert abs(z.sum()) / np.sqrt(z.size) < 4.0, (i, z.sum())

    def test_idle_segment_never_faults(self):
        """A segment pricing to zero accesses holds slots but draws
        nothing, whichever pool its pages sit in."""
        arena = make_arena((64, 64))
        for proc in arena.processes:
            proc.pages.protect(np.arange(proc.n_pages), 0)
        faults = np.zeros(2)
        for t in range(200):
            arena.plan.draw(
                np.array([0.0, 50.0]), faults, t * 1_000, 1_000
            )
            assert faults[0] == 0.0
            procs = arena.processes
            procs[1].pages.protect(
                np.flatnonzero(~procs[1].pages.prot_none), t
            )
        assert arena.processes[0].pages.n_protected == 64


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["protect", "protect_at", "unprotect", "draw", "swap",
             "refresh"]
        ),
        st.integers(min_value=0, max_value=2),
        st.lists(
            st.integers(min_value=0, max_value=39), min_size=1,
            max_size=30,
        ),
    ),
    max_size=40,
)


class TestPlanInvariant:
    SIZES = (16, 40, 8)

    @given(OPS)
    @settings(deadline=None, max_examples=60)
    def test_live_slots_are_the_protected_pages(self, ops):
        arena = make_arena(self.SIZES)
        plan = arena.plan
        procs = arena.processes
        n_vec = np.array([5.0, 300.0, 0.0])
        faults = np.zeros(3)
        rng = np.random.default_rng(3)
        for t, (kind, seg, raw) in enumerate(ops):
            pages = procs[seg].pages
            vpns = np.array(raw, dtype=np.int64) % pages.n_pages
            if kind == "protect":
                pages.protect(vpns, t)
            elif kind == "protect_at":
                pages.protect_at(vpns, np.full(vpns.size, t))
            elif kind == "unprotect":
                pages.unprotect(vpns)
            elif kind == "swap":
                probs = rng.random(pages.n_pages)
                probs[vpns] = 0.0  # zero-rate pages stay plan members
                if not probs.any():
                    probs[0] = 1.0
                probs /= probs.sum()
                arena._swap_probs(seg, probs, procs[seg].workload)
            elif kind == "draw":
                plan.draw(n_vec, faults, t * 1_000, 1_000)
                assert_plan_matches(arena)
            else:
                plan.refresh(n_vec)
                assert_plan_matches(arena)
            assert pages.n_protected == int(pages.prot_none.sum())
        plan.refresh(n_vec)
        assert_plan_matches(arena)


class TestProtectLog:
    def test_log_is_bounded_and_overflow_asks_for_resync(self):
        pages = PageState(32)
        pages.set_protect_log(True)
        for t in range(10):
            pages.protect(np.arange(32), t)
            pages.unprotect(np.arange(0, 32, 2))
            assert sum(v.size for v in pages._protect_log.parts) <= 32
        assert pages.take_protect_log() is None
        pages.protect(np.arange(4), 99)
        np.testing.assert_array_equal(
            np.concatenate(pages.take_protect_log()), [0, 2]
        )
        assert pages.take_protect_log() == []

    def test_overflowed_segment_is_resynced(self):
        arena = make_arena((32, 32))
        plan = arena.plan
        n_vec = np.array([10.0, 10.0])
        plan.refresh(n_vec)
        assert plan.resyncs == 2  # every segment, before the first draw
        pages = arena.processes[1].pages
        for t in range(5):
            pages.protect(np.arange(32), t)
            pages.unprotect(np.arange(t, 32, 3))
        plan.refresh(n_vec)
        assert plan.resyncs == 3
        assert_plan_matches(arena)

    def test_unattached_log_records_nothing(self):
        pages = PageState(8)
        pages.protect(np.arange(4), 0)
        assert pages._protect_log is None
        assert pages.take_protect_log() is None

    def test_detach_unhooks_logs_and_witness_cells(self):
        result = run_policy("linux-nb", arena=True, **CONTENDED)
        assert result.stats["hint_faults"] > 0
        for proc in result.kernel.processes:
            assert proc.pages._protect_log is None
            assert proc.pages._witness_cells is None


class TestPlanCounters:
    def test_counters_explain_the_plan_upkeep(self):
        hub = ObsHub.create(metrics=True)
        result = run_policy(
            "linux-nb", arena=True, intern=False, obs=hub, **CONTENDED
        )
        counters = hub.snapshot()["counters"]
        # Every segment is read from prot_none before the first draw.
        assert counters["arena.fault_plan_resyncs"] >= CONTENDED["n_procs"]
        assert counters["arena.fault_plan_appended"] > 0
        # Every fault tombstones one slot; logs may tombstone more.
        assert (
            counters["arena.fault_plan_tombstoned"]
            >= result.stats["hint_faults"]
        )

    def test_rebuild_compacts_dead_slots(self):
        """Once dead slots outnumber live ones the next refresh rebuilds
        the tables from the live slots alone."""
        arena = make_arena((64, 64))
        plan = arena.plan
        for proc in arena.processes:
            proc.pages.protect(np.arange(proc.n_pages), 0)
        n_vec = np.array([200.0, 200.0])
        plan.draw(n_vec, np.zeros(2), 0, 1_000)
        assert plan.rebuilds == 0
        assert plan.dead > plan.live
        plan.refresh(n_vec)
        assert plan.rebuilds == 1
        assert plan.dead == 0
        assert plan.a_n + plan.d_n == plan.live
        assert_plan_matches(arena)

    def test_single_process_arena_has_no_plan(self):
        arena = make_arena((64,))
        assert arena.plan is None

    @pytest.mark.parametrize("intern", [True, False])
    def test_both_arena_steps_draw_from_the_plan(self, intern):
        hub = ObsHub.create(metrics=True)
        run_policy(
            "tpp", arena=True, intern=intern, obs=hub, **CONTENDED
        )
        assert hub.snapshot()["counters"]["arena.fault_plan_appended"] > 0
