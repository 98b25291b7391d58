"""The arena's fleet-wide hint-fault plan (``repro.harness.arena.FaultPlan``).

Every arena, one segment included, draws every quantum's hint faults
from one plan over its concatenated address space
(``docs/SIMULATION.md`` section 7).  Three contracts:

1. the law: a protected page is touched in a quantum with probability
   ``1 - exp(-n_i p)``, independently -- through the active Bernoulli
   head and the chunked dormant Poisson tail alike, and still after
   tombstones, log-driven appends, re-protection and a distribution
   swap that gives a zero-rate page a rate;
2. the invariant: after any interleaving of protect, protect_at,
   unprotect, fault resolves and distribution swaps, the plan's live
   slots are exactly the protected pages with positive rate under
   their segment's current distribution, each page live once --
   zero-rate pages cannot fault and own no slot;
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


def faultable_union(arena):
    """Global indices of every protected page with positive rate under
    its segment's current distribution, ascending."""
    protected = np.concatenate(
        [
            np.flatnonzero(proc.pages.prot_none) + arena.seg_starts[i]
            for i, proc in enumerate(arena.processes)
        ]
    )
    return protected[arena.concat_probs[protected] > 0.0]


def assert_plan_matches(arena):
    plan = arena.plan
    pages = np.concatenate(
        [plan.a_page[: plan.a_n], plan.d_page[: plan.d_n]]
    )
    live = np.sort(pages[pages >= 0])
    np.testing.assert_array_equal(live, faultable_union(arena))
    # Every live slot can fault: ``_resolve`` divides by its rate.
    assert (arena.concat_probs[live] > 0.0).all()
    assert plan.a_live == np.count_nonzero(plan.a_page[: plan.a_n] >= 0)
    assert plan.d_live == np.count_nonzero(plan.d_page[: plan.d_n] >= 0)
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


def churn_draws(arena, n_vec, draws, seed=7):
    """``draws`` plan draws at ``n_vec``, re-protecting every touched
    page after each (log-driven appends) and unprotecting a few at
    random (log-driven tombstones: they sit out the next draw); returns
    per-segment touch and exposure counts per page."""
    plan = arena.plan
    procs = arena.processes
    rng = np.random.default_rng(seed)
    touches = [np.zeros(p.n_pages) for p in procs]
    exposures = [np.zeros(p.n_pages) for p in procs]
    faults = np.zeros(len(procs))
    for t in range(draws):
        exposed = [p.pages.prot_none.copy() for p in procs]
        faults.fill(0.0)
        plan.draw(n_vec, faults, t * 1_000, 1_000)
        for i, proc in enumerate(procs):
            pages = proc.pages
            touched = exposed[i] & ~pages.prot_none
            touches[i] += touched
            exposures[i] += exposed[i]
            assert faults[i] == np.count_nonzero(touched)
            pages.protect(np.flatnonzero(~pages.prot_none), t)
            pages.unprotect(
                np.flatnonzero(rng.random(proc.n_pages) < 0.05)
            )
    return touches, exposures


def assert_touch_law(probs, n, touches, exposures):
    """Touch counts match ``1 - exp(-n p)`` per exposure: per page, a
    binomial bound at 5 sigma; per segment, the summed deviation
    catches a small systematic bias."""
    expect = -np.expm1(-n * probs)
    mean = exposures * expect
    sd = np.sqrt(exposures * expect * (1.0 - expect))
    z = (touches - mean) / sd
    assert np.abs(z).max() < 5.0, np.abs(z).max()
    assert abs(z.sum()) / np.sqrt(z.size) < 4.0, z.sum()


class TestTouchLaw:
    #: segment sizes and per-quantum access counts: the 1,200-page
    #: segment's cold pages sit in the dormant tail (n * p ~ 0.007),
    #: everything else in the active head
    SIZES = (48, 160, 32, 1_200)
    N_VEC = np.array([30.0, 400.0, 5.0, 40.0])
    DRAWS = 3_000

    def check_law(self, sizes, n_vec):
        arena = make_arena(sizes)
        plan = arena.plan
        procs = arena.processes
        for proc in procs:
            proc.pages.protect(np.arange(proc.n_pages), 0)
        plan.refresh(n_vec)
        assert plan.a_n > 0 and plan.c_n > 0  # both pools in play
        touches, exposures = churn_draws(arena, n_vec, self.DRAWS)
        assert plan.tombstoned > 0 and plan.appended > 0
        for i, proc in enumerate(procs):
            assert_touch_law(
                proc.workload.access_distribution(),
                n_vec[i],
                touches[i],
                exposures[i],
            )

    def test_touch_frequency_matches_law(self):
        self.check_law(self.SIZES, self.N_VEC)

    def test_single_segment_touch_frequency_matches_law(self):
        """One segment alone, its hot pages in the active head and its
        cold ones in the dormant tail."""
        self.check_law(self.SIZES[-1:], self.N_VEC[-1:])

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
                probs[vpns] = 0.0  # zero-rate pages leave the plan
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


class TestZeroRatePages:
    def test_zero_rate_page_owns_no_slot_until_a_swap_gives_it_rate(self):
        """A protected page that cannot fault owns no slot; once a
        distribution swap gives it a rate, the next refresh appends it
        and it is drawn at the law."""
        arena = make_arena((48, 64))
        plan = arena.plan
        proc = arena.processes[1]
        lo = int(arena.seg_starts[1])
        probs = proc.workload.access_distribution().copy()
        probs[:16] = 0.0
        probs /= probs.sum()
        arena._swap_probs(1, probs, proc.workload)
        for each in arena.processes:
            each.pages.protect(np.arange(each.n_pages), 0)
        n_vec = np.array([30.0, 40.0])
        plan.draw(n_vec, np.zeros(2), 0, 1_000)
        assert proc.pages.prot_none[:16].all()
        assert not plan.slot_of[lo : lo + 16].any()
        assert_plan_matches(arena)
        uniform = np.full(64, 1.0 / 64)
        arena._swap_probs(1, uniform, proc.workload)
        plan.refresh(n_vec)
        assert plan.slot_of[lo : lo + 16].all()
        assert_plan_matches(arena)
        touches, exposures = churn_draws(arena, n_vec, 2_000)
        assert_touch_law(uniform, n_vec[1], touches[1], exposures[1])


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

    def test_detach_unhooks_logs_and_the_kernels_arena(self):
        result = run_policy("linux-nb", **CONTENDED)
        assert result.stats["hint_faults"] > 0
        assert result.kernel.arena is None
        for proc in result.kernel.processes:
            assert proc.pages._protect_log is None
            assert proc.pages._ledger_source is None


class TestPlanCounters:
    def test_counters_explain_the_plan_upkeep(self):
        hub = ObsHub.create(metrics=True)
        result = run_policy("linux-nb", obs=hub, **CONTENDED)
        counters = hub.snapshot()["counters"]
        # Every segment is read from prot_none before the first draw.
        assert counters["arena.fault_plan_resyncs"] >= CONTENDED["n_procs"]
        assert counters["arena.fault_plan_appended"] > 0
        # Every fault tombstones one slot; logs may tombstone more.
        assert (
            counters["arena.fault_plan_tombstoned"]
            >= result.stats["hint_faults"]
        )

    def test_active_tombstones_compact_without_a_rebuild(self):
        """A fault burst that kills most of the active table compacts
        it on the next refresh; it never rebuilds the tables."""
        arena = make_arena((64, 64))
        plan = arena.plan
        for proc in arena.processes:
            proc.pages.protect(np.arange(proc.n_pages), 0)
        n_vec = np.array([400.0, 400.0])
        plan.draw(n_vec, np.zeros(2), 0, 1_000)
        assert plan.d_n == 0
        assert plan.a_n > 2 * plan.a_live
        plan.refresh(n_vec)
        assert plan.rebuilds == 0
        assert plan.a_n == plan.a_live
        assert_plan_matches(arena)

    def test_dead_dormant_slots_rebuild(self):
        """Once dead dormant slots outnumber live ones the next refresh
        rebuilds the tables from the live slots alone."""
        arena = make_arena((48, 1_200))
        plan = arena.plan
        for proc in arena.processes:
            proc.pages.protect(np.arange(proc.n_pages), 0)
        n_vec = np.array([30.0, 40.0])
        plan.refresh(n_vec)
        cold = plan.d_live
        assert cold > 0
        # Unprotect well over half of the cold tail: log-driven
        # tombstones in the dormant table.
        arena.processes[1].pages.unprotect(np.arange(120, 800))
        plan.refresh(n_vec)
        assert plan.rebuilds == 1
        assert plan.d_n == plan.d_live < cold / 2
        assert plan.a_n == plan.a_live
        assert_plan_matches(arena)

    def test_single_segment_arena_has_a_plan(self):
        """A one-process arena keeps a plan like any fleet: its live
        slots are its faultable protected pages."""
        arena = make_arena((64,))
        assert arena.plan is not None
        arena.processes[0].pages.protect(np.arange(0, 64, 2), 0)
        arena.plan.refresh(np.array([30.0]))
        assert arena.plan.a_live + arena.plan.d_live == 32
        assert_plan_matches(arena)

    def test_arena_step_draws_from_the_plan(self):
        hub = ObsHub.create(metrics=True)
        run_policy("tpp", obs=hub, **CONTENDED)
        assert hub.snapshot()["counters"]["arena.fault_plan_appended"] > 0
