"""The quantum-fusion horizon: its oracle, its target bound, and the
counters that say which bound set each step's width.

``QuantumEngine._fusion_horizon`` (``docs/SIMULATION.md`` section 6)
answers the placement, protection and kernel-debt bounds with vector
compares over the arena's cells and checks only the arena's dynamic and
target rows one by one.  Three contracts:

1. at every step it returns the width of the straightforward
   process-by-process loop
   (``tests/arena_oracle.py::fusion_horizon_reference``) -- on static,
   dynamic, duck-typed, fixed-work and debt-heavy fleets and on
   single-process arenas alike;
2. the access-target bound counts the arena's unflushed accesses, so a
   fused fixed-work process stops in the quantum per-quantum stepping
   stops it in;
3. every step of a run with fusion enabled counts exactly one
   ``engine.fusion_limited_<bound>`` counter.
"""

import numpy as np
import pytest

from repro.harness.engine import QuantumEngine
from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.obs import ObsHub
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.process import SimProcess
from repro.workloads.compile import StationaryTableWorkload
from tests.arena_oracle import fusion_horizon_reference
from tests.conftest import make_kernel, make_process
from tests.test_arena_step import CONTENDED as CONTENDED_TENANTS
from tests.test_arena_step import run_multitenant
from tests.test_harness_arena import CONTENDED, run_policy

#: the bounds a step's width can be limited by (the counter suffixes)
BOUNDS = (
    "run_end", "event", "observer", "max_quanta", "witness", "debt",
    "stability", "target", "contention",
)


@pytest.fixture
def checked_horizons(monkeypatch):
    """Compare every production horizon against the oracle's; returns
    the list of checked widths."""
    widths = []
    production = QuantumEngine._fusion_horizon

    def both(self, start_ns, end_ns, next_observe_ns, max_fuse):
        expect = fusion_horizon_reference(
            self, start_ns, end_ns, next_observe_ns, max_fuse
        )
        n, bound = production(
            self, start_ns, end_ns, next_observe_ns, max_fuse
        )
        assert n == expect, (start_ns, n, expect, bound)
        assert bound in BOUNDS
        widths.append(n)
        return n, bound

    monkeypatch.setattr(QuantumEngine, "_fusion_horizon", both)
    return widths


def run_fleet(policy_name, workload, kwargs, targets=()):
    """A 2 s fused run of a ``build_fleet`` family; ``targets`` gives
    ``(index, accesses)`` fixed-work targets to set first."""
    setup = StandardSetup(duration_ns=2 * SECOND)
    processes = build_fleet(setup, workload, **kwargs)
    for index, accesses in targets:
        processes[index].target_accesses = accesses
    return run_experiment(
        processes,
        setup.build_policy(policy_name),
        setup.run_config(fusion=True),
    )


class TestHorizonOracle:
    def test_pmbench_fleet_static_rows(self, checked_horizons):
        run_policy("memtis", fusion=True, n_procs=4)
        assert max(checked_horizons) > 1

    def test_traffic_fleet_with_churn_and_shifters(self, checked_horizons):
        """Phase shifters and spawners are dynamic rows; exiters are
        target rows."""
        result = run_fleet(
            "memtis",
            "traffic",
            dict(
                n_tenants=24,
                pages_per_tenant=128,
                churn_fraction=0.5,
                phase_shift_fraction=0.25,
            ),
        )
        assert any(p.finished for p in result.kernel.processes)
        assert max(checked_horizons) > 1

    def test_graph500_fleet_with_a_target(self, checked_horizons):
        """Graph500 processes bound fusion at their BFS-level edges;
        one of them also runs to a fixed-work target."""
        result = run_fleet(
            "memtis",
            "graph500",
            dict(n_procs=3, pages_per_proc=512),
            targets=[(0, 2e6)],
        )
        assert result.kernel.processes[0].finished
        assert max(checked_horizons) > 1

    def test_duck_typed_workloads_never_fuse(self, checked_horizons):
        """A workload without ``stable_until_ns`` holds the fleet to
        single quanta, next to a static row that could fuse."""
        kernel = make_kernel(aging_period_ns=1000 * SECOND)
        kernel.register_process(make_process(pid=1, n_pages=64))
        kernel.register_process(table_process(pid=2))
        kernel.allocate_initial_placement()
        engine = QuantumEngine(kernel, quantum_ns=10 * MILLISECOND)
        engine.run(SECOND)
        assert len(checked_horizons) > 50
        assert set(checked_horizons) == {1}

    def test_retired_dynamic_row_bounds_nothing(
        self, checked_horizons, monkeypatch
    ):
        """A duck-typed row is due every quantum until it reaches its
        access target and retires; the calendar entry it leaves behind
        must not bound the static row that stays, so the very next
        horizon fuses.  The contention gate is opened so that every
        step consults the horizon, the one right after the retirement
        included."""
        monkeypatch.setattr(
            QuantumEngine, "FUSION_CONTENTION_TOL", float("inf")
        )
        kernel = make_kernel(aging_period_ns=1000 * SECOND)
        duck = make_process(pid=1, n_pages=64)
        duck.target_accesses = 1e6
        kernel.register_process(duck)
        kernel.register_process(table_process(2))
        kernel.allocate_initial_placement()
        engine = QuantumEngine(kernel, quantum_ns=10 * MILLISECOND)
        engine.run(SECOND)
        assert duck.finished
        assert set(checked_horizons[:-1]) == {1}
        assert checked_horizons[-1] > 1

    def test_protection_changes_and_finished_segments(
        self, checked_horizons
    ):
        """A timer alternately protects pages of a live process and
        flips protection on a finished one: the first ends the next
        window (protect witness), the second must not (finished
        segments are out of every bound)."""
        kernel = make_kernel(aging_period_ns=1000 * SECOND)
        quick, steady = table_process(1), table_process(2)
        quick.target_accesses = 1e5
        kernel.register_process(quick)
        kernel.register_process(steady)
        kernel.allocate_initial_placement()
        ticks = []

        def tick(now_ns):
            pages = (steady, quick)[len(ticks) % 2].pages
            if pages.prot_none[:8].all():
                pages.unprotect(np.arange(8))
            else:
                pages.protect(np.arange(8), now_ns)
            ticks.append(now_ns)
            kernel.scheduler.schedule(
                now_ns + 100 * MILLISECOND, tick, name="protect"
            )

        kernel.scheduler.schedule(100 * MILLISECOND, tick, name="protect")
        engine = QuantumEngine(kernel, quantum_ns=10 * MILLISECOND)
        engine.run(2 * SECOND)
        assert quick.finished and len(ticks) >= 19
        widths = set(checked_horizons)
        assert 1 in widths and max(widths) > 1

    def test_contended_fleet(self, checked_horizons, monkeypatch):
        """Hint faults, migrations and their kernel debt, at a 5 ms
        quantum; the contention gate is opened so that every step
        consults the horizon, debt-laden ones included."""
        monkeypatch.setattr(
            QuantumEngine, "FUSION_CONTENTION_TOL", float("inf")
        )
        result = run_policy(
            "chrono",
            fusion=True,
            quantum_ns=5 * MILLISECOND,
            **CONTENDED,
        )
        assert result.stats["hint_faults"] > 0
        assert len(checked_horizons) == result.engine.steps_run
        assert max(checked_horizons) > 1

    def test_contended_shared_tables(self, checked_horizons, monkeypatch):
        monkeypatch.setattr(
            QuantumEngine, "FUSION_CONTENTION_TOL", float("inf")
        )
        result = run_multitenant(
            "linux-nb",
            delay_step_units=0,
            n_distinct=2,
            fusion=True,
            quantum_ns=5 * MILLISECOND,
            **CONTENDED_TENANTS,
        )
        assert result.fmar < 1.0
        assert len(checked_horizons) == result.engine.steps_run
        assert max(checked_horizons) > 1

    def test_single_process_arena(self, checked_horizons):
        run_policy("memtis", fusion=True, n_procs=1)
        assert max(checked_horizons) > 1


def table_process(pid, n_pages=64):
    """A stationary table process (a static arena row)."""
    return SimProcess(
        pid=pid,
        workload=StationaryTableWorkload(np.full(n_pages, 1.0 / n_pages)),
        rng=RngStreams(0).spawn(f"table-{pid}").get("access"),
    )


class TestTargetOvershoot:
    #: lands inside the 12th quantum of the first process
    TARGET = 1_387_500.0
    QUANTUM_NS = 10 * MILLISECOND
    DURATION_NS = 4 * SECOND

    def run(self, fusion):
        """Two stationary 64-page processes, 10 ms quanta and one hard
        no-op event per second; the first runs to ``TARGET``."""
        kernel = make_kernel(aging_period_ns=1000 * SECOND)
        quick, steady = table_process(1), table_process(2)
        quick.target_accesses = self.TARGET
        kernel.register_process(quick)
        kernel.register_process(steady)
        kernel.allocate_initial_placement()

        def tick(now_ns):
            kernel.scheduler.schedule(now_ns + SECOND, tick, name="tick")

        kernel.scheduler.schedule(SECOND, tick, name="tick")
        engine = QuantumEngine(
            kernel, quantum_ns=self.QUANTUM_NS, fusion=fusion
        )
        engine.run(self.DURATION_NS)
        # The steady twin runs every quantum at the same rate.
        per_quantum = (
            steady.stats.accesses * self.QUANTUM_NS / self.DURATION_NS
        )
        return quick.stats.accesses, per_quantum

    def test_arena_stops_in_the_finishing_quantum(self, monkeypatch):
        """The arena's lazily flushed stats must not hide progress from
        the target bound: a fused window may not run past the quantum
        that reaches the target, where per-quantum stepping stops, and
        the fused run stops exactly where it stops with the
        process-by-process horizon oracle.  (Fused and per-quantum
        stepping differ by a few accesses here: a fused window holds
        its contention multiplier.)"""
        stepped, per_quantum = self.run(fusion=False)
        fused, _ = self.run(fusion=True)
        assert 0.0 <= stepped - self.TARGET < per_quantum
        assert 0.0 <= fused - self.TARGET < per_quantum

        def oracle(engine, start_ns, end_ns, next_observe_ns, max_fuse):
            width = fusion_horizon_reference(
                engine, start_ns, end_ns, next_observe_ns, max_fuse
            )
            return width, "run_end"

        monkeypatch.setattr(QuantumEngine, "_fusion_horizon", oracle)
        checked, _ = self.run(fusion=True)
        assert fused == checked


class TestBoundCounters:
    def test_every_step_counts_one_bound(self):
        """Chrono on the contended fleet at a 5 ms quantum: the
        contention gate, timer events, protection and placement
        changes, and migration debt all end windows."""
        hub = ObsHub.create(metrics=True)
        result = run_policy(
            "chrono",
            fusion=True,
            obs=hub,
            quantum_ns=5 * MILLISECOND,
            **CONTENDED,
        )
        counters = hub.snapshot()["counters"]
        limited = {
            bound: counters[f"engine.fusion_limited_{bound}"]
            for bound in BOUNDS
        }
        assert sum(limited.values()) == result.engine.steps_run
        for bound in ("contention", "event", "witness", "debt"):
            assert limited[bound] > 0, bound
        assert counters["engine.fused_steps"] > 0

    def test_disabled_fusion_counts_nothing(self):
        hub = ObsHub.create(metrics=True)
        run_policy("chrono", fusion=False, obs=hub)
        counters = hub.snapshot()["counters"]
        assert not any(
            counters[f"engine.fusion_limited_{bound}"] for bound in BOUNDS
        )
