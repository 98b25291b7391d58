"""The ``--profile`` wall-time profile (``repro.obs.profile``).

The profile times a run from outside the code: installing a
:class:`Profile` wraps every ``SECTIONS`` entry point, the attached
policy's overridden hooks, the scanner's ``on_scan`` and the policy's
timers, and leaving it puts every original back.  These tests pin the
exclusive-time arithmetic on a scripted clock, the timer attribution,
the reversibility of the install, the table itself, and that a
profiled run's trajectory is the unprofiled one bit for bit.
"""

import pytest

from repro.harness.experiments import StandardSetup, build_fleet
from repro.harness.runner import run_experiment
from repro.obs import profile as profile_mod
from repro.obs.profile import (
    POLICY_HOOKS,
    SECTIONS,
    Profile,
    policy_hooks,
    resolve,
)
from repro.policies.autotiering import AutoTieringPolicy
from repro.policies.base import TieringPolicy
from repro.policies.linux_nb import LinuxNUMABalancing
from repro.policies.memtis import MemtisPolicy
from repro.policies.registry import policy_names
from repro.sim.events import EventScheduler
from repro.sim.timeunits import MILLISECOND, SECOND

ROWS = {
    "engine", "arena_build", "segment_fold", "fault_partition", "fault",
    "aging", "scan_pass", "migrate", "reclaim_select", "accounting",
    "dcsc_fold", "policy",
}


class ScriptedClock:
    """A nanosecond clock that moves only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


@pytest.fixture()
def clock(monkeypatch):
    scripted = ScriptedClock()
    monkeypatch.setattr(profile_mod, "clock", scripted)
    return scripted


def _fleet_run(policy, profile, duration_ns=SECOND):
    setup = StandardSetup(duration_ns=duration_ns, fast_pages=1_024)
    processes = build_fleet(setup, "pmbench", n_procs=2, pages_per_proc=256)
    return run_experiment(
        processes, policy, setup.run_config(), profile=profile
    )


def _originals(policy_cls):
    """Every class attribute a profile of ``policy_cls`` may wrap."""
    owners = [resolve(path) for paths in SECTIONS.values() for path in paths]
    owners += policy_hooks(policy_cls)
    owners.append((EventScheduler, "schedule"))
    return {(cls, attr): vars(cls)[attr] for cls, attr in owners}


class TestExclusiveTime:
    def test_nested_sections_get_their_own_time(self, clock):
        profile = Profile(kernel=None)
        accounting = profile._timed("accounting", lambda: clock.advance(5))

        def migrate():
            clock.advance(20)
            accounting()
            clock.advance(1)

        migrate = profile._timed("migrate", migrate)

        def policy():
            clock.advance(100)
            migrate()
            clock.advance(3)

        profile._timed("policy", policy)()
        assert profile.exclusive_ns == {
            "policy": 103, "migrate": 21, "accounting": 5,
        }
        assert profile._stack == []
        report = profile.report()
        assert list(report) == ["policy", "migrate", "accounting"]
        assert report["migrate"]["seconds"] == 21 / 1e9
        assert sum(row["share"] for row in report.values()) == (
            pytest.approx(1.0)
        )

    def test_a_call_that_raises_still_pops(self, clock):
        profile = Profile(kernel=None)

        def fault():
            clock.advance(7)
            raise RuntimeError("boom")

        fault = profile._timed("fault", fault)

        def policy():
            clock.advance(10)
            with pytest.raises(RuntimeError):
                fault()
            clock.advance(2)

        profile._timed("policy", policy)()
        assert profile.exclusive_ns == {"policy": 12, "fault": 7}
        assert profile._stack == []


class _TimerPolicy(TieringPolicy):
    """A policy whose only work is a 100 ms timer."""

    name = "timer-stub"
    TICK_NS = 1_000

    def __init__(self, fail_after=None):
        super().__init__()
        self.ticks = 0
        self.fail_after = fail_after

    def _configure(self, kernel) -> None:
        pass

    def start(self) -> None:
        kernel = self._require_kernel()
        kernel.scheduler.schedule(
            kernel.clock.now + 100 * MILLISECOND, self._tick, name="stub"
        )

    def _tick(self, now_ns: int) -> None:
        self.ticks += 1
        profile_mod.clock.advance(self.TICK_NS)
        if self.ticks == self.fail_after:
            raise RuntimeError("timer failed")
        self.kernel.scheduler.schedule(
            now_ns + 100 * MILLISECOND, self._tick, name="stub"
        )


class TestPolicyTimers:
    def test_timer_time_lands_in_policy(self, clock):
        policy = _TimerPolicy()
        result = _fleet_run(policy, profile=True)
        assert policy.ticks == 10
        assert result.profile["policy"] == {
            "seconds": policy.ticks * _TimerPolicy.TICK_NS / 1e9,
            "share": 1.0,
        }
        others = {k: v for k, v in result.profile.items() if k != "policy"}
        assert others and all(v["seconds"] == 0.0 for v in others.values())

    def test_only_the_policys_own_callbacks_are_timed(self):
        calls = []
        policy = _TimerPolicy()
        scheduler = EventScheduler()
        with Profile(_KernelStub(policy)):
            other = scheduler.schedule(5, calls.append, name="other")
            own = scheduler.schedule(5, policy._tick, name="stub")
        assert other.callback == calls.append
        assert own.callback != policy._tick


class _KernelStub:
    """The two kernel attributes an install reads."""

    def __init__(self, policy):
        self.policy = policy
        self.scanner = None


def _autotiering():
    """AutoTiering (it binds ``scanner.on_scan``) with a 1 s scan and
    background-demotion period, so both run within a short run."""
    return AutoTieringPolicy(scan_period_ns=SECOND, demote_period_ns=SECOND)


class TestInstallIsReversible:
    def test_after_a_run(self):
        before = _originals(AutoTieringPolicy)
        policy = _autotiering()
        result = _fleet_run(policy, profile=True, duration_ns=2 * SECOND)
        assert {"scan_pass", "policy"} <= set(result.profile)
        assert _originals(AutoTieringPolicy) == before
        scanner = policy.kernel.scanner
        assert vars(scanner)["on_scan"] == policy._on_scan

    def test_after_a_run_that_raises(self, monkeypatch):
        def failing_demote(self, now_ns):
            raise RuntimeError("daemon failed")

        monkeypatch.setattr(
            AutoTieringPolicy, "_background_demote", failing_demote
        )
        before = _originals(AutoTieringPolicy)
        policy = _autotiering()
        with pytest.raises(RuntimeError, match="daemon failed"):
            _fleet_run(policy, profile=True, duration_ns=2 * SECOND)
        assert _originals(AutoTieringPolicy) == before
        assert vars(policy.kernel.scanner)["on_scan"] == policy._on_scan

    def test_hooks_wrap_on_the_defining_class_only(self):
        # FlexMem inherits Memtis' on_quantum and overrides on_fault;
        # the base-class no-ops are never wrapped.
        from repro.policies.flexmem import FlexMemPolicy

        assert policy_hooks(FlexMemPolicy) == [
            (FlexMemPolicy, "on_fault"), (MemtisPolicy, "on_quantum"),
        ]
        assert policy_hooks(_TimerPolicy) == []
        assert policy_hooks(LinuxNUMABalancing) == [
            (LinuxNUMABalancing, "on_faults"),
            (LinuxNUMABalancing, "on_fault"),
        ]
        assert POLICY_HOOKS == (
            "on_faults", "on_fault", "on_lru_age", "on_quantum",
        )


class TestTable:
    def test_rows_are_the_profile_rows(self):
        assert set(SECTIONS) == ROWS

    @pytest.mark.parametrize(
        "path", [path for paths in SECTIONS.values() for path in paths]
    )
    def test_every_entry_is_defined_on_its_class(self, path):
        cls, attr = resolve(path)
        assert callable(vars(cls)[attr])

    def test_a_missing_entry_fails_the_install(self, monkeypatch):
        before = _originals(TieringPolicy)
        monkeypatch.setitem(
            SECTIONS, "engine",
            SECTIONS["engine"] + ("repro.harness.engine.QuantumEngine.gone",),
        )
        with pytest.raises(AttributeError, match="QuantumEngine.gone"):
            with Profile(_KernelStub(None)):
                pass
        # Every entry resolves before the first wrapper goes in.
        assert {key: vars(key[0])[key[1]] for key in before} == before


class TestTrajectoryUnchanged:
    """The contended config of ``TestPolicyTransientOracle``: 16
    processes of 256 pmbench pages over a 1,024-page fast tier, 2 s."""

    @staticmethod
    def _run(policy_name, profile, observer=None):
        setup = StandardSetup(
            duration_ns=2 * SECOND,
            fast_pages=1_024,
            scan_period_ns=SECOND // 2,
        )
        policy = setup.build_policy(policy_name)
        processes = build_fleet(
            setup, "pmbench", n_procs=16, pages_per_proc=256
        )
        return run_experiment(
            processes, policy, setup.run_config(), profile=profile,
            observer=observer,
        )

    @pytest.mark.parametrize("policy_name", policy_names())
    def test_profiled_run_is_bitwise_the_unprofiled_run(self, policy_name):
        plain = self._run(policy_name, profile=False)
        profiled = self._run(policy_name, profile=True)
        assert plain.profile is None
        assert profiled.throughput_per_sec == plain.throughput_per_sec
        assert profiled.fmar == plain.fmar
        assert (
            profiled.latency_summary["p99"] == plain.latency_summary["p99"]
        )
        assert profiled.stats == plain.stats
        assert set(profiled.profile) <= ROWS
        assert {"engine", "policy", "segment_fold"} <= set(profiled.profile)
        assert sum(r["share"] for r in profiled.profile.values()) == (
            pytest.approx(1.0)
        )

    def test_base_on_quantum_keeps_the_arena_loop_off(self):
        hooks = []

        def observe(engine, now):
            hooks.append(engine._arena._policy_hook)

        self._run("linux-nb", profile=True, observer=observe)
        assert hooks and all(hook is None for hook in hooks)
