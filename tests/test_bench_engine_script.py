"""The engine benchmark script: its command line and its estimators."""

import importlib.util
import json
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.sim.timeunits import SECOND

SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "scripts"
    / "bench_engine.py"
)


def test_help_exits_zero():
    """``--help`` renders every option's help text: a literal percent
    sign in one of them would crash argparse's formatter."""
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "--quick" in done.stdout


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_engine", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_script()


def _script_host(monkeypatch, probe_cpu_s=None):
    """Script every host-speed sample the quanta/sec gate takes: the
    probe's fixed work takes ``probe_cpu_s`` CPU seconds (its nominal
    ``hostspeed.NOMINAL_S`` by default), so no test runs the probe."""
    nominal = bench.hostspeed.NOMINAL_S
    cpu = nominal if probe_cpu_s is None else probe_cpu_s
    monkeypatch.setattr(bench.hostspeed, "sample", lambda: (nominal, cpu))


class TestFusionEstimator:
    """The fusion speedup from interleaved pairs on a scripted clock:
    the host slows down linearly over the whole measurement and one run
    stalls, yet the median of the per-pair ratios stays within 5% of
    the true ratio."""

    FUSED_COST = 15.0
    PER_QUANTUM_COST = 27.0
    SLOWDOWN = 0.0012  # per scripted second: the host ends ~1.5x slower

    def _scripted(self, stall_run):
        now = [0.0]
        runs = [0]

        def prepare(cost):
            def run():
                now[0] += cost * (1.0 + self.SLOWDOWN * now[0])
                runs[0] += 1
                if runs[0] == stall_run:
                    now[0] += 100.0
                return cost
            return run

        return now, prepare

    @pytest.mark.parametrize("stall_run", [1, 2, 9, 18])
    def test_recovers_true_ratio(self, stall_run):
        now, prepare = self._scripted(stall_run)
        fused_s, per_quantum_s, _, _ = bench.interleaved_pairs(
            lambda: prepare(self.FUSED_COST),
            lambda: prepare(self.PER_QUANTUM_COST),
            bench.FUSION_PAIRS,
            clock=lambda: now[0],
        )
        assert len(fused_s) == len(per_quantum_s) == bench.FUSION_PAIRS
        speedup = float(np.median(
            bench.pair_speedups(fused_s, per_quantum_s, 100, 100)
        ))
        truth = self.PER_QUANTUM_COST / self.FUSED_COST
        assert abs(speedup / truth - 1.0) < 0.05

    def test_two_blocks_read_the_drift(self):
        """The estimator it replaces -- every fused run, then every
        per-quantum run, best of each -- reads the same host's drift
        as speedup."""
        now, prepare = self._scripted(stall_run=0)
        best = {}
        for cost in (self.FUSED_COST, self.PER_QUANTUM_COST):
            times = []
            for _ in range(bench.FUSION_PAIRS):
                run = prepare(cost)
                start = now[0]
                run()
                times.append(now[0] - start)
            best[cost] = min(times)
        blocks = best[self.PER_QUANTUM_COST] / best[self.FUSED_COST]
        truth = self.PER_QUANTUM_COST / self.FUSED_COST
        assert blocks / truth > 1.1

    def test_alternates_which_mode_runs_first(self):
        order = []
        bench.interleaved_pairs(
            lambda: lambda: order.append("a"),
            lambda: lambda: order.append("b"),
            4,
        )
        assert order == ["a", "b", "b", "a", "a", "b", "b", "a"]


class TestQuickGate:
    """``--quick`` times the committed baseline's headline config, the
    median of ``ENGINE_RUNS`` unprofiled runs, and gates that median."""

    BASELINE = {
        "config": {
            "policy": "tpp",
            "workload": "pmbench",
            "n_procs": 3,
            "pages_per_proc": 512,
            "duration_sec": 7.0,
        },
        "after": {"quanta_per_sec": 1000.0},
    }

    def _run(self, monkeypatch, tmp_path, rates):
        calls = []
        rates = iter(rates)

        def fake_time_engine(setup, policy_name, workload_kwargs,
                             fast_path, profile):
            calls.append(
                (setup.duration_ns, policy_name, dict(workload_kwargs),
                 fast_path, profile)
            )
            return {"cpu_sec": 1.0, "quanta": 140,
                    "quanta_per_sec": next(rates)}

        monkeypatch.setattr(bench, "time_engine", fake_time_engine)
        _script_host(monkeypatch)
        for gate in ("run_quick_sweep_gate", "run_quick_arena_gate",
                     "run_quick_trace_gate"):
            monkeypatch.setattr(bench, gate, lambda baseline: ({}, True))
        monkeypatch.setattr(
            bench, "run_quick_fusion_gate",
            lambda baseline, duration_ns: ({}, True),
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(self.BASELINE))
        out = tmp_path / "quick.json"
        # The command line's own config differs from the baseline's.
        code = bench.main([
            "--quick", "--policy", "chrono", "--procs", "8",
            "--duration", "5", "--baseline", str(baseline),
            "--out", str(out),
        ])
        return code, calls, json.loads(out.read_text())

    def test_times_the_baseline_config_median_of_five(
        self, monkeypatch, tmp_path
    ):
        code, calls, payload = self._run(
            monkeypatch, tmp_path, [900.0, 500.0, 2000.0, 1200.0, 800.0]
        )
        assert code == 0
        assert bench.ENGINE_RUNS == 5
        assert calls == [
            (7 * SECOND, "tpp", {"n_procs": 3, "pages_per_proc": 512},
             True, False)
        ] * 5
        assert payload["after"]["quanta_per_sec"] == 900.0
        assert payload["config"] == self.BASELINE["config"]

    def test_gates_the_median_not_the_best_run(
        self, monkeypatch, tmp_path
    ):
        code, _, payload = self._run(
            monkeypatch, tmp_path, [600.0, 2000.0, 650.0, 2000.0, 690.0]
        )
        assert payload["after"]["quanta_per_sec"] == 690.0
        assert code == 1


def _clocked_gate(
    monkeypatch, tmp_path, cpu_per_run, baseline, probe_cpu_s=None
):
    """``--quick`` on scripted clocks: every run of 140 quanta takes
    ``cpu_per_run`` CPU seconds and 10 wall seconds (the host stalls
    it), and every host-speed sample ``probe_cpu_s``."""
    clocks = {"wall": 0.0, "cpu": 0.0}

    def fake_run_experiment(processes, policy, config, fast_path,
                            profile):
        clocks["wall"] += 10.0  # the host stalls the run
        clocks["cpu"] += cpu_per_run
        return SimpleNamespace(
            engine=SimpleNamespace(quanta_run=140),
            throughput_per_sec=1.0, fmar=0.5, profile=None,
        )

    monkeypatch.setattr(
            bench, "time",
            SimpleNamespace(
                perf_counter=lambda: clocks["wall"],
                process_time=lambda: clocks["cpu"],
            ),
        )
    monkeypatch.setattr(bench, "run_experiment", fake_run_experiment)
    monkeypatch.setattr(bench, "build_fleet", lambda *a, **k: [])
    _script_host(monkeypatch, probe_cpu_s)
    for gate in ("run_quick_sweep_gate", "run_quick_arena_gate",
                 "run_quick_trace_gate"):
        monkeypatch.setattr(bench, gate, lambda baseline: ({}, True))
    monkeypatch.setattr(
        bench, "run_quick_fusion_gate",
        lambda baseline, duration_ns: ({}, True),
    )
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(baseline))
    out = tmp_path / "quick.json"
    code = bench.main([
        "--quick", "--baseline", str(path), "--out", str(out),
    ])
    return code, json.loads(out.read_text())


class TestQuickGateClock:
    """The quanta/sec gate reads the process CPU clock: on scripted
    clocks, a run the host stalls for 10 wall seconds still measures
    its CPU time, so the stall alone cannot fail the gate."""

    def test_wall_clock_stall_alone_passes(self, monkeypatch, tmp_path):
        # 140 quanta in 0.1 CPU s: 1,400 q/s against a 700 q/s floor,
        # where the stalled wall clock would read 14 q/s.
        code, payload = _clocked_gate(
            monkeypatch, tmp_path, 0.1, TestQuickGate.BASELINE
        )
        assert payload["after"]["quanta_per_sec"] == pytest.approx(1400.0)
        assert code == 0

    def test_slow_cpu_time_still_fails(self, monkeypatch, tmp_path):
        code, payload = _clocked_gate(
            monkeypatch, tmp_path, 0.4, TestQuickGate.BASELINE
        )
        assert payload["after"]["quanta_per_sec"] == pytest.approx(350.0)
        assert code == 1


class TestQuickGateHostSpeed:
    """Against a baseline that records its host slowdown, the gate
    multiplies each side's CPU quanta/sec by the slowdown that
    host-speed samples read between its own runs, so contention that
    slows the program and the probe alike cancels out; a baseline
    without one is compared raw."""

    BASELINE = dict(
        TestQuickGate.BASELINE,
        after={"quanta_per_sec": 1000.0, "host_slowdown": 1.0},
    )

    def test_host_slowdown_alone_passes(self, monkeypatch, tmp_path):
        # A host twice as slow: 140 quanta in 0.28 CPU s (500 q/s, below
        # the raw 700 q/s floor) while the probe takes twice its
        # nominal time, so the gate reads 1,000 q/s at nominal speed.
        probe = 2 * bench.hostspeed.NOMINAL_S
        code, payload = _clocked_gate(
            monkeypatch, tmp_path, 0.28, self.BASELINE, probe
        )
        assert payload["after"]["quanta_per_sec"] == pytest.approx(500.0)
        assert payload["after"]["host_slowdown"] == pytest.approx(2.0)
        assert payload["gated_quanta_per_sec"] == pytest.approx(
            [1000.0, 1000.0]
        )
        assert code == 0
        # The same runs against a baseline without a slowdown: raw.
        code, payload = _clocked_gate(
            monkeypatch, tmp_path, 0.28, TestQuickGate.BASELINE, probe
        )
        assert payload["gated_quanta_per_sec"] == pytest.approx(
            [500.0, 1000.0]
        )
        assert code == 1

    def test_slower_program_at_nominal_speed_fails(
        self, monkeypatch, tmp_path
    ):
        code, payload = _clocked_gate(
            monkeypatch, tmp_path, 0.28, self.BASELINE
        )
        assert payload["after"]["host_slowdown"] == pytest.approx(1.0)
        assert payload["gated_quanta_per_sec"] == pytest.approx(
            [500.0, 1000.0]
        )
        assert code == 1

    def test_baseline_from_a_slow_host_is_scaled_up(
        self, monkeypatch, tmp_path
    ):
        # The baseline read 500 q/s on a host 1.5x slower than nominal:
        # 750 q/s at nominal speed, a 525 q/s floor that 560 q/s passes.
        baseline = dict(
            TestQuickGate.BASELINE,
            after={"quanta_per_sec": 500.0, "host_slowdown": 1.5},
        )
        code, payload = _clocked_gate(
            monkeypatch, tmp_path, 0.25, baseline
        )
        assert payload["gated_quanta_per_sec"] == pytest.approx(
            [560.0, 750.0]
        )
        assert code == 0


class TestQuickFusionGate:
    """The --quick fused-throughput gate times the committed fusion
    section's own duration, so both sides of the floor measure the
    same runs; ``--duration`` applies only without a baseline."""

    @staticmethod
    def _gate(monkeypatch, baseline, fused_qps=1000.0):
        durations = []

        def fake_time_fusion(duration_ns):
            durations.append(duration_ns)
            run = {"quanta_per_sec": fused_qps, "fusion_ratio": 0.8}
            return {"fused": run, "per_quantum": run, "speedup": 1.5}

        monkeypatch.setattr(bench, "time_fusion", fake_time_fusion)
        section, ok = bench.run_quick_fusion_gate(baseline, 5 * SECOND)
        return durations, section, ok

    def test_times_the_baseline_fusion_duration(self, monkeypatch):
        baseline = {
            "fusion": {
                "config": {"duration_sec": 20.0},
                "fused": {"quanta_per_sec": 1600.0},
            }
        }
        durations, section, ok = self._gate(monkeypatch, baseline)
        assert durations == [20 * SECOND]
        assert section["baseline_fused_quanta_per_sec"] == 1600.0
        assert ok  # 1000 q/s clears the 50% floor of 1600

    def test_floor_still_gates(self, monkeypatch):
        baseline = {
            "fusion": {
                "config": {"duration_sec": 20.0},
                "fused": {"quanta_per_sec": 2400.0},
            }
        }
        _, _, ok = self._gate(monkeypatch, baseline)
        assert bench.FUSION_GATE_FRACTION == 0.5
        assert not ok  # 1000 q/s is below 1200

    @pytest.mark.parametrize(
        "baseline",
        [None, {}, {"fusion": {"fused": {"quanta_per_sec": 1600.0}}}],
    )
    def test_falls_back_to_the_command_line_duration(
        self, monkeypatch, baseline
    ):
        durations, section, ok = self._gate(monkeypatch, baseline)
        assert durations == [5 * SECOND]
        assert section["baseline_fused_quanta_per_sec"] is None
        assert ok
