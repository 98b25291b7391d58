"""Additional engine edge cases: contention feedback, phased workloads,
multi-policy quanta interplay."""

import numpy as np
import pytest

from repro.harness.engine import QuantumEngine
from repro.mem.machine import MachineSpec, TieredMachine
from repro.mem.tier import FAST_TIER, SLOW_TIER, dram_spec, optane_spec
from repro.kernel.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.process import SimProcess
from repro.workloads.base import TraceWorkload
from tests.conftest import StubWorkload, make_kernel, make_process


def build_kernel_with(processes, fast_pages=128, slow_pages=1024):
    kernel = make_kernel(fast_pages=fast_pages, slow_pages=slow_pages)
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    return kernel


class TestContentionFeedback:
    def test_saturation_self_limits(self):
        """When the slow tier saturates, throughput settles instead of
        oscillating: the last two half-second windows complete the same
        number of accesses.

        This config drives the slow tier far past its bandwidth, so the
        contention multiplier sits at its cap (``MAX_CONTENTION``) at
        every window edge: the test checks the capped steady state, not
        the feedback loop's convergence below the cap.
        """
        spec = MachineSpec(
            tiers=(
                dram_spec(64),
                # A deliberately tiny-bandwidth slow tier.
                optane_spec(2048),
            ),
        )
        machine = TieredMachine(spec)
        machine.bandwidth_bytes[SLOW_TIER] = 2e8  # 200 MB/s
        kernel = Kernel(machine=machine, rng=RngStreams(0))
        procs = [make_process(pid=i, n_pages=256) for i in range(8)]
        for p in procs:
            kernel.register_process(p)
        kernel.allocate_initial_placement()
        engine = QuantumEngine(kernel, quantum_ns=20 * MILLISECOND)
        windows = []
        for duration in (SECOND, SECOND // 2, SECOND // 2):
            before = sum(p.stats.accesses for p in procs)
            engine.run(duration)
            windows.append(sum(p.stats.accesses for p in procs) - before)
            assert engine._multipliers[SLOW_TIER] == machine.MAX_CONTENTION
        assert windows[-1] > 0
        assert windows[-1] == pytest.approx(windows[-2], rel=1e-9)
        # Latency reflects heavy contention on the slow tier.
        assert engine.latency.mean() > machine.slow.spec.read_latency_ns

    def test_contention_reduces_throughput(self):
        def run_with_bandwidth(bw):
            kernel = build_kernel_with(
                [make_process(pid=0, n_pages=256)]
            )
            kernel.machine.bandwidth_bytes[SLOW_TIER] = bw
            engine = QuantumEngine(kernel, quantum_ns=20 * MILLISECOND)
            engine.run(SECOND)
            return kernel.processes[0].stats.accesses

        fast_bus = run_with_bandwidth(1e11)
        slow_bus = run_with_bandwidth(1e8)
        assert slow_bus < fast_bus


class TestPhasedWorkloadsInEngine:
    def test_phase_shift_reflected_in_counters(self):
        phase_len = 500 * MILLISECOND
        workload = TraceWorkload(
            [
                (phase_len, np.array([1.0] + [0.0] * 63)),
                (phase_len, np.array([0.0] * 63 + [1.0])),
            ]
        )
        process = SimProcess(
            pid=0, workload=workload,
            rng=RngStreams(1).get("phase"),
        )
        kernel = build_kernel_with([process])
        engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
        engine.run(phase_len)
        first_phase = process.pages.access_count.copy()
        assert first_phase[0] > 0 and first_phase[63] == 0
        engine.run(phase_len)
        second = process.pages.access_count - first_phase
        assert second[63] > 0 and second[0] == 0


class TestMultiProcessFairness:
    def test_identical_processes_progress_equally(self):
        procs = [make_process(pid=i, n_pages=128, seed=7) for i in range(4)]
        kernel = build_kernel_with(procs, fast_pages=256, slow_pages=1024)
        engine = QuantumEngine(kernel, quantum_ns=20 * MILLISECOND)
        engine.run(SECOND)
        counts = [p.stats.accesses for p in procs]
        assert max(counts) < 1.1 * min(counts)

    def test_quantum_time_accounting_consistent(self):
        process = make_process(n_pages=128)
        kernel = build_kernel_with([process])
        engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
        engine.run(SECOND)
        # user + stall + kernel per process can never exceed wall time.
        assert process.stats.total_time_ns <= SECOND * 1.001
        # ... and with no kernel work it should be nearly fully busy.
        assert process.stats.total_time_ns > 0.98 * SECOND
