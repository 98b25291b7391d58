"""Tests for DCSC's engine-boundary requantization."""

import numpy as np

from repro.core.dcsc import DcscCollector, DcscConfig
from repro.core.policy import ChronoPolicy
from repro.harness.engine import QuantumEngine
from repro.sim.rng import RngStreams
from repro.vm.fault import FaultBatch
from tests.conftest import make_kernel, make_process
from tests.test_core_dcsc import probed_faults


def make_collector():
    return DcscCollector(
        DcscConfig(victim_fraction=0.5, min_victims_per_process=8),
        RngStreams(3).get("requant"),
    )


class TestRequantize:
    def test_round_two_restarts_at_boundary(self):
        collector = make_collector()
        process = make_process(n_pages=32)
        collector.probe_process(process, now_ns=0)
        vpn = int(np.flatnonzero(process.pages.probed)[0])
        # Fault mid-quantum at t = 2_300.
        probed_faults(
            collector, process, np.array([vpn]), np.array([2_300]),
            np.array([2_300]), quantum_ns=1_000,
        )
        # Re-protection stamped at the *next* boundary (3_000).
        assert process.pages.scan_ts_ns[vpn] == 3_000

    def test_boundary_fault_moves_to_next_boundary(self):
        collector = make_collector()
        process = make_process(n_pages=32)
        collector.probe_process(process, now_ns=0)
        vpn = int(np.flatnonzero(process.pages.probed)[0])
        probed_faults(
            collector, process, np.array([vpn]), np.array([2_000]),
            np.array([2_000]), quantum_ns=1_000,
        )
        assert process.pages.scan_ts_ns[vpn] == 3_000


class TestEngineQuantum:
    def test_chrono_restarts_at_the_stepping_engines_boundary(self):
        """The engine stepping the kernel sets the quantum DCSC rounds
        to; no config copy can disagree with it."""
        kernel = make_kernel(fast_pages=64, slow_pages=512)
        process = make_process(n_pages=128)
        kernel.register_process(process)
        kernel.allocate_initial_placement()
        policy = ChronoPolicy(
            dcsc_config=DcscConfig(
                victim_fraction=0.05, min_victims_per_process=4
            )
        )
        kernel.set_policy(policy)
        QuantumEngine(kernel, quantum_ns=7_000)
        assert kernel.quantum_ns == 7_000
        policy.dcsc.probe_process(process, now_ns=0)
        vpn = int(np.flatnonzero(process.pages.probed)[0])
        policy.on_fault(
            process,
            FaultBatch(
                process.pid, np.array([vpn]), np.array([23_500]),
                np.array([100]),
            ),
        )
        assert process.pages.scan_ts_ns[vpn] == 28_000
