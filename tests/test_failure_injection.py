"""Failure-injection and extreme-configuration tests.

The simulator must degrade gracefully: exhausted tiers, kernel-time
storms, single-page processes, and stale queue entries are all situations
a long experiment can reach.
"""

import numpy as np
import pytest

from repro.harness.engine import QuantumEngine
from repro.harness.experiments import StandardSetup, pmbench_processes
from repro.harness.runner import run_experiment
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.sim.timeunits import MILLISECOND, SECOND
from tests.conftest import make_kernel, make_process


class TestExhaustedTiers:
    def test_slow_tier_full_blocks_demotion_not_run(self):
        """With no slow-tier headroom the run completes; demotions are
        simply impossible."""
        kernel = make_kernel(fast_pages=128, slow_pages=128)
        process = make_process(n_pages=250)
        kernel.register_process(process)
        kernel.allocate_initial_placement()
        kernel.set_policy(
            __import__("repro.policies", fromlist=["make_policy"])
            .make_policy("linux-nb", scan_period_ns=SECOND,
                         scan_step_pages=64)
        )
        engine = QuantumEngine(kernel, quantum_ns=20 * MILLISECOND)
        engine.run(2 * SECOND)
        assert process.stats.accesses > 0

    def test_promotion_into_full_fast_tier_drops(self):
        kernel = make_kernel(fast_pages=16, slow_pages=256)
        process = make_process(n_pages=64)
        kernel.register_process(process)
        kernel.machine.fast.allocate(16)
        process.pages.tier[:16] = FAST_TIER
        kernel.machine.slow.allocate(48)
        moved = kernel.migration.promote(process, np.arange(16, 32))
        assert moved.size == 0
        assert kernel.stats.promotion_dropped == 16


class TestKernelStorms:
    def test_overcharged_process_still_terminates(self):
        kernel = make_kernel()
        process = make_process(n_pages=64)
        kernel.register_process(process)
        kernel.allocate_initial_placement()
        # A pathological charge: many quanta worth of kernel time.
        process.charge_kernel(5 * SECOND)
        engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
        engine.run(SECOND)
        assert process.stats.accesses == 0  # fully starved ...
        assert process.stats.kernel_time_ns > 0  # ... by kernel work
        assert process.pending_kernel_ns > 0  # still owes time

    def test_starved_process_recovers(self):
        kernel = make_kernel()
        process = make_process(n_pages=64)
        kernel.register_process(process)
        kernel.allocate_initial_placement()
        process.charge_kernel(float(SECOND // 2))
        engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
        engine.run(2 * SECOND)
        assert process.pending_kernel_ns == 0
        assert process.stats.accesses > 0


class TestDegenerateShapes:
    def test_single_page_process(self):
        kernel = make_kernel()
        process = make_process(n_pages=1)
        kernel.register_process(process)
        kernel.allocate_initial_placement()
        engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
        engine.run(SECOND)
        assert process.stats.accesses > 0

    def test_single_page_under_chrono(self):
        from repro.policies import make_policy

        kernel = make_kernel()
        process = make_process(n_pages=1)
        kernel.register_process(process)
        kernel.allocate_initial_placement()
        kernel.set_policy(
            make_policy(
                "chrono", scan_period_ns=SECOND, scan_step_pages=16,
                tune_period_ns=SECOND,
            )
        )
        engine = QuantumEngine(kernel, quantum_ns=50 * MILLISECOND)
        engine.run(2 * SECOND)
        assert process.stats.accesses > 0

    def test_tiny_machine_oversubscription_error_is_clear(self):
        kernel = make_kernel(fast_pages=4, slow_pages=4)
        kernel.register_process(make_process(n_pages=64))
        with pytest.raises(MemoryError):
            kernel.allocate_initial_placement()


class TestStaleQueueEntries:
    def test_queued_page_demoted_before_drain(self):
        """A queued promotion whose page moved meanwhile must not break
        the drain (it is simply promoted back or skipped)."""
        from repro.core.promotion import PromotionQueue

        kernel = make_kernel(fast_pages=64, slow_pages=256)
        process = make_process(n_pages=64)
        kernel.register_process(process)
        kernel.machine.slow.allocate(64)
        queue = PromotionQueue(1000.0)
        queue.enqueue([process], np.array([1, 2, 3]))
        # Page 2 gets promoted through another path first.
        kernel.migration.promote(process, np.array([2]))
        for proc, vpns in queue.drain(SECOND):
            moved = kernel.migration.promote(proc, vpns)
        # Pages 1 and 3 moved; 2 was already there (skipped silently).
        assert process.pages.tier[1] == FAST_TIER
        assert process.pages.tier[3] == FAST_TIER
        assert kernel.stats.pgpromote == 3


class TestDcscSaturation:
    def test_all_pages_probed_is_stable(self):
        from repro.core.dcsc import DcscCollector, DcscConfig
        from repro.sim.rng import RngStreams

        collector = DcscCollector(
            DcscConfig(victim_fraction=0.9, min_victims_per_process=64),
            RngStreams(1).get("sat"),
        )
        process = make_process(n_pages=64)
        for tick in range(4):
            collector.probe_process(process, now_ns=tick * 1000)
        assert process.pages.probed.sum() <= 64

    def test_seeded_full_runs_do_not_drift(self):
        """Two identical seeded runs with every subsystem active must be
        bit-identical (regression guard for hidden global state)."""
        def once():
            setup = StandardSetup(
                fast_pages=256, slow_pages=2048,
                duration_ns=4 * SECOND, page_scale=8,
            )
            return run_experiment(
                pmbench_processes(setup, n_procs=2, pages_per_proc=512),
                setup.build_policy("chrono"),
                setup.run_config(),
            ).stats

        assert once() == once()
