"""The benchmark's contended workloads.

Each workload turns a seed into generated inputs, builds the simulator
stack from them (the timed set-up), steps it and checks its outputs.
All of them are contended: the fast tier holds a fraction of the
working set, and scan, aging, reclaim and migration stay live.

* ``fleet96``: Chrono on 96 small pmbench processes sharing one
  distribution table -- arena stepping, a 96-member interning class and
  Chrono's fault/DCSC hooks all carry load.
* ``tenants1024``: linux-nb on a 1,024-tenant generated traffic fleet
  with churn and phase shifters -- fleet-scale set-up, many classes
  that reprice, and an aggregate fault draw that dominates.
* ``replay1m``: Chrono replaying a compiled raw-event trace of two
  524,288-page processes whose Zipf hotspot rotates through three
  phases -- per-page passes, memory, and a migration burst per phase.

``SMALL_SPECS`` keeps each workload's shape at test sizes.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.harness import experiments
from repro.harness.engine import QuantumEngine
from repro.harness.runner import RunResult, summarize_run
from repro.kernel.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.process import SimProcess
from repro.workloads import compile as trace_compile


@dataclass(frozen=True)
class Spec:
    """One workload: policy, machine and engine settings, and inputs."""

    name: str
    policy: str
    #: ``StandardSetup`` fields (tier sizes, periods, quantum, duration)
    setup: Dict[str, int]
    #: ``build_fleet`` family and keyword arguments; ``None`` for trace
    #: replay, whose processes come from the compiled event file
    fleet: Optional[str] = None
    fleet_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: synthetic event stream parameters (trace replay only)
    trace: Dict[str, int] = field(default_factory=dict)
    #: largest |default - reference| / reference a run may read on
    #: throughput, FMAR and mean latency; ``None`` where the default
    #: engine has a known bias (see :func:`check_fidelity`)
    ref_tolerance: Optional[float] = None


#: reference tolerance of the workloads the default engine models
#: faithfully; their seed spread is at most about 0.02 (replay1m) and
#: 0.007 (tenants1024), so a run past 0.1 has lost fidelity
FAITHFUL_TOLERANCE = 0.1


def _specs(small: bool) -> Dict[str, Spec]:
    scale = 8 if small else 1
    return {
        "fleet96": Spec(
            name="fleet96",
            policy="chrono",
            setup=dict(
                fast_pages=8_192 // scale,
                slow_pages=32_768 // scale,
                scan_period_ns=(1 if small else 5) * SECOND,
                aging_period_ns=SECOND,
                quantum_ns=5 * MILLISECOND,
                duration_ns=(3 if small else 10) * SECOND,
            ),
            fleet="pmbench",
            fleet_kwargs=dict(n_procs=96 // scale, pages_per_proc=256),
        ),
        "tenants1024": Spec(
            name="tenants1024",
            policy="linux-nb",
            setup=dict(
                fast_pages=65_536 // scale,
                slow_pages=262_144 // scale,
                aging_period_ns=SECOND // 2,
                quantum_ns=5 * MILLISECOND,
                duration_ns=SECOND,
            ),
            fleet="traffic",
            fleet_kwargs=dict(
                n_tenants=1_024 // scale,
                pages_per_tenant=256,
                n_patterns=8,
                churn_fraction=0.1,
                phase_shift_fraction=0.1,
            ),
            ref_tolerance=FAITHFUL_TOLERANCE,
        ),
        "replay1m": Spec(
            name="replay1m",
            policy="chrono",
            setup=dict(
                fast_pages=262_144 // scale**2,
                slow_pages=1_048_576 // scale**2,
                page_scale=1,
                scan_step_pages=65_536 // scale**2,
                quantum_ns=100 * MILLISECOND,
            ),
            trace=dict(
                n_pids=2,
                n_pages=524_288 // scale**2,
                n_events=4_000_000 // scale**2,
                n_phases=3,
                windows_per_phase=4 if small else 8,
            ),
            ref_tolerance=FAITHFUL_TOLERANCE,
        ),
    }


SPECS = _specs(small=False)
SMALL_SPECS = _specs(small=True)


@dataclass
class Inputs:
    """What a seed generates; the simulator is built from this alone."""

    seed: int
    #: raw event file (trace replay only)
    events_path: Optional[pathlib.Path] = None


@dataclass
class Stack:
    """A simulator built and ready for its first engine step."""

    spec: Spec
    kernel: Kernel
    engine: QuantumEngine
    policy: Any
    duration_ns: int
    #: phases compiled per trace pid (trace replay only)
    phases: List[int] = field(default_factory=list)


def make_inputs(spec: Spec, seed: int, workdir: pathlib.Path) -> Inputs:
    """Generate a workload's inputs from ``seed``.

    Fleet workloads are generated by their fleet builder inside the
    set-up, from the seed alone.  Trace replay writes a raw event
    ``.npz`` here, before any timing: one rotating-hotspot stream per
    pid, each from its own seed-derived stream.
    """
    if not spec.trace:
        return Inputs(seed=seed)
    params = spec.trace
    columns: Dict[str, List[np.ndarray]] = {
        "timestamp_ns": [], "pid": [], "vpn": [], "is_write": [],
    }
    for pid in range(params["n_pids"]):
        stream_seed = int(
            np.random.SeedSequence([seed, pid]).generate_state(1)[0]
        )
        for chunk in trace_compile.synthetic_event_stream(
            params["n_events"],
            n_pages=params["n_pages"],
            n_phases=params["n_phases"],
            pid=pid,
            windows_per_phase=params["windows_per_phase"],
            seed=stream_seed,
        ):
            timestamps, pids, vpns, is_write = chunk
            columns["timestamp_ns"].append(timestamps)
            columns["pid"].append(pids.astype(np.int8))
            columns["vpn"].append(vpns.astype(np.int32))
            columns["is_write"].append(is_write)
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{spec.name}-events.npz"
    np.savez(
        path, **{key: np.concatenate(parts) for key, parts in columns.items()}
    )
    return Inputs(seed=seed, events_path=path)


def build_stack(
    spec: Spec, inputs: Inputs, fast_path: bool = True
) -> Stack:
    """The timed set-up: generated inputs -> ready for the first step.

    Compiles the trace (replay) or builds the fleet and its tables,
    registers every process, places the initial pages, and attaches the
    policy.  ``fast_path=False`` builds the reference engine.
    """
    phases: List[int] = []
    if spec.trace:
        traces = trace_compile.compile_trace_file(inputs.events_path)
        streams = RngStreams(inputs.seed)
        processes = [
            SimProcess(
                pid=pid,
                workload=trace.to_workload(),
                rng=streams.spawn(f"replay-{pid}").get("access"),
                name=f"replay-{pid}",
            )
            for pid, trace in sorted(traces.items())
        ]
        phases = [trace.n_phases for _, trace in sorted(traces.items())]
        duration_ns = max(trace.total_ns for trace in traces.values())
        setup = experiments.StandardSetup(
            seed=inputs.seed, duration_ns=duration_ns, **spec.setup
        )
    else:
        setup = experiments.StandardSetup(seed=inputs.seed, **spec.setup)
        duration_ns = setup.duration_ns
        processes = experiments.build_fleet(
            setup, spec.fleet, **spec.fleet_kwargs
        )
    config = setup.run_config()
    kernel = Kernel(
        machine=config.build_machine(),
        rng=RngStreams(config.seed),
        aging_period_ns=config.aging_period_ns,
    )
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    policy = setup.build_policy(spec.policy)
    kernel.set_policy(policy)
    engine = QuantumEngine(
        kernel, quantum_ns=config.quantum_ns, fast_path=fast_path
    )
    return Stack(
        spec=spec,
        kernel=kernel,
        engine=engine,
        policy=policy,
        duration_ns=duration_ns,
        phases=phases,
    )


def policy_class(spec: Spec) -> type:
    """The class of the policy a workload attaches (for tracing)."""
    return type(experiments.StandardSetup().build_policy(spec.policy))


def summarize(stack: Stack, end_ns: int) -> RunResult:
    """Summarize a stack whose engine ran until ``end_ns``."""
    return summarize_run(stack.policy, stack.kernel, stack.engine, end_ns)


def model_stats(result: RunResult) -> Dict[str, float]:
    """The simulated (not host) statistics of one run, exact values."""
    stats = result.stats
    return {
        "throughput": result.throughput_per_sec,
        "fmar": result.fmar,
        "lat_mean_ns": result.latency_summary["average"],
        "lat_p99_ns": result.latency_summary["p99"],
        "promoted": stats["pgpromote"],
        "promotion_dropped": stats["promotion_dropped"],
        "demoted": stats["pgdemote"],
        "hint_faults": stats["hint_faults"],
        "pages_scanned": stats["pages_scanned"],
        "quanta": result.engine.quanta_run,
        "fused_quanta": result.engine.fused_quanta,
        "steps": result.engine.steps_run,
    }


def check(stack: Stack, result: RunResult) -> List[str]:
    """Check one run's outputs; returns the failed checks (empty: ok).

    The accesses booked on the processes' stats are checked against two
    totals the engine keeps apart from them: the ground-truth per-page
    counters, and the access mass of the fleet's latency mixture.
    """
    failures = []
    throughput = result.throughput_per_sec
    if not (np.isfinite(throughput) and throughput > 0):
        failures.append(f"throughput {throughput!r} not finite positive")
    if not 0.0 <= result.fmar <= 1.0:
        failures.append(f"fmar {result.fmar!r} outside [0, 1]")
    expected_quanta = stack.duration_ns // stack.engine.quantum_ns
    if result.engine.quanta_run != expected_quanta:
        failures.append(
            f"quanta {result.engine.quanta_run} != {expected_quanta}"
        )
    booked = sum(row["accesses"] for row in result.per_process)
    ledger = sum(
        float(process.pages.access_count.sum())
        for process in stack.kernel.processes
    )
    if not np.isclose(booked, ledger, rtol=1e-6, atol=1.0):
        failures.append(f"process accesses {booked} != ledger {ledger}")
    fleet_total = stack.engine.latency.total
    if not np.isclose(booked, fleet_total, rtol=1e-9):
        failures.append(f"process accesses {booked} != fleet {fleet_total}")
    if not result.fmar < 1.0:
        failures.append("fast tier not contended (fmar == 1)")
    if not result.stats["pgpromote"] > 0:
        failures.append("no page promoted")
    if not result.stats["pages_scanned"] > 0:
        failures.append("scanner marked no page")
    if stack.duration_ns < stack.kernel.aging_period_ns:
        failures.append("run shorter than one aging period")
    if stack.spec.trace:
        want = stack.spec.trace["n_phases"]
        if stack.phases != [want] * stack.spec.trace["n_pids"]:
            failures.append(f"compiled phases {stack.phases} != {want}")
    return failures


#: reference-error metric -> the model statistic it compares
REF_ERR_STATS = {
    "ref_err_throughput": "throughput",
    "ref_err_fmar": "fmar",
    "ref_err_lat_mean": "lat_mean_ns",
}


def check_fidelity(
    spec: Spec, model: Dict[str, float], reference: Dict[str, float]
) -> List[str]:
    """Check a default run against the reference run of its seed.

    On a workload with a ``ref_tolerance``, every statistic of
    :data:`REF_ERR_STATS` must lie within that share of the reference.
    """
    if spec.ref_tolerance is None:
        return []
    failures = []
    for stat in REF_ERR_STATS.values():
        error = abs(model[stat] - reference[stat]) / reference[stat]
        if not error <= spec.ref_tolerance:
            failures.append(
                f"{stat} off the reference by {error:.4f} "
                f"> {spec.ref_tolerance}"
            )
    return failures
