"""One-call experiment runner.

``run_experiment`` assembles a machine, a kernel, processes, and a policy,
runs the quantum engine (arena stepping by default, the reference engine
with ``fast_path=False``), and returns a :class:`RunResult` carrying every
metric the paper's figures read: throughput, FMAR, latency statistics,
kernel-time share, context-switch rate, promotion/demotion counters, and
the recorded time series (threshold/rate histories, DRAM-page
percentages).
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.harness.engine import Observer, QuantumEngine
from repro.kernel.kernel import Kernel
from repro.obs.hub import ObsHub
from repro.obs.profile import Profile
from repro.mem.machine import MachineSpec, TieredMachine
from repro.mem.tier import dram_spec, optane_spec
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.vm.process import SimProcess
from repro.workloads.base import table_cache_stats


@dataclass
class RunConfig:
    """Machine and engine parameters for one experiment run."""

    fast_pages: int = 4_096
    slow_pages: int = 12_288
    duration_ns: int = 30 * SECOND
    quantum_ns: int = 50 * MILLISECOND
    aging_period_ns: int = 10 * SECOND
    seed: int = 0
    stop_when_finished: bool = False
    #: real pages represented per simulated page; scales per-page kernel
    #: costs so overhead ratios match the full-size system
    page_scale: int = 1
    #: quantum fusion (event-horizon macro-quanta); ``False`` forces the
    #: per-quantum ``fusion_reference`` stepping mode (CLI ``--no-fusion``)
    fusion: bool = True

    def __post_init__(self) -> None:
        if self.fast_pages <= 0 or self.slow_pages <= 0:
            raise ValueError("tier capacities must be positive")
        if self.duration_ns <= 0 or self.quantum_ns <= 0:
            raise ValueError("durations must be positive")
        if self.page_scale < 1:
            raise ValueError("page scale must be at least 1")

    def build_machine(self) -> TieredMachine:
        return TieredMachine(
            MachineSpec(
                tiers=(
                    dram_spec(self.fast_pages),
                    optane_spec(self.slow_pages),
                ),
                page_scale=self.page_scale,
            )
        )


@dataclass
class RunSummary:
    """The serializable subset of a :class:`RunResult`.

    Everything here is plain JSON-compatible data -- no kernel or engine
    handles -- so summaries can cross process boundaries (the sweep
    layer's worker pool) and live in the on-disk result cache.
    """

    policy_name: str
    duration_ns: int
    throughput_per_sec: float
    fmar: float
    latency_summary: Dict[str, float]
    kernel_time_fraction: float
    context_switches_per_sec: float
    stats: Dict[str, float]
    per_process: List[Dict[str, float]]
    #: per-subsystem wall-time shares when the run was profiled
    profile: Optional[Dict[str, Dict[str, float]]] = None
    #: metrics-registry snapshot when the run carried an obs hub
    metrics: Optional[Dict[str, Any]] = None
    #: True when the summary was served from the result cache
    cached: bool = field(default=False, compare=False)

    def normalized_to(self, baseline: "RunSummary") -> float:
        """Throughput normalized to a baseline run (paper-style)."""
        if baseline.throughput_per_sec == 0:
            raise ValueError("baseline throughput is zero")
        return self.throughput_per_sec / baseline.throughput_per_sec

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data.pop("cached")
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSummary":
        fields = {
            "policy_name", "duration_ns", "throughput_per_sec", "fmar",
            "latency_summary", "kernel_time_fraction",
            "context_switches_per_sec", "stats", "per_process", "profile",
            "metrics",
        }
        return cls(**{k: data[k] for k in fields if k in data})


@dataclass
class RunResult:
    """Everything a figure needs from one run."""

    policy_name: str
    duration_ns: int
    throughput_per_sec: float
    fmar: float
    latency_summary: Dict[str, float]
    kernel_time_fraction: float
    context_switches_per_sec: float
    stats: Dict[str, float]
    per_process: List[Dict[str, float]]
    kernel: Kernel = field(repr=False)
    engine: QuantumEngine = field(repr=False)
    profile: Optional[Dict[str, Dict[str, float]]] = None
    metrics: Optional[Dict[str, Any]] = None

    def series(self, name: str):
        """A recorded time series by name (threshold/rate histories)."""
        return self.kernel.series.series(name)

    def normalized_to(self, baseline: "RunResult") -> float:
        """Throughput normalized to a baseline run (paper-style)."""
        if baseline.throughput_per_sec == 0:
            raise ValueError("baseline throughput is zero")
        return self.throughput_per_sec / baseline.throughput_per_sec

    def to_summary(self) -> RunSummary:
        """Drop the live kernel/engine handles; keep the metrics."""
        return RunSummary(
            policy_name=self.policy_name,
            duration_ns=self.duration_ns,
            throughput_per_sec=self.throughput_per_sec,
            fmar=self.fmar,
            latency_summary=dict(self.latency_summary),
            kernel_time_fraction=self.kernel_time_fraction,
            context_switches_per_sec=self.context_switches_per_sec,
            stats=dict(self.stats),
            per_process=[dict(row) for row in self.per_process],
            profile=self.profile,
            metrics=self.metrics,
        )


def run_experiment(
    processes: Sequence[SimProcess],
    policy,
    config: Optional[RunConfig] = None,
    cgroups: Optional[Sequence[Optional[str]]] = None,
    observer: Optional[Observer] = None,
    observe_every_ns: Optional[int] = None,
    profile: bool = False,
    fast_path: bool = True,
    obs: Optional[ObsHub] = None,
) -> RunResult:
    """Build the stack, run it, and summarize.

    Args:
        processes: the workload processes (pids must be unique).
        policy: an unattached tiering policy instance.
        config: machine/engine parameters.
        cgroups: optional per-process cgroup names (parallel list).
        observer / observe_every_ns: engine observation hook.
        profile: time ``engine.run`` under a
            :class:`~repro.obs.profile.Profile` and report per-subsystem
            wall-time shares on the result (``RunResult.profile``).
        fast_path: ``True`` (the default) steps through the arena;
            ``False`` runs the reference engine, the oracle the arena
            is checked against.
        obs: optional :class:`repro.obs.hub.ObsHub`; when provided the
            whole stack emits trace events and metrics into it, and the
            result carries the metrics snapshot.  The caller owns the
            hub and must :meth:`~repro.obs.hub.ObsHub.close` it to
            flush a streaming trace sink.
    """
    if not processes:
        raise ValueError("need at least one process")
    config = config or RunConfig()
    if cgroups is not None and len(cgroups) != len(processes):
        raise ValueError("cgroups list must parallel processes")

    kernel = Kernel(
        machine=config.build_machine(),
        rng=RngStreams(config.seed),
        aging_period_ns=config.aging_period_ns,
    )
    # The hub must be attached before set_policy: policies wire their
    # sub-collectors (DCSC, PEBS) to ``kernel.obs`` at configure time.
    kernel.obs = obs
    for index, process in enumerate(processes):
        group = cgroups[index] if cgroups is not None else None
        kernel.register_process(process, cgroup=group)
    kernel.allocate_initial_placement()
    kernel.set_policy(policy)

    engine = QuantumEngine(
        kernel,
        quantum_ns=config.quantum_ns,
        fast_path=fast_path,
        fusion=config.fusion,
    )
    # Profile the run only, after set_policy (see repro.obs.profile).
    timing = Profile(kernel) if profile else None
    with timing or contextlib.nullcontext():
        end_ns = engine.run(
            config.duration_ns,
            observer=observer,
            observe_every_ns=observe_every_ns,
            stop_when_finished=config.stop_when_finished,
        )
    result = summarize_run(policy, kernel, engine, end_ns)
    if timing is not None:
        result.profile = timing.report()
    return result


def summarize_run(
    policy, kernel: Kernel, engine: QuantumEngine, end_ns: int
) -> RunResult:
    """Collapse a finished run into a :class:`RunResult`."""
    duration_sec = end_ns / 1e9
    if kernel.obs is not None:
        # Compiled-table cache effectiveness at snapshot time: hits and
        # misses accumulate process-globally, bytes is the resident set.
        table_stats = table_cache_stats()
        kernel.obs.set_gauge(
            "workload.table_hits", table_stats["hits"]
        )
        kernel.obs.set_gauge(
            "workload.table_misses", table_stats["misses"]
        )
        kernel.obs.set_gauge(
            "workload.table_bytes", table_stats["bytes"]
        )
    total_accesses = sum(p.stats.accesses for p in kernel.processes)
    fast_accesses = sum(p.stats.fast_accesses for p in kernel.processes)
    fmar = fast_accesses / total_accesses if total_accesses else 0.0
    cpu_time = sum(p.stats.total_time_ns for p in kernel.processes)
    kernel_fraction = (
        kernel.stats.kernel_time_ns / cpu_time if cpu_time else 0.0
    )
    latency_summary = (
        engine.latency.summary()
        if engine.latency.total > 0
        else {"average": 0.0, "median": 0.0, "p99": 0.0}
    )
    per_process = [
        {
            "pid": p.pid,
            "accesses": p.stats.accesses,
            "throughput_per_sec": p.stats.accesses / duration_sec,
            "fmar": p.stats.fast_access_ratio(),
            "dram_page_pct": p.dram_page_percentage(),
            "promoted": p.stats.pages_promoted,
            "demoted": p.stats.pages_demoted,
        }
        for p in kernel.processes
    ]
    return RunResult(
        policy_name=getattr(policy, "name", str(policy)),
        duration_ns=end_ns,
        throughput_per_sec=total_accesses / duration_sec,
        fmar=fmar,
        latency_summary=latency_summary,
        kernel_time_fraction=kernel_fraction,
        context_switches_per_sec=(
            kernel.stats.context_switches / duration_sec
        ),
        stats=kernel.stats.snapshot(),
        per_process=per_process,
        kernel=kernel,
        engine=engine,
        metrics=(
            kernel.obs.snapshot() if kernel.obs is not None else None
        ),
    )
