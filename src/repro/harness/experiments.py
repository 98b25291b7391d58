"""Canonical experiment configurations.

The paper's testbed (Section 5): Xeon Gold 6348, 64 GB DRAM + 256 GB Optane
PM (25% fast tier), 60 s scan period, minute-to-second-scale page access
frequencies.  The simulator runs a proportionally scaled analogue:

====================  ==================  ==========================
quantity              paper               simulation (standard)
====================  ==================  ==========================
pages                 ~10^7-10^8          4 K fast + 32 K slow sim
                                          pages (x64 page scale)
fast : total          25% (of machine)    matched via working set
scan period           60 s                5 s
per-page frequency    0.3-10 /s           30-10000 /s (x~100-1000)
CIT unit              1 ms                20 us
kernel event costs    1x                  x64 (page scale)
====================  ==================  ==========================

All ratios the results depend on -- scan period : access period, fast-tier
share, overhead : runtime, huge-page coverage -- are preserved; see
DESIGN.md for the substitution argument.  Every benchmark builds its
machine, policies, and workloads through this module so the scaling story
lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.dcsc import DcscConfig
from repro.harness.runner import (
    RunConfig,
    RunResult,
    RunSummary,
    run_experiment,
)
from repro.policies.registry import make_policy
from repro.sim.rng import RngStreams
from repro.sim.timeunits import MICROSECOND, MILLISECOND, SECOND
from repro.vm.process import SimProcess
from repro.workloads.graph500 import Graph500Workload
from repro.workloads.kvstore import KVStoreWorkload
from repro.workloads.multitenant import make_multitenant_processes
from repro.workloads.pmbench import PmbenchWorkload

#: the six systems of the main evaluation, in the paper's plot order
EVALUATED_POLICIES = (
    "linux-nb",
    "autotiering",
    "multiclock",
    "tpp",
    "memtis",
    "chrono",
)

#: every distinct tiering system the tournament ranks (the Chrono
#: ablation variants are deliberately excluded -- they answer a
#: different question than the cross-system leaderboard)
TOURNAMENT_POLICIES = (
    "linux-nb",
    "autotiering",
    "multiclock",
    "tpp",
    "memtis",
    "telescope",
    "flexmem",
    "nomad",
    "tierbpf",
    "arms",
    "jenga",
    "chrono",
)


@dataclass
class StandardSetup:
    """The calibrated scaled-down testbed parameters."""

    fast_pages: int = 4_096
    slow_pages: int = 32_768
    page_scale: int = 64
    scan_period_ns: int = 5 * SECOND
    scan_step_pages: int = 512
    aging_period_ns: int = SECOND
    quantum_ns: int = 50 * MILLISECOND
    duration_ns: int = 120 * SECOND
    tune_period_ns: int = 2 * SECOND
    cit_unit_ns: int = 20 * MICROSECOND
    dcsc_probe_period_ns: int = SECOND // 2
    dcsc_victim_fraction: float = 0.01
    dcsc_probe_timeout_ns: int = 4 * SECOND
    tpp_hint_latency_ns: int = 2 * MILLISECOND
    pebs_rate_per_sec: float = 512.0
    memtis_classify_ns: int = 2 * SECOND
    hp_pages: int = 8  # a real 2 MB region = 512 / page_scale sim pages
    seed: int = 0

    def run_config(self, **overrides) -> RunConfig:
        """A :class:`RunConfig` for this setup."""
        values = dict(
            fast_pages=self.fast_pages,
            slow_pages=self.slow_pages,
            duration_ns=self.duration_ns,
            quantum_ns=self.quantum_ns,
            aging_period_ns=self.aging_period_ns,
            page_scale=self.page_scale,
            seed=self.seed,
        )
        values.update(overrides)
        return RunConfig(**values)

    def dcsc_config(self, **overrides) -> DcscConfig:
        values = dict(
            cit_unit_ns=self.cit_unit_ns,
            probe_period_ns=self.dcsc_probe_period_ns,
            victim_fraction=self.dcsc_victim_fraction,
            probe_timeout_ns=self.dcsc_probe_timeout_ns,
        )
        values.update(overrides)
        return DcscConfig(**values)

    def build_policy(self, name: str, **overrides):
        """Build a policy with every knob scaled to this setup."""
        scan = dict(
            scan_period_ns=self.scan_period_ns,
            scan_step_pages=self.scan_step_pages,
        )
        if name.startswith("chrono"):
            kwargs = dict(
                **scan,
                # Parameters retune once per Ticking-scan period, as in
                # the paper (Section 3.2.1).
                tune_period_ns=self.scan_period_ns,
                dcsc_config=self.dcsc_config(),
                hp_pages=self.hp_pages,
            )
        elif name == "tpp":
            kwargs = dict(
                **scan, hint_fault_latency_ns=self.tpp_hint_latency_ns
            )
        elif name in ("linux-nb", "autotiering"):
            kwargs = dict(**scan)
        elif name == "multiclock":
            kwargs = {}
        elif name == "memtis":
            kwargs = dict(
                sample_rate_per_sec=self.pebs_rate_per_sec,
                classify_period_ns=self.memtis_classify_ns,
                split_budget_per_pass=1,
                split_skew_threshold=0.75,
                hp_pages=self.hp_pages,
            )
        elif name == "flexmem":
            kwargs = dict(
                **scan,
                hint_fault_latency_ns=self.tpp_hint_latency_ns,
                sample_rate_per_sec=self.pebs_rate_per_sec,
                classify_period_ns=self.memtis_classify_ns,
                split_budget_per_pass=1,
                split_skew_threshold=0.75,
                hp_pages=self.hp_pages,
            )
        elif name == "telescope":
            # The paper's fixed 200 ms window, scaled with the 12x scan
            # period compression.
            kwargs = dict(window_ns=50 * MILLISECOND, region_fanout=8)
        elif name == "nomad":
            kwargs = dict(
                **scan,
                # Reconcile a few times per tune period so shadow state
                # tracks the compressed migration cadence.
                reconcile_period_ns=self.tune_period_ns // 4,
            )
        elif name == "tierbpf":
            kwargs = dict(
                **scan,
                # Candidates must pay back within one scan round at the
                # compressed time scale.
                payback_horizon_ns=self.scan_period_ns,
            )
        elif name == "arms":
            kwargs = dict(
                **scan,
                initial_threshold_ns=self.tpp_hint_latency_ns,
                tune_period_ns=self.tune_period_ns,
            )
        elif name == "jenga":
            kwargs = dict(
                **scan,
                refractory_ns=2 * self.aging_period_ns,
                demote_period_ns=self.aging_period_ns,
            )
        else:
            kwargs = {}
        kwargs.update(overrides)
        return make_policy(name, **kwargs)


def pmbench_processes(
    setup: StandardSetup,
    n_procs: int = 8,
    pages_per_proc: int = 4_096,
    read_write_ratio: float = 0.95,
    pattern: str = "normal",
    stride: int = 2,
    sigma_fraction: float = 0.07,
    background_fraction: float = 0.10,
    delay_units: int = 0,
) -> List[SimProcess]:
    """The Section 5.1 pmbench fleet (scaled)."""
    streams = RngStreams(setup.seed)
    processes = []
    for pid in range(n_procs):
        workload = PmbenchWorkload(
            n_pages=pages_per_proc,
            pattern=pattern,
            stride=stride,
            read_write_ratio=read_write_ratio,
            sigma_fraction=sigma_fraction,
            background_fraction=background_fraction,
            delay_units=delay_units,
        )
        processes.append(
            SimProcess(
                pid=pid,
                workload=workload,
                rng=streams.spawn(f"pmbench-{pid}").get("access"),
                name=f"pmbench-{pid}",
            )
        )
    return processes


def graph500_processes(
    setup: StandardSetup,
    n_procs: int = 8,
    pages_per_proc: int = 3_072,
    write_fraction: float = 0.10,
) -> List[SimProcess]:
    """The Section 5.2 Graph500 fleet (scaled).

    Eight processes mirror the paper's multi-process Graph500 runs and
    keep the per-CPU hint-fault burden at the Figure 6 level.
    """
    streams = RngStreams(setup.seed)
    processes = []
    for pid in range(n_procs):
        workload = Graph500Workload(
            n_pages=pages_per_proc,
            write_fraction=write_fraction,
            # BFS levels outlast scan rounds at the paper's scale; keep
            # the same relation here (phase >= 2 scan periods).
            phase_len_ns=2 * setup.scan_period_ns,
            seed=setup.seed + pid,
        )
        processes.append(
            SimProcess(
                pid=pid,
                workload=workload,
                rng=streams.spawn(f"graph-{pid}").get("access"),
                name=f"graph500-{pid}",
            )
        )
    return processes


def kvstore_processes(
    setup: StandardSetup,
    flavor: str = "memcached",
    n_procs: int = 8,
    pages_per_proc: int = 3_072,
    set_get_ratio: float = 0.1,
) -> List[SimProcess]:
    """The Section 5.3 in-memory-database fleet (scaled).

    Eight worker processes model the server's worker threads: the paper's
    stores run many threads, so per-CPU fault-handling burden stays
    proportional to the Figure 6 setup.
    """
    streams = RngStreams(setup.seed)
    processes = []
    for pid in range(n_procs):
        workload = KVStoreWorkload(
            n_pages=pages_per_proc,
            set_get_ratio=set_get_ratio,
            flavor=flavor,
        )
        processes.append(
            SimProcess(
                pid=pid,
                workload=workload,
                rng=streams.spawn(f"{flavor}-{pid}").get("access"),
                name=f"{flavor}-{pid}",
            )
        )
    return processes


def shifting_hotspot_processes(
    setup: StandardSetup,
    n_procs: int = 8,
    pages_per_proc: int = 4_096,
    phase_len_ns: Optional[int] = None,
) -> List[SimProcess]:
    """Phase-changing hotspot fleet (the adaptation experiments)."""
    from repro.workloads.dynamic import shifting_hotspot

    streams = RngStreams(setup.seed)
    return [
        SimProcess(
            pid=pid,
            workload=shifting_hotspot(
                n_pages=pages_per_proc,
                phase_len_ns=(
                    phase_len_ns
                    if phase_len_ns is not None
                    else setup.duration_ns // 2
                ),
            ),
            rng=streams.spawn(f"shift-{pid}").get("access"),
            name=f"shift-{pid}",
        )
        for pid in range(n_procs)
    ]


def multitenant_processes(
    setup: StandardSetup,
    n_tenants: int = 50,
    pages_per_tenant: int = 1024,
    delay_step_units: int = 1,
    n_distinct: int = 1,
    read_write_ratio: float = 0.95,
    base_delay_units: int = 0,
) -> List[SimProcess]:
    """The Section 5.1.3 50-cgroup tenant fleet as a sweepable family.

    Tenant ``i`` stalls ``base_delay_units + i * delay_step_units``
    pmbench delay units per access, so hotness falls off linearly
    across the fleet from a common base.  The cgroup names the
    underlying helper pairs with each process are dropped here: the
    sweep layer registers processes without cgroup attribution, and
    callers that need the cgroup split (the Figure 9 reproduction) keep
    using :func:`repro.workloads.multitenant.make_multitenant_processes`
    directly.
    """
    pairs = make_multitenant_processes(
        n_tenants=n_tenants,
        pages_per_tenant=pages_per_tenant,
        delay_step_units=delay_step_units,
        read_write_ratio=read_write_ratio,
        seed=setup.seed,
        n_distinct=n_distinct,
        base_delay_units=base_delay_units,
    )
    return [process for process, _cgroup in pairs]


def traffic_processes(
    setup: StandardSetup,
    n_tenants: int = 64,
    n_users: int = 1_000_000,
    pages_per_tenant: int = 256,
    n_patterns: int = 8,
    zipf_s: float = 1.1,
    base_delay_units: int = 200,
    churn_fraction: float = 0.0,
    phase_shift_fraction: float = 0.0,
    **kwargs,
) -> List[SimProcess]:
    """The fleet-traffic-generator family (Zipf tenants, diurnal load).

    Thin adapter over
    :func:`repro.workloads.tracegen.make_traffic_processes` that feeds
    the setup's seed and run duration into the generator, so churn exit
    times and spawn lead-ins land inside the simulated window.  The
    default fleet (64 tenants x 256 pages) fits the standard machine,
    so trace-driven tournament and sweep cells work without sizing
    flags.
    """
    from repro.workloads.tracegen import make_traffic_processes

    return make_traffic_processes(
        n_tenants=n_tenants,
        n_users=n_users,
        pages_per_tenant=pages_per_tenant,
        n_patterns=n_patterns,
        zipf_s=zipf_s,
        base_delay_units=base_delay_units,
        churn_fraction=churn_fraction,
        phase_shift_fraction=phase_shift_fraction,
        duration_ns=setup.duration_ns,
        seed=setup.seed,
        **kwargs,
    )


#: named fleet builders the declarative sweep layer (and the CLI) can
#: reference; every builder takes ``(setup, **kwargs)`` and returns a
#: fresh process list
FLEET_BUILDERS = {
    "pmbench": pmbench_processes,
    "graph500": graph500_processes,
    "multitenant": multitenant_processes,
    "memcached": lambda setup, **kw: kvstore_processes(
        setup, flavor="memcached", **kw
    ),
    "redis": lambda setup, **kw: kvstore_processes(
        setup, flavor="redis", **kw
    ),
    "shifting-hotspot": shifting_hotspot_processes,
    "traffic": traffic_processes,
}


def fleet_names() -> List[str]:
    """The workload families the sweep layer knows how to build."""
    return sorted(FLEET_BUILDERS)


def build_fleet(
    setup: StandardSetup, workload: str, **kwargs
) -> List[SimProcess]:
    """Build a fresh process fleet for a named workload family."""
    try:
        builder = FLEET_BUILDERS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; "
            f"known: {', '.join(fleet_names())}"
        ) from None
    return builder(setup, **kwargs)


def run_policy_comparison(
    setup: StandardSetup,
    process_factory,
    policies: Sequence[str] = EVALUATED_POLICIES,
    config_overrides: Optional[dict] = None,
    policy_overrides: Optional[Dict[str, dict]] = None,
) -> Dict[str, RunResult]:
    """Run every policy on identical (freshly built) process fleets.

    ``process_factory()`` must return a fresh process list per call --
    processes carry mutable page state and cannot be reused across runs.
    """
    results: Dict[str, RunResult] = {}
    for name in policies:
        overrides = (policy_overrides or {}).get(name, {})
        policy = setup.build_policy(name, **overrides)
        results[name] = run_experiment(
            process_factory(),
            policy,
            setup.run_config(**(config_overrides or {})),
        )
    return results


def policy_comparison_cells(
    workload: str,
    policies: Sequence[str] = EVALUATED_POLICIES,
    seed: int = 0,
    workload_kwargs: Optional[dict] = None,
    setup_kwargs: Optional[dict] = None,
    config_overrides: Optional[dict] = None,
    policy_overrides: Optional[Dict[str, dict]] = None,
):
    """Declarative cells for a policy comparison on one workload.

    The sweep-layer analogue of :func:`run_policy_comparison`: the cells
    can fan out over a worker pool and hit the result cache.
    """
    from repro.harness.sweep import SweepCell

    return [
        SweepCell(
            policy=name,
            workload=workload,
            seed=seed,
            policy_kwargs=(policy_overrides or {}).get(name, {}),
            workload_kwargs=dict(workload_kwargs or {}),
            setup_kwargs=dict(setup_kwargs or {}),
            config_overrides=dict(config_overrides or {}),
            label=name,
        )
        for name in policies
    ]


def sweep_policy_comparison(
    workload: str,
    policies: Sequence[str] = EVALUATED_POLICIES,
    jobs: int = 1,
    use_cache: bool = True,
    profile: bool = False,
    share_tables: Optional[bool] = None,
    **cell_kwargs,
) -> Dict[str, "RunSummary"]:
    """Policy comparison through the parallel/cached sweep layer.

    Returns ``{policy: RunSummary}`` in the requested policy order; the
    summaries expose the same metric attributes the reporting tables
    read, so they are drop-in replacements for :class:`RunResult` there.
    ``share_tables=False`` disables the warm pool's shared workload
    tables (see :func:`repro.harness.sweep.iter_cells`).
    """
    from repro.harness.sweep import run_cells

    cells = policy_comparison_cells(
        workload, policies=policies, **cell_kwargs
    )
    summaries = run_cells(
        cells,
        jobs=jobs,
        use_cache=use_cache,
        profile=profile,
        share_tables=share_tables,
    )
    return dict(zip(policies, summaries))
