"""Command-line interface: ``chrono-sim``.

Nine subcommands:

* ``chrono-sim run`` -- one experiment (policy x workload), printing the
  headline metrics (optionally as JSON).  ``--profile`` adds
  per-subsystem wall-time shares, ``--trace FILE`` streams structured
  events to a JSONL file, ``--metrics`` reports the metrics-registry
  snapshot, and ``--observe FILE`` turns all three on at once.
* ``chrono-sim trace`` -- filter and aggregate a JSONL trace written by
  ``run --trace``: event-type summary, per-epoch migration counts, and
  per-page timelines (``--page PID:VPN``).
* ``chrono-sim compare`` -- several policies on identical fleets,
  printing the paper-style normalized tables; ``--jobs N`` fans the
  policies out over a worker pool through the sweep layer.
* ``chrono-sim sweep`` -- a (policy x seed) grid through the parallel
  sweep layer with result caching; ``--progress`` streams per-cell
  timing and an ETA as cells complete.
* ``chrono-sim tournament`` -- every registered tiering system across
  several workload families, scored against per-workload all-DRAM
  reference runs and ranked by geomean slowdown; prints the
  leaderboard and writes a JSON artifact.
* ``chrono-sim replay`` -- compile recorded traces (window ``.npz``,
  event ``.npz``, or event ``.csv``) through the trace compiler and
  replay them on the fused fast path under any policy.
* ``chrono-sim traffic`` -- the fleet traffic generator: Zipf tenant
  popularity, diurnal load, churn, and scripted phase shifts on the
  arena fast path.
* ``chrono-sim policies`` -- the available tiering systems and the
  Table 1 characteristics.
* ``chrono-sim defaults`` -- Chrono's Table 2 parameter defaults.

Every simulation steps through the engine's arena
(:mod:`repro.harness.arena`); ``--no-fusion`` keeps it at one step per
quantum for equivalence checks.

The event schema and metric catalogue behind ``--trace``/``--metrics``
are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.harness.experiments import (
    EVALUATED_POLICIES,
    TOURNAMENT_POLICIES,
    StandardSetup,
    build_fleet,
    policy_comparison_cells,
    sweep_policy_comparison,
)
from repro.harness.reporting import (
    attribution_table,
    format_table,
    latency_table,
    throughput_table,
)
from repro.harness.runner import run_experiment
from repro.harness.sweep import default_jobs, iter_cells
from repro.obs.hub import ObsHub
from repro.obs.tracefile import (
    epoch_migrations,
    page_timeline,
    read_events,
    summarize,
)
from repro.policies.registry import (
    characteristics_table,
    make_policy,
    policy_names,
)
from repro.sim.timeunits import MILLISECOND, SECOND

WORKLOADS = (
    "pmbench", "graph500", "memcached", "multitenant", "redis",
    "shifting-hotspot", "traffic",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the ``chrono-sim`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="chrono-sim",
        description=(
            "Chrono (EuroSys '25) tiered-memory simulator: run tiering "
            "policies against synthetic memory-intensive workloads."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_machine_args(run_p)
    run_p.add_argument(
        "--policy", default="chrono", choices=policy_names(),
        help="tiering policy (default: chrono)",
    )
    run_p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a table",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="report per-subsystem wall-time shares",
    )
    run_p.add_argument(
        "--trace", metavar="FILE",
        help="stream structured trace events to FILE (JSONL; see "
        "docs/OBSERVABILITY.md for the event schema)",
    )
    run_p.add_argument(
        "--metrics", action="store_true",
        help="collect and report the metrics-registry snapshot",
    )
    run_p.add_argument(
        "--observe", metavar="FILE",
        help="one-flag observability: implies --profile --metrics "
        "--trace FILE",
    )

    trace_p = sub.add_parser(
        "trace",
        help="filter/aggregate a JSONL trace from `run --trace`",
    )
    trace_p.add_argument("file", help="JSONL trace file to read")
    trace_p.add_argument(
        "--epoch-sec", type=float, default=1.0, metavar="SEC",
        help="epoch length for the migration timeline (default: 1.0)",
    )
    trace_p.add_argument(
        "--page", metavar="PID:VPN",
        help="print the event timeline of one page instead of the "
        "aggregate views",
    )
    trace_p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of tables",
    )

    cmp_p = sub.add_parser(
        "compare", help="run several policies on identical fleets"
    )
    _add_machine_args(cmp_p)
    cmp_p.add_argument(
        "--policies", nargs="+", default=list(EVALUATED_POLICIES),
        choices=policy_names(), metavar="POLICY",
        help="policies to compare (default: the paper's six)",
    )
    cmp_p.add_argument(
        "--baseline", default="linux-nb",
        help="normalization baseline (default: linux-nb)",
    )
    _add_sweep_args(cmp_p)
    cmp_p.add_argument(
        "--profile", action="store_true",
        help="append per-policy subsystem wall-time shares",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="run a (policy x seed) grid through the parallel sweep "
        "layer with result caching",
    )
    _add_machine_args(sweep_p)
    sweep_p.add_argument(
        "--policies", nargs="+", default=list(EVALUATED_POLICIES),
        choices=policy_names(), metavar="POLICY",
        help="policies to sweep (default: the paper's six)",
    )
    sweep_p.add_argument(
        "--seeds", type=int, nargs="+", default=[0], metavar="SEED",
        help="seeds to sweep (default: 0)",
    )
    sweep_p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a table",
    )
    sweep_p.add_argument(
        "--progress", action="store_true",
        help=(
            "stream one line per completed cell (wall time, result "
            "source, ETA) to stderr while the grid runs"
        ),
    )
    _add_sweep_args(sweep_p)

    tour_p = sub.add_parser(
        "tournament",
        help="rank every tiering system across workload families "
        "against all-DRAM references",
    )
    tour_p.add_argument(
        "--policies", nargs="+", default=list(TOURNAMENT_POLICIES),
        choices=policy_names(), metavar="POLICY",
        help="policies to rank (default: all 12 distinct systems)",
    )
    tour_p.add_argument(
        "--workloads", nargs="+", metavar="WORKLOAD",
        default=["pmbench", "graph500", "memcached"],
        choices=WORKLOADS,
        help="workload families (default: pmbench graph500 memcached)",
    )
    tour_p.add_argument(
        "--seeds", type=int, nargs="+", default=[0], metavar="SEED",
        help="seeds per (policy, workload) cell (default: 0)",
    )
    tour_p.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds per cell (default: 60)")
    tour_p.add_argument("--fast-pages", type=int, default=4_096,
                        help="fast-tier capacity (default: 4096)")
    tour_p.add_argument("--slow-pages", type=int, default=32_768,
                        help="slow-tier capacity (default: 32768)")
    tour_p.add_argument("--page-scale", type=int, default=64,
                        help="real pages per simulated page (default: 64)")
    tour_p.add_argument(
        "--no-fusion", action="store_true",
        help="disable event-horizon quantum fusion in every cell",
    )
    tour_p.add_argument(
        "--out", metavar="FILE", default="tournament.json",
        help="leaderboard JSON artifact path (default: "
        "tournament.json)",
    )
    tour_p.add_argument(
        "--json", action="store_true",
        help="print the JSON artifact to stdout instead of the table",
    )
    tour_p.add_argument(
        "--progress", action="store_true",
        help="stream one line per completed cell to stderr",
    )
    _add_sweep_args(tour_p)

    replay_p = sub.add_parser(
        "replay",
        help="compile recorded traces and replay them on the fused "
        "fast path",
    )
    replay_p.add_argument(
        "files", nargs="+", metavar="FILE",
        help="trace files: recorder window .npz, event .npz "
        "(timestamp_ns/pid/vpn/is_write), or event .csv",
    )
    replay_p.add_argument(
        "--policy", default="chrono", choices=policy_names(),
        help="tiering policy (default: chrono)",
    )
    replay_p.add_argument(
        "--window-ms", type=float, default=None, metavar="MS",
        help="binning window for event-format traces (default: 1000; "
        "window-format traces always use their recorded interval)",
    )
    replay_p.add_argument(
        "--threshold", type=float, default=0.25,
        help="total-variation change-point threshold for phase "
        "segmentation (default: 0.25)",
    )
    replay_p.add_argument(
        "--delay-units", type=int, default=0,
        help="per-access think time added to every replayed process, "
        "in pmbench delay units (default: 0)",
    )
    replay_p.add_argument(
        "--duration", type=float, default=0.0,
        help="simulated seconds (default: one full replay cycle of "
        "the longest compiled trace)",
    )
    replay_p.add_argument("--fast-pages", type=int, default=4_096,
                          help="fast-tier capacity (default: 4096)")
    replay_p.add_argument("--slow-pages", type=int, default=32_768,
                          help="slow-tier capacity (default: 32768)")
    replay_p.add_argument(
        "--page-scale", type=int, default=64,
        help="real pages per simulated page (default: 64)",
    )
    replay_p.add_argument("--seed", type=int, default=0,
                          help="root RNG seed (default: 0)")
    replay_p.add_argument(
        "--no-fusion", action="store_true",
        help="disable event-horizon quantum fusion",
    )
    replay_p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a table",
    )

    traffic_p = sub.add_parser(
        "traffic",
        help="run the fleet traffic generator (Zipf tenants, diurnal "
        "load, churn, phase shifts) under one policy",
    )
    _add_machine_args(traffic_p)
    traffic_p.add_argument(
        "--policy", default="chrono", choices=policy_names(),
        help="tiering policy (default: chrono)",
    )
    traffic_p.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of a table",
    )

    sub.add_parser("policies", help="list policies and Table 1")
    sub.add_parser("defaults", help="print Chrono's Table 2 defaults")
    return parser


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", default="pmbench", choices=WORKLOADS,
        help="workload family (default: pmbench)",
    )
    parser.add_argument("--procs", type=int, default=8,
                        help="number of processes (default: 8)")
    parser.add_argument("--pages", type=int, default=4_096,
                        help="pages per process (default: 4096)")
    parser.add_argument("--rw-ratio", type=float, default=0.95,
                        help="read share for pmbench (default: 0.95)")
    parser.add_argument(
        "--tenants", type=int, default=50,
        help="tenant count for the multitenant workload (default: 50)",
    )
    parser.add_argument(
        "--delay-step-units", type=int, default=1,
        help="per-tenant pmbench delay step for the multitenant "
        "workload: tenant i stalls i*STEP delay units per access "
        "(default: 1)",
    )
    parser.add_argument(
        "--base-delay-units", type=int, default=0,
        help="uniform pmbench think time added to every multitenant "
        "tenant on top of the per-tenant stagger (default: 0)",
    )
    parser.add_argument(
        "--distinct-tables", type=int, default=1,
        help="distinct distribution tables shared round-robin across "
        "multitenant tenants (default: 1)",
    )
    parser.add_argument(
        "--users", type=int, default=1_000_000,
        help="simulated users mapped onto traffic-workload tenants "
        "via Zipf popularity (default: 1000000)",
    )
    parser.add_argument(
        "--patterns", type=int, default=8,
        help="distinct shared page-popularity tables for the traffic "
        "workload (default: 8)",
    )
    parser.add_argument(
        "--zipf", type=float, default=1.1,
        help="Zipf exponent of traffic-workload tenant popularity "
        "(default: 1.1)",
    )
    parser.add_argument(
        "--churn-fraction", type=float, default=0.0,
        help="fraction of traffic-workload tenants that churn: half "
        "exit mid-run, half spawn mid-run (default: 0)",
    )
    parser.add_argument(
        "--shift-fraction", type=float, default=0.0,
        help="fraction of traffic-workload tenants with scripted "
        "phase shifts between two pattern tables (default: 0)",
    )
    parser.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds (default: 60)")
    parser.add_argument("--fast-pages", type=int, default=4_096,
                        help="fast-tier capacity (default: 4096)")
    parser.add_argument("--slow-pages", type=int, default=32_768,
                        help="slow-tier capacity (default: 32768)")
    parser.add_argument("--page-scale", type=int, default=64,
                        help="real pages per simulated page (default: 64)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root RNG seed (default: 0)")
    parser.add_argument(
        "--no-fusion", action="store_true",
        help=(
            "disable event-horizon quantum fusion (per-quantum "
            "reference stepping; slower, for equivalence checking)"
        ),
    )


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0 (0 picks one worker per core)"
        )
    return jobs


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help=(
            "worker processes for the experiment grid "
            f"(default: 1; this host would use {default_jobs()} "
            "with --jobs 0)"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    parser.add_argument(
        "--no-shm", action="store_true",
        help=(
            "do not share compiled workload tables with sweep workers "
            "(each worker rebuilds its own copy)"
        ),
    )


def _setup_from_args(args) -> StandardSetup:
    return StandardSetup(
        fast_pages=args.fast_pages,
        slow_pages=args.slow_pages,
        page_scale=args.page_scale,
        duration_ns=int(args.duration * SECOND),
        seed=args.seed,
    )


def _setup_kwargs(args) -> dict:
    """StandardSetup overrides for declarative sweep cells (sans seed)."""
    return dict(
        fast_pages=args.fast_pages,
        slow_pages=args.slow_pages,
        page_scale=args.page_scale,
        duration_ns=int(args.duration * SECOND),
    )


def _config_overrides(args) -> dict:
    """RunConfig overrides derived from engine-mode flags."""
    overrides = {}
    if args.no_fusion:
        overrides["fusion"] = False
    return overrides


def _workload_kwargs(args) -> dict:
    if args.workload == "multitenant":
        return dict(
            n_tenants=args.tenants,
            pages_per_tenant=args.pages,
            delay_step_units=args.delay_step_units,
            n_distinct=args.distinct_tables,
            read_write_ratio=args.rw_ratio,
            base_delay_units=args.base_delay_units,
        )
    if args.workload == "traffic":
        return dict(
            n_tenants=args.tenants,
            n_users=args.users,
            pages_per_tenant=args.pages,
            n_patterns=args.patterns,
            zipf_s=args.zipf,
            # the multitenant flag's 0 default means "unset" here: the
            # traffic generator needs a positive think-time base
            base_delay_units=args.base_delay_units or 200,
            churn_fraction=args.churn_fraction,
            phase_shift_fraction=args.shift_fraction,
        )
    kwargs = dict(n_procs=args.procs, pages_per_proc=args.pages)
    if args.workload == "pmbench":
        kwargs["read_write_ratio"] = args.rw_ratio
    return kwargs


def _resolve_jobs(jobs: int) -> int:
    return default_jobs() if jobs == 0 else jobs


def cmd_run(args) -> int:
    """Run one experiment and print (or JSON-dump) its metrics."""
    if args.observe:
        args.profile = True
        args.metrics = True
        args.trace = args.trace or args.observe
    setup = _setup_from_args(args)
    policy = setup.build_policy(args.policy)
    processes = build_fleet(
        setup, args.workload, **_workload_kwargs(args)
    )
    hub = None
    if args.trace or args.metrics:
        hub = ObsHub.create(trace_sink=args.trace, metrics=args.metrics)
    try:
        result = run_experiment(
            processes, policy, setup.run_config(**_config_overrides(args)),
            profile=args.profile, obs=hub,
        )
    finally:
        if hub is not None:
            hub.close()
    if args.json:
        payload = {
            "policy": result.policy_name,
            "workload": args.workload,
            "duration_sec": result.duration_ns / 1e9,
            "throughput_per_sec": result.throughput_per_sec,
            "fmar": result.fmar,
            "latency_ns": result.latency_summary,
            "kernel_time_fraction": result.kernel_time_fraction,
            "context_switches_per_sec": (
                result.context_switches_per_sec
            ),
            "counters": result.stats,
        }
        if args.profile:
            payload["profile"] = result.profile
        if args.metrics:
            payload["metrics"] = result.metrics
        print(json.dumps(payload, indent=2))
    else:
        print(f"policy            {result.policy_name}")
        print(f"workload          {args.workload}")
        print(f"simulated         {result.duration_ns / 1e9:.1f} s")
        print(
            f"throughput        {result.throughput_per_sec:.3e} ops/s"
        )
        print(f"FMAR              {100 * result.fmar:.1f} %")
        print(
            "latency avg/med/p99  "
            + " / ".join(
                f"{result.latency_summary[k]:.0f} ns"
                for k in ("average", "median", "p99")
            )
        )
        print(
            f"kernel time       "
            f"{100 * result.kernel_time_fraction:.1f} %"
        )
        print(
            f"promoted/demoted  {result.stats['pgpromote']:.0f} / "
            f"{result.stats['pgdemote']:.0f} pages"
        )
        if args.profile and result.profile:
            print()
            print("wall-time profile")
            print(_profile_table(result.profile))
        if args.metrics and result.metrics:
            print()
            print(_metrics_tables(result.metrics))
        if args.trace:
            print()
            print(f"trace written to {args.trace}")
    return 0


def _profile_table(profile: dict) -> str:
    """Format profile rows, hottest subsystem first.

    ``Profiler.report`` already orders its dict by descending
    wall-time, but profiles that round-tripped through JSON (the result
    cache, sweep workers) carry no ordering guarantee, so sort here.
    """
    rows = [
        [name, row["seconds"], 100.0 * row["share"]]
        for name, row in sorted(
            profile.items(), key=lambda item: -item[1]["seconds"]
        )
    ]
    return format_table(["subsystem", "seconds", "share %"], rows)


def _metrics_tables(metrics: dict) -> str:
    """Format a metrics snapshot: counters, gauges, histograms."""
    parts = []
    counters = [
        [name, value]
        for name, value in sorted(metrics["counters"].items())
        if value
    ]
    if counters:
        parts.append(format_table(["counter", "value"], counters,
                                  title="metrics: counters (nonzero)"))
    gauges = [
        [name, value]
        for name, value in sorted(metrics["gauges"].items())
    ]
    if gauges:
        parts.append(format_table(["gauge", "value"], gauges,
                                  title="metrics: gauges"))
    histograms = [
        [name, hist["total"], hist["sum"] / hist["total"]]
        for name, hist in sorted(metrics["histograms"].items())
        if hist["total"]
    ]
    if histograms:
        parts.append(format_table(["histogram", "count", "mean"],
                                  histograms,
                                  title="metrics: histograms"))
    return "\n\n".join(parts) if parts else "metrics: all zero"


def _parse_page_arg(value: str) -> tuple:
    """Parse the ``--page PID:VPN`` argument into an int pair."""
    try:
        pid_str, vpn_str = value.split(":", 1)
        return int(pid_str), int(vpn_str)
    except ValueError:
        raise SystemExit(
            f"error: --page expects PID:VPN (got {value!r})"
        )


def cmd_trace(args) -> int:
    """Aggregate a JSONL trace: summary, epochs, or a page timeline."""
    if args.page is not None:
        pid, vpn = _parse_page_arg(args.page)
        rows = page_timeline(read_events(args.file), pid, vpn)
        if args.json:
            print(json.dumps(rows, indent=2))
            return 0
        if not rows:
            print(f"no events mention page {pid}:{vpn}")
            return 0
        table = [
            [
                row["t"] / 1e9,
                row["type"],
                ", ".join(
                    f"{key}={value}"
                    for key, value in row.items()
                    if key not in ("t", "type")
                ),
            ]
            for row in rows
        ]
        print(format_table(
            ["t (s)", "event", "detail"], table,
            title=f"page {pid}:{vpn} timeline",
        ))
        return 0

    epoch_ns = int(args.epoch_sec * SECOND)
    summary = summarize(read_events(args.file))
    epochs = epoch_migrations(read_events(args.file), epoch_ns)
    if args.json:
        print(json.dumps({"summary": summary, "epochs": epochs},
                         indent=2))
        return 0
    type_rows = [
        [name, row["count"], row["t_first"] / 1e9, row["t_last"] / 1e9]
        for name, row in summary["by_type"].items()
    ]
    print(format_table(
        ["event type", "count", "first (s)", "last (s)"], type_rows,
        title=f"{args.file}: {summary['total']} events",
    ))
    if epochs:
        print()
        epoch_rows = [
            [
                row["t_start"] / 1e9,
                row["promoted"],
                row["demoted"],
                row["faults"],
                row["scan_windows"],
            ]
            for row in epochs
        ]
        print(format_table(
            ["epoch (s)", "promoted", "demoted", "faults", "scans"],
            epoch_rows,
            title=f"migration timeline ({args.epoch_sec:g}s epochs)",
        ))
    return 0


def cmd_compare(args) -> int:
    """Compare policies on identical fleets, normalized to a baseline."""
    if args.baseline not in args.policies:
        print(
            f"error: baseline {args.baseline!r} must be among the "
            f"compared policies",
            file=sys.stderr,
        )
        return 2
    results = sweep_policy_comparison(
        args.workload,
        policies=args.policies,
        jobs=_resolve_jobs(args.jobs),
        use_cache=not args.no_cache,
        profile=args.profile,
        seed=args.seed,
        workload_kwargs=_workload_kwargs(args),
        setup_kwargs=_setup_kwargs(args),
        config_overrides=_config_overrides(args),
        share_tables=not args.no_shm,
    )
    title = (
        f"{args.workload}, {args.procs} procs x {args.pages} pages, "
        f"{args.duration:.0f}s simulated"
    )
    print(throughput_table(results, title, baseline=args.baseline))
    print()
    print(latency_table(results, "Latency", baseline=args.baseline))
    print()
    print(attribution_table(results, "Run-time characteristics"))
    if args.profile:
        for name, summary in results.items():
            if not summary.profile:
                continue
            print()
            print(f"wall-time profile: {name}")
            print(_profile_table(summary.profile))
    return 0


def cmd_sweep(args) -> int:
    """Run a (policy x seed) grid through the cached sweep layer."""
    cells = []
    for seed in args.seeds:
        cells.extend(
            policy_comparison_cells(
                args.workload,
                policies=args.policies,
                seed=seed,
                workload_kwargs=_workload_kwargs(args),
                setup_kwargs=_setup_kwargs(args),
                config_overrides=_config_overrides(args),
            )
        )
    jobs = _resolve_jobs(args.jobs)
    results: List[Optional[object]] = [None] * len(cells)
    done = 0
    executed_walls: List[float] = []
    for result in iter_cells(
        cells,
        jobs=jobs,
        use_cache=not args.no_cache,
        share_tables=not args.no_shm,
    ):
        results[result.index] = result
        done += 1
        if result.source == "run":
            executed_walls.append(result.wall_sec)
        if args.progress:
            remaining = len(cells) - done
            if executed_walls and remaining:
                mean_wall = sum(executed_walls) / len(executed_walls)
                eta = f"eta {mean_wall * remaining / jobs:6.1f}s"
            else:
                eta = "eta    0.0s" if not remaining else "eta      ?"
            cell = result.cell
            print(
                f"[{done:>{len(str(len(cells)))}}/{len(cells)}] "
                f"{cell.policy:<10} {cell.workload:<10} "
                f"seed={cell.seed:<3} {result.wall_sec:7.2f}s "
                f"{result.source:<6} {eta}",
                file=sys.stderr,
            )
    summaries = [result.summary for result in results]
    if args.json:
        payload = [
            {
                "policy": result.cell.policy,
                "workload": result.cell.workload,
                "seed": result.cell.seed,
                "cached": result.summary.cached,
                # host wall time is deliberately omitted: the JSON
                # payload stays byte-identical across jobs/reruns
                "source": result.source,
                **result.summary.to_dict(),
            }
            for result in results
        ]
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        [
            cell.policy,
            cell.seed,
            summary.throughput_per_sec,
            100.0 * summary.fmar,
            summary.latency_summary["p99"],
            result.source,
        ]
        for cell, summary, result in zip(cells, summaries, results)
    ]
    print(
        format_table(
            ["policy", "seed", "ops/sec", "FMAR %", "p99 ns", "cache"],
            rows,
            title=(
                f"{args.workload} sweep: {len(cells)} cells, "
                f"jobs={jobs}"
            ),
        )
    )
    return 0


def cmd_tournament(args) -> int:
    """Run the cross-policy tournament and print the leaderboard."""
    from repro.harness.tournament import run_tournament

    jobs = _resolve_jobs(args.jobs)
    setup_kwargs = dict(
        fast_pages=args.fast_pages,
        slow_pages=args.slow_pages,
        page_scale=args.page_scale,
        duration_ns=int(args.duration * SECOND),
    )

    def progress(result, done, total) -> None:
        cell = result.cell
        label = cell.label or cell.policy
        print(
            f"[{done:>{len(str(total))}}/{total}] "
            f"{label:<12} {cell.workload:<10} seed={cell.seed:<3} "
            f"{result.wall_sec:7.2f}s {result.source}",
            file=sys.stderr,
        )

    result = run_tournament(
        policies=args.policies,
        workloads=args.workloads,
        seeds=args.seeds,
        jobs=jobs,
        use_cache=not args.no_cache,
        share_tables=not args.no_shm,
        setup_kwargs=setup_kwargs,
        config_overrides=_config_overrides(args),
        progress=progress if args.progress else None,
    )
    result.write_json(args.out)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
        print()
        print(f"leaderboard JSON written to {args.out}")
    return 0


def _fusion_ratio(engine) -> float:
    """Fraction of simulated quanta the engine covered with fused steps."""
    if engine is None or not engine.quanta_run:
        return 0.0
    return engine.fused_quanta / engine.quanta_run


def cmd_replay(args) -> int:
    """Compile trace files and replay them under one policy."""
    from repro.sim.rng import RngStreams
    from repro.vm.process import SimProcess
    from repro.workloads.compile import compile_trace_file

    window_ns = (
        int(args.window_ms * MILLISECOND)
        if args.window_ms is not None
        else None
    )
    compiled = {}
    for path in args.files:
        for pid, trace in compile_trace_file(
            path, window_ns=window_ns, threshold=args.threshold
        ).items():
            compiled[len(compiled)] = (path, pid, trace)
    streams = RngStreams(args.seed)
    processes = [
        SimProcess(
            pid=new_pid,
            workload=trace.to_workload(
                delay_ns_per_access=args.delay_units * 50 / 2.6
            ),
            rng=streams.spawn(f"replay-{new_pid}").get("access"),
            name=f"replay-{new_pid}",
        )
        for new_pid, (_, _, trace) in compiled.items()
    ]
    duration_ns = (
        int(args.duration * SECOND)
        if args.duration > 0
        else max(t.total_ns for _, _, t in compiled.values())
    )
    setup = StandardSetup(
        fast_pages=args.fast_pages,
        slow_pages=args.slow_pages,
        page_scale=args.page_scale,
        duration_ns=duration_ns,
        seed=args.seed,
    )
    policy = setup.build_policy(args.policy)
    result = run_experiment(
        processes, policy, setup.run_config(**_config_overrides(args))
    )
    ratio = _fusion_ratio(result.engine)
    traces = [
        {
            "file": str(path),
            "trace_pid": pid,
            "replay_pid": new_pid,
            "n_events": trace.n_events,
            "n_windows": trace.n_windows,
            "n_idle_windows": trace.n_idle_windows,
            "n_phases": trace.n_phases,
            "n_pages": trace.n_pages,
            "cycle_sec": trace.total_ns / 1e9,
        }
        for new_pid, (path, pid, trace) in compiled.items()
    ]
    if args.json:
        print(json.dumps({
            "policy": result.policy_name,
            "duration_sec": result.duration_ns / 1e9,
            "throughput_per_sec": result.throughput_per_sec,
            "fmar": result.fmar,
            "fusion_ratio": ratio,
            "traces": traces,
        }, indent=2))
        return 0
    print(f"policy            {result.policy_name}")
    print(f"replayed traces   {len(traces)}")
    print(f"simulated         {result.duration_ns / 1e9:.1f} s")
    print(f"throughput        {result.throughput_per_sec:.3e} ops/s")
    print(f"FMAR              {100 * result.fmar:.1f} %")
    print(f"fusion ratio      {100 * ratio:.1f} %")
    print()
    print(format_table(
        ["file", "pid", "events", "windows", "idle", "phases"],
        [
            [
                row["file"], row["trace_pid"], row["n_events"],
                row["n_windows"], row["n_idle_windows"],
                row["n_phases"],
            ]
            for row in traces
        ],
        title="compiled traces",
    ))
    return 0


def cmd_traffic(args) -> int:
    """Run the fleet traffic generator under one policy."""
    args.workload = "traffic"
    setup = _setup_from_args(args)
    policy = setup.build_policy(args.policy)
    processes = build_fleet(setup, "traffic", **_workload_kwargs(args))
    result = run_experiment(
        processes, policy, setup.run_config(**_config_overrides(args))
    )
    ratio = _fusion_ratio(result.engine)
    finished = sum(process.finished for process in processes)
    payload = {
        "policy": result.policy_name,
        "n_tenants": args.tenants,
        "n_users": args.users,
        "n_patterns": args.patterns,
        "duration_sec": result.duration_ns / 1e9,
        "throughput_per_sec": result.throughput_per_sec,
        "fmar": result.fmar,
        "fusion_ratio": ratio,
        "tenants_exited": finished,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"policy            {result.policy_name}")
    print(f"tenants           {args.tenants} "
          f"({args.users} users, {args.patterns} patterns)")
    print(f"simulated         {result.duration_ns / 1e9:.1f} s")
    print(f"throughput        {result.throughput_per_sec:.3e} ops/s")
    print(f"FMAR              {100 * result.fmar:.1f} %")
    print(f"fusion ratio      {100 * ratio:.1f} %")
    print(f"tenants exited    {finished}")
    return 0


def cmd_policies(_args) -> int:
    """List the available policies and the Table 1 characteristics."""
    print("Available policies:", ", ".join(policy_names()))
    print()
    print(characteristics_table())
    return 0


def cmd_defaults(_args) -> int:
    """Print Chrono's Table 2 parameter defaults."""
    from repro.kernel.kernel import Kernel

    kernel = Kernel()
    kernel.set_policy(make_policy("chrono"))
    print(kernel.sysctl.describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: dispatch to the chosen subcommand."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "trace": cmd_trace,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "tournament": cmd_tournament,
        "replay": cmd_replay,
        "traffic": cmd_traffic,
        "policies": cmd_policies,
        "defaults": cmd_defaults,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
