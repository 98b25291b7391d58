#!/usr/bin/env python
"""Engine hot-path benchmark: quanta/sec and cells/sec, before/after.

Runs the standard pmbench workload under one policy with the engine's
optimized pricing path (cached tier masses, per-quantum contention
vector, preallocated buffers; the median of ``ENGINE_RUNS`` unprofiled
runs) and once with the reference per-page path (``fast_path=False``,
the pre-optimization behaviour), and reports simulated quanta per
second of host wall time for both, plus the subsystem shares of one
separate profiled run.

The sweep section exercises the fleet-scale execution layer: a
16-cell (policy x seed) pmbench grid is re-run cold at every rung of
a worker-pool ladder (jobs 1/2/4/8, capped at the host's usable CPU
count -- rungs wider than the machine only measure scheduler churn --
with shared-memory table transport on and off), and a reuse-heavy
graph500 grid compares warm-pool table reuse against the old
rebuild-per-cell behaviour.  ``host_cpus`` is recorded with the
ladder because parallel speedup is bounded by it.

The fusion section times quantum fusion (one macro-quantum per
steady-state stretch; see ``docs/SIMULATION.md``) against per-quantum
stepping (``fusion=False``) on a steady-state Memtis/pmbench config,
reporting quanta/sec both ways, the fusion ratio, and the speedup: the
median of ``FUSION_PAIRS`` interleaved pairs of runs on the process
CPU clock.

The arena section times the default engine (arena stepping: one
batched array program per quantum; see ``docs/SIMULATION.md``)
against the reference engine (``fast_path=False``) on a
stepping-bound fleet config: 96 small processes at a fine 5 ms
quantum (a 250 Hz kernel tick) with the kernel daemons *live* at the
testbed's realistic periods (5 s Ticking scan, 1 s aging), fusion off
in both runs.  The arena is never quiesced: scan, aging, migration,
and reclaim windows all run through the batched fleet passes, so the
measured gap is per-quantum stepping cost under real transient load.
The speedup must clear ``ARENA_SPEEDUP_FLOOR``, and the arena must
agree with the reference engine within ``ARENA_THROUGHPUT_TOLERANCE``
on throughput and ``ARENA_FMAR_TOLERANCE`` on FMAR (the fidelity
gate).

The trace section covers the trace pipeline end to end.  Compile: a
two-million-event synthetic stream with three known phases runs
through the chunked trace compiler (``repro.workloads.compile``) and
must bin + segment at least ``TRACE_COMPILE_FLOOR`` events per
CPU-second.  Replay: the compiled three-phase trace replays for one
full cycle with fusion on and off; the fused run's fusion ratio must
clear ``TRACE_FUSION_RATIO_FLOOR`` (a phase-stable compiled trace
rides the macro-quantum path) and the two runs must agree on
throughput and FMAR within ``TRACE_EQUIV_TOLERANCE``.  Traffic: a
1,024-tenant generated fleet (``repro.workloads.tracegen``: Zipf
popularity, diurnal delay buckets, shared pattern tables) steps
through the arena; only ``engine.run`` is timed (registration and
placement of the 262 K-page fleet are fixed costs), on the process
CPU clock, which is immune to scheduler noise on shared runners.

The tournament section times the full registered-policy roster (all
12 Table 1 policies) on one phase-changing ``shifting-hotspot``
workload, reporting per-policy wall seconds plus aggregate
cells/sec -- the end-to-end cost of a cross-policy comparison run.

Sections that cannot be measured honestly on the current host are
skipped with a warning: a 1-CPU host skips the worker-pool ladder
and the warm-vs-cold comparison (pool rungs there only time
scheduler churn).  Skipped sections are carried forward from the
committed baseline -- but only when the baseline's provenance sha
matches HEAD.  A stale baseline (different sha) is refused unless
``--allow-stale`` is passed, in which case the carried section is
annotated with the sha it came from.

The full run also sweeps a page-count ladder (4 K -> 5.2 M pages per
process, two processes, 10.5 M pages total at the top rung) to chart
ns/page/quantum: the steady-state engine cost must grow *sublinearly*
in the footprint (deferred accounting, incremental tier masses, and
sparse aging leave only amortized O(pages) work on aging/flush
boundaries).  At every rung the optimized path is checked against the
reference per-page path (``fast_path=False``) for statistical
equivalence on throughput and FMAR.

Writes ``BENCH_engine.json`` (override with ``--out``) so CI can track
the perf trajectory.  Every payload carries a ``provenance`` block
(git SHA, python/numpy versions, host CPUs, timestamp) so committed
numbers can be traced to the host that produced them; ``--quick``
warns when the committed baseline came from a host with a different
CPU count.  ``--quick`` is the CI regression gate: it times only the
optimized path, at the committed baseline's headline config and as the
median of ``ENGINE_RUNS`` unprofiled runs (exactly how the full run
measured ``after``), and fails (exit 1) when quanta/sec drops below
``QUICK_GATE_FRACTION`` of the committed baseline's
``after.quanta_per_sec``, when cold sweep throughput at
jobs=2 drops below ``SWEEP_GATE_FRACTION`` of the committed ladder's
matching rung, when fused steady-state quanta/sec drops below
``FUSION_GATE_FRACTION`` of the committed fusion section, when the
fused-vs-unfused speedup falls below ``FUSION_SPEEDUP_FLOOR``, or
when the arena-vs-reference speedup falls below
``ARENA_SPEEDUP_FLOOR`` (or arena quanta/sec below
``ARENA_GATE_FRACTION`` of the committed arena section), or when the
arena's throughput or FMAR strays from the reference engine's by more
than the fidelity tolerances.
CI-compatible: pure stdlib + the package itself, runs in about a
minute at the default scale.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

import numpy as np

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.harness.engine import QuantumEngine  # noqa: E402
from repro.harness.experiments import (  # noqa: E402
    StandardSetup,
    build_fleet,
)
from repro.harness.runner import (  # noqa: E402
    run_experiment,
    summarize_run,
)
from repro.harness.sweep import (  # noqa: E402
    SweepCell,
    clear_memory_cache,
    run_cell,
    run_cells,
)
from repro.kernel.kernel import Kernel  # noqa: E402
from repro.sim.rng import RngStreams  # noqa: E402
from repro.sim.timeunits import MILLISECOND, SECOND  # noqa: E402
from repro.vm.process import SimProcess  # noqa: E402
from repro.workloads import reset_table_cache  # noqa: E402
from repro.workloads.compile import (  # noqa: E402
    compile_event_stream,
    synthetic_event_stream,
)

#: --quick fails when quanta/sec falls below this fraction of the
#: committed baseline (allows host-speed jitter, catches real
#: regressions)
QUICK_GATE_FRACTION = 0.7

#: unprofiled runs behind each side of the quanta/sec gate: the full
#: run's ``after`` block and the --quick measurement are both the
#: median of this many runs of the same config
ENGINE_RUNS = 5

#: --quick sweep-throughput floor: cells/sec at jobs=2 must stay above
#: this fraction of the committed ladder's jobs=2 rung.  Looser than
#: the quanta/sec gate because pool spin-up adds fixed overhead that a
#: short grid amortizes poorly on slow runners.
SWEEP_GATE_FRACTION = 0.5

#: --quick fused-throughput floor, as a fraction of the committed
#: fusion section's fused quanta/sec.  Looser than the quanta/sec gate
#: because the quick run simulates a quarter of the full duration, so
#: the warm-up stretch (where fusion cannot engage) weighs heavier.
FUSION_GATE_FRACTION = 0.5

#: --quick floor on the fused-vs-per-quantum speedup at the fusion
#: config: fusion must actually pay for itself on steady-state work.
FUSION_SPEEDUP_FLOOR = 1.2

#: interleaved (fused, per-quantum) run pairs behind the fusion
#: speedup, which is the median of the per-pair ratios
FUSION_PAIRS = 9

#: steady-state config for the fusion section: Memtis on stationary
#: pmbench reaches a stable classification quickly, after which most
#: quanta fuse up to the classify/aging event horizon.
FUSION_POLICY = "memtis"
FUSION_PROCS = 4
FUSION_PAGES = 2_048

#: stepping-bound fleet config for the arena section: many small
#: processes at a fine 5 ms quantum (a 250 Hz kernel tick), kernel
#: daemons *live* at the testbed's realistic periods (5 s Ticking
#: scan, 1 s aging), fusion off in both runs.  The arena is never
#: quiesced -- scan, aging, migration, and reclaim windows all run
#: through the batched fleet passes -- so the arena-vs-reference gap
#: is per-quantum stepping cost under real transient load.
ARENA_POLICY = "linux-nb"
ARENA_PROCS = 96
ARENA_PAGES = 256
ARENA_FAST_PAGES = 8_192
ARENA_SLOW_PAGES = 32_768
ARENA_SCAN_PERIOD_NS = 5 * SECOND
ARENA_AGING_PERIOD_NS = SECOND
ARENA_QUANTUM_NS = 5 * MILLISECOND
ARENA_DURATION_NS = 10 * SECOND

#: --quick floor on the arena-vs-reference speedup: one batched array
#: program per quantum must beat the reference engine's per-process,
#: recompute-everything quanta by at least this much at fleet scale,
#: with the daemons live.  About 55% of the median of eight
#: ``--quick`` runs on a 2-CPU host (11.0x; 7.5-15.1x).
ARENA_SPEEDUP_FLOOR = 6.0

#: --quick arena-throughput floor, as a fraction of the committed
#: arena section's quanta/sec (host-speed jitter allowance).
ARENA_GATE_FRACTION = 0.5

#: arena fidelity gate: the arena's throughput and FMAR must stay
#: within these relative errors of the reference engine's on the arena
#: config (both at seed 0).  They are the reference engine's own spread
#: over seeds 0-5, (max - min) / mean: 5.9% on throughput and 2.2% on
#: FMAR.  The arena's largest same-seed gap over those seeds is 3.8%
#: (throughput, seed 2) and 1.5% (FMAR, seed 4); at seed 0 it is 0.02%
#: and 0.05%.
ARENA_THROUGHPUT_TOLERANCE = 0.059
ARENA_FMAR_TOLERANCE = 0.022

#: trace-compiler throughput config: a known-phase synthetic event
#: stream (three rotating Zipf hotspots, one pid) pushed through the
#: chunked vectorized binner + change-point segmentation.  CPU time is
#: the clock (single-threaded numpy work, immune to scheduler noise).
TRACE_COMPILE_EVENTS = 2_000_000
TRACE_COMPILE_PAGES = 256
TRACE_COMPILE_PHASES = 3
TRACE_WINDOWS_PER_PHASE = 8

#: absolute floor on compile throughput: the compiler must ingest at
#: least a million events per CPU-second (measured headroom is ~7x).
TRACE_COMPILE_FLOOR = 1_000_000.0

#: --quick compile-throughput floor, as a fraction of the committed
#: trace section's events per CPU-second (host-speed jitter allowance).
TRACE_COMPILE_GATE_FRACTION = 0.5

#: replay config: the compiled three-phase trace replayed as one
#: process under a steady-state policy with fusion on vs off.  Each
#: phase is stable for ``TRACE_WINDOWS_PER_PHASE`` windows, so the
#: fused engine should cross most of every phase in macro-quanta.
TRACE_REPLAY_POLICY = "chrono"
TRACE_REPLAY_EVENTS = 200_000

#: floor on the fused replay's fusion ratio: a phase-stable compiled
#: trace that cannot fuse half its quanta is not riding the fast path.
TRACE_FUSION_RATIO_FLOOR = 0.5

#: fused-vs-per-quantum replay equivalence tolerance (the arena
#: suite's bound: rel 0.05, with the same 1e-4 FMAR absolute slack).
TRACE_EQUIV_TOLERANCE = 0.05

#: traffic-fleet config: 1,024 Zipf-popularity tenants from the fleet
#: traffic generator (shared pattern tables, diurnal load mapped onto
#: a geometric delay-bucket ladder), stationary roles only, stepped
#: through the arena with fusion off.  Compute-bound tenants (the
#: uniform 400-unit think time holds aggregate demand below fast-tier
#: saturation), daemons at the testbed's realistic periods (5 s
#: Ticking scan, 10 s aging).
TRAFFIC_POLICY = "linux-nb"
TRAFFIC_TENANTS = 1_024
TRAFFIC_PAGES = 256
TRAFFIC_PATTERNS = 8
TRAFFIC_BASE_DELAY = 400
TRAFFIC_FAST_PAGES = 294_912
TRAFFIC_SLOW_PAGES = 32_768
TRAFFIC_SCAN_PERIOD_NS = 5 * SECOND
TRAFFIC_AGING_PERIOD_NS = 10 * SECOND
TRAFFIC_QUANTUM_NS = 5 * MILLISECOND
TRAFFIC_DURATION_NS = 2 * SECOND

#: --quick traffic-throughput floor, as a fraction of the committed
#: trace section's traffic quanta per CPU-second.
TRAFFIC_GATE_FRACTION = 0.5

#: worker-pool sizes for the sweep throughput ladder
SWEEP_JOBS_LADDER = (1, 2, 4, 8)
SWEEP_POLICIES = ("linux-nb", "tpp", "memtis", "chrono")
SWEEP_SEEDS = (0, 1, 2, 3)

#: the full registered roster (Table 1 order) for the tournament
#: section: every policy on one phase-changing workload, timed
TOURNAMENT_POLICIES = (
    "linux-nb", "autotiering", "multiclock", "telescope", "tpp",
    "memtis", "flexmem", "nomad", "tierbpf", "arms", "jenga", "chrono",
)
TOURNAMENT_WORKLOAD = "shifting-hotspot"
TOURNAMENT_PROCS = 4
TOURNAMENT_PAGES = 2_048


def host_cpus() -> int:
    """CPUs usable by this process (affinity-aware) -- parallel speedup
    in the sweep ladder is bounded by this, so it is recorded alongside
    the numbers."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0))
        except OSError:
            pass
    return os.cpu_count() or 1


def git_head_sha():
    """HEAD's sha, or ``None`` outside a repo -- the key that decides
    whether a committed section is comparable to this checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def provenance() -> dict:
    """Where the numbers came from: committed benchmark JSONs are only
    comparable to runs from a similar host, so every payload records
    the git SHA, interpreter and numpy versions, the usable CPU count,
    and a timestamp."""
    return {
        "git_sha": git_head_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host_cpus": host_cpus(),
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
    }


def sweep_jobs_ladder() -> tuple:
    """The worker-pool ladder, capped at the host's usable CPUs.

    A rung wider than the machine cannot speed anything up -- it only
    times oversubscription churn (a committed jobs=8 rung from a 1-CPU
    host reads as a pool slowdown that is really scheduler thrash) --
    so rungs above ``host_cpus`` are dropped.  ``host_cpus`` is still
    recorded alongside the ladder so readers can judge the ceiling.
    """
    cpus = host_cpus()
    ladder = tuple(jobs for jobs in SWEEP_JOBS_LADDER if jobs <= cpus)
    return ladder or SWEEP_JOBS_LADDER[:1]

#: page-count ladder for the scaling sweep (pages per process; the
#: top rung is 10.5 M pages total across the two processes)
SCALING_SIZES = (
    4_096, 16_384, 65_536, 262_144, 1_048_576, 5_242_880
)
SCALING_PROCS = 2
SCALING_DURATION_NS = 4 * SECOND
#: max relative error between fast and reference paths, per size
SCALING_TOLERANCE = 0.02


def time_engine(setup, policy_name, workload_kwargs, fast_path, profile):
    policy = setup.build_policy(policy_name)
    processes = build_fleet(setup, "pmbench", **workload_kwargs)
    start = time.perf_counter()
    result = run_experiment(
        processes,
        policy,
        setup.run_config(),
        fast_path=fast_path,
        profile=profile,
    )
    wall = time.perf_counter() - start
    quanta = result.engine.quanta_run
    return {
        "wall_sec": wall,
        "quanta": quanta,
        "quanta_per_sec": quanta / wall if wall else 0.0,
        "throughput_per_sec": result.throughput_per_sec,
        "fmar": result.fmar,
        "profile": result.profile,
    }


def time_engine_median(setup, policy_name, workload_kwargs):
    """Median of ``ENGINE_RUNS`` unprofiled default-engine runs of one
    config: ``{wall_sec, quanta, quanta_per_sec}`` of the median run,
    plus every run's quanta/sec.

    Both sides of the --quick quanta/sec gate come from here, at the
    same config and duration, so the gate compares like with like.
    """
    runs = sorted(
        (
            time_engine(
                setup, policy_name, workload_kwargs,
                fast_path=True, profile=False,
            )
            for _ in range(ENGINE_RUNS)
        ),
        key=lambda run: run["quanta_per_sec"],
    )
    median = runs[len(runs) // 2]
    return {
        "wall_sec": median["wall_sec"],
        "quanta": median["quanta"],
        "quanta_per_sec": median["quanta_per_sec"],
        "runs_quanta_per_sec": [run["quanta_per_sec"] for run in runs],
    }


def sweep_grid_cells(duration_ns, workload_kwargs, policies, seeds):
    """The (policy x seed) grid every ladder rung re-runs cold."""
    return [
        SweepCell(
            policy=name,
            workload="pmbench",
            seed=seed,
            workload_kwargs=dict(workload_kwargs),
            setup_kwargs={"duration_ns": duration_ns},
        )
        for seed in seeds
        for name in policies
    ]


def _reset_sweep_state():
    """Drop every warm layer so each rung times a truly cold run."""
    reset_table_cache()
    clear_memory_cache()


def time_sweep_rung(cells, jobs, shared_memory):
    """Time one cold run of the grid at one (jobs, shm) point."""
    _reset_sweep_state()
    start = time.perf_counter()
    run_cells(
        cells, jobs=jobs, use_cache=False, share_tables=shared_memory
    )
    wall = time.perf_counter() - start
    return {
        "jobs": jobs,
        "shared_memory": shared_memory,
        "wall_sec": wall,
        "cells_per_sec": len(cells) / wall if wall else 0.0,
    }


def time_sweep_ladder(duration_ns, workload_kwargs, policies, seeds):
    """Cold cells/sec across the jobs ladder, shm on and off.

    Every rung re-runs the same (policy x seed) grid with the result
    cache bypassed and the in-process table/memory caches cleared, so
    the only variables are the pool width and the table transport.
    ``speedup_vs_jobs1`` is relative to the jobs=1 rung with the same
    transport; parallel speedup is bounded by ``host_cpus``.
    """
    cells = sweep_grid_cells(duration_ns, workload_kwargs, policies, seeds)
    ladder = []
    base = {}
    for shared_memory in (True, False):
        for jobs in sweep_jobs_ladder():
            rung = time_sweep_rung(cells, jobs, shared_memory)
            if jobs == 1:
                base[shared_memory] = rung["cells_per_sec"]
            reference = base.get(shared_memory, 0.0)
            rung["speedup_vs_jobs1"] = (
                rung["cells_per_sec"] / reference if reference else 0.0
            )
            ladder.append(rung)
            print(
                f"    jobs={jobs} shm={'on ' if shared_memory else 'off'}"
                f" {rung['wall_sec']:6.2f}s wall, "
                f"{rung['cells_per_sec']:6.2f} cells/sec "
                f"({rung['speedup_vs_jobs1']:.2f}x vs jobs=1)"
            )
    return {
        "grid": {
            "workload": "pmbench",
            "policies": list(policies),
            "seeds": list(seeds),
            "n_cells": len(cells),
            "n_procs": workload_kwargs.get("n_procs"),
            "pages_per_proc": workload_kwargs.get("pages_per_proc"),
            "duration_sec": duration_ns / SECOND,
        },
        "host_cpus": host_cpus(),
        "ladder": ladder,
    }


def time_warm_vs_cold(duration_ns, n_procs, pages_per_proc):
    """Warm-pool table reuse vs per-cell rebuild on a reuse-heavy grid.

    Six policies on the same graph500 fleet (same seed) share one set
    of compiled workload tables.  ``cold`` empties the table cache
    before every cell -- the pre-warm-pool behaviour, where each worker
    process rebuilt its own tables -- while ``warm`` runs the same grid
    through ``run_cells`` at jobs=1 with the cache primed once.
    """
    policies = (
        "linux-nb", "autotiering", "tpp", "memtis", "multiclock", "chrono"
    )
    cells = [
        SweepCell(
            policy=name,
            workload="graph500",
            seed=0,
            workload_kwargs={
                "n_procs": n_procs, "pages_per_proc": pages_per_proc
            },
            setup_kwargs={"duration_ns": duration_ns},
        )
        for name in policies
    ]
    _reset_sweep_state()
    start = time.perf_counter()
    for cell in cells:
        reset_table_cache()
        run_cell(cell, use_cache=False)
    cold_wall = time.perf_counter() - start

    _reset_sweep_state()
    start = time.perf_counter()
    run_cells(cells, jobs=1, use_cache=False)
    warm_wall = time.perf_counter() - start
    return {
        "workload": "graph500",
        "n_cells": len(cells),
        "n_procs": n_procs,
        "pages_per_proc": pages_per_proc,
        "duration_sec": duration_ns / SECOND,
        "cold": {
            "wall_sec": cold_wall,
            "cells_per_sec": len(cells) / cold_wall if cold_wall else 0.0,
        },
        "warm": {
            "wall_sec": warm_wall,
            "cells_per_sec": len(cells) / warm_wall if warm_wall else 0.0,
        },
        "speedup": cold_wall / warm_wall if warm_wall else 0.0,
    }


def time_tournament(duration_ns):
    """Time the full registered-policy roster on one dynamic workload.

    One cold cell per Table 1 policy, all on the same phase-changing
    ``shifting-hotspot`` fleet and seed, run sequentially at jobs=1 so
    the per-policy walls are comparable.  This is the end-to-end cost
    of a cross-policy comparison run: per-policy wall seconds expose
    which policies dominate it, and aggregate cells/sec tracks the
    whole roster's throughput over time.
    """
    cells = [
        SweepCell(
            policy=name,
            workload=TOURNAMENT_WORKLOAD,
            seed=0,
            workload_kwargs={
                "n_procs": TOURNAMENT_PROCS,
                "pages_per_proc": TOURNAMENT_PAGES,
            },
            setup_kwargs={"duration_ns": duration_ns},
        )
        for name in TOURNAMENT_POLICIES
    ]
    _reset_sweep_state()
    rows = []
    start_all = time.perf_counter()
    for cell in cells:
        start = time.perf_counter()
        run_cell(cell, use_cache=False)
        rows.append({
            "policy": cell.policy,
            "wall_sec": time.perf_counter() - start,
        })
    wall = time.perf_counter() - start_all
    return {
        "workload": TOURNAMENT_WORKLOAD,
        "n_cells": len(cells),
        "n_procs": TOURNAMENT_PROCS,
        "pages_per_proc": TOURNAMENT_PAGES,
        "duration_sec": duration_ns / SECOND,
        "policies": rows,
        "wall_sec": wall,
        "cells_per_sec": len(cells) / wall if wall else 0.0,
    }


def print_tournament(section):
    slowest = max(section["policies"], key=lambda row: row["wall_sec"])
    print(
        f"  tournament ({section['n_cells']} policies x "
        f"{section['workload']}): {section['wall_sec']:.2f}s wall, "
        f"{section['cells_per_sec']:.2f} cells/sec "
        f"(slowest: {slowest['policy']} {slowest['wall_sec']:.2f}s)"
    )


def merge_stale_sections(payload, skipped, baseline_path, allow_stale):
    """Carry committed sections forward for the ones this run skipped.

    A committed section is only comparable to this run when it was
    produced by the code being benchmarked, so a baseline whose
    provenance sha differs from HEAD is *stale*: merging it silently
    would re-stamp old numbers under a new sha.  Stale merges are
    refused unless ``allow_stale`` is set, in which case the carried
    section is annotated with the sha and timestamp it came from.

    Returns ``False`` on refusal (the caller should not write the
    payload); missing baselines or missing sections just leave the
    skipped sections null.
    """
    if not skipped:
        return True
    try:
        baseline = json.loads(pathlib.Path(baseline_path).read_text())
    except (OSError, ValueError):
        print(
            f"  no committed baseline at {baseline_path}; skipped "
            f"sections stay null: {', '.join(skipped)}"
        )
        return True
    base_prov = baseline.get("provenance") or {}
    base_sha = base_prov.get("git_sha")
    head = git_head_sha()
    stale = base_sha is None or base_sha != head
    if stale and not allow_stale:
        print(
            f"  REFUSED: committed baseline was produced at "
            f"{(base_sha or 'unknown')[:12]} but HEAD is "
            f"{(head or 'unknown')[:12]}; skipped sections "
            f"({', '.join(skipped)}) cannot be merged.  Re-run them on "
            "a capable host, or pass --allow-stale to carry them "
            "forward with a staleness annotation"
        )
        return False
    for name in skipped:
        section = baseline.get(name)
        if section is None:
            print(f"  baseline has no '{name}' section; stays null")
            continue
        if stale:
            section = dict(section)
            section["merged_from"] = {
                "git_sha": base_sha,
                "timestamp": base_prov.get("timestamp"),
                "stale": True,
            }
        payload[name] = section
        origin = "stale baseline" if stale else "baseline at HEAD"
        print(f"  merged '{name}' section from {origin}")
    return True


def interleaved_pairs(prepare_a, prepare_b, pairs, clock=time.process_time):
    """Time ``pairs`` runs of two configs, interleaved pair by pair.

    ``prepare_x()`` builds one run and returns a zero-argument callable
    that executes it; only that call is timed, on ``clock``.  Pair ``i``
    runs ``a`` first when ``i`` is even and ``b`` first otherwise, so a
    host that drifts in speed slows both members of a pair alike and
    neither side always runs in the slower half.  Returns the per-run
    seconds of each side and each side's last result.
    """
    seconds = ([], [])
    results = [None, None]
    prepares = (prepare_a, prepare_b)
    for pair in range(pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            run = prepares[side]()
            start = clock()
            results[side] = run()
            seconds[side].append(clock() - start)
    return seconds[0], seconds[1], results[0], results[1]


def pair_speedups(seconds_fast, seconds_slow, work_fast, work_slow):
    """Per-pair speedups: the fast run's work rate over its pair
    partner's.  Their median is the section's speedup -- one stalled
    run moves one pair, not the estimate."""
    return [
        (work_fast / fast) / (work_slow / slow)
        for fast, slow in zip(seconds_fast, seconds_slow)
    ]


def _fusion_run(duration_ns, fusion):
    """Build one run of the fusion config; return the call that runs
    it."""
    setup = StandardSetup(duration_ns=duration_ns)
    policy = setup.build_policy(FUSION_POLICY)
    processes = build_fleet(
        setup, "pmbench",
        n_procs=FUSION_PROCS, pages_per_proc=FUSION_PAGES,
    )
    config = setup.run_config(fusion=fusion)
    return lambda: run_experiment(processes, policy, config)


def time_fusion(duration_ns):
    """Fused vs per-quantum stepping on the steady-state fusion config.

    Both runs share (policy, workload, seed); they differ only in the
    engine's ``fusion`` switch, so the quanta/sec gap is the cost of
    stepping every quantum through a steady-state stretch the fused
    engine crosses in one macro-quantum.  Each run is short (about
    100 quanta in --quick), so two blocks of runs would let host-speed
    drift between the blocks decide the ratio; the runs go in
    ``FUSION_PAIRS`` interleaved pairs on the process CPU clock instead
    (:func:`interleaved_pairs`), and the speedup is the median of the
    per-pair ratios.  Each mode's quanta/sec is its median run's.
    """
    seconds_fused, seconds_pq, fused, per_quantum = interleaved_pairs(
        lambda: _fusion_run(duration_ns, True),
        lambda: _fusion_run(duration_ns, False),
        FUSION_PAIRS,
    )
    runs = {}
    for key, seconds, result in (
        ("fused", seconds_fused, fused),
        ("per_quantum", seconds_pq, per_quantum),
    ):
        engine = result.engine
        cpu = float(np.median(seconds))
        runs[key] = {
            "cpu_sec": cpu,
            "quanta": engine.quanta_run,
            "steps": engine.steps_run,
            "fused_quanta": engine.fused_quanta,
            "quanta_per_sec": engine.quanta_run / cpu if cpu else 0.0,
            "fusion_ratio": (
                engine.fused_quanta / engine.quanta_run
                if engine.quanta_run else 0.0
            ),
            "throughput_per_sec": result.throughput_per_sec,
            "fmar": result.fmar,
        }
    speedups = pair_speedups(
        seconds_fused, seconds_pq,
        fused.engine.quanta_run, per_quantum.engine.quanta_run,
    )
    return {
        "config": {
            "policy": FUSION_POLICY,
            "workload": "pmbench",
            "n_procs": FUSION_PROCS,
            "pages_per_proc": FUSION_PAGES,
            "duration_sec": duration_ns / SECOND,
            "pairs": FUSION_PAIRS,
            "timing": "run_experiment only, process CPU time",
        },
        "fused": runs["fused"],
        "per_quantum": runs["per_quantum"],
        "pair_speedups": speedups,
        "speedup": float(np.median(speedups)),
    }


def arena_setup(duration_ns) -> StandardSetup:
    return StandardSetup(
        duration_ns=duration_ns,
        fast_pages=ARENA_FAST_PAGES,
        slow_pages=ARENA_SLOW_PAGES,
        scan_period_ns=ARENA_SCAN_PERIOD_NS,
        aging_period_ns=ARENA_AGING_PERIOD_NS,
        quantum_ns=ARENA_QUANTUM_NS,
    )


def _arena_run(duration_ns, fast_path):
    """One run of the arena config: ``(wall seconds, RunResult)``."""
    setup = arena_setup(duration_ns)
    policy = setup.build_policy(ARENA_POLICY)
    processes = build_fleet(
        setup, "pmbench",
        n_procs=ARENA_PROCS, pages_per_proc=ARENA_PAGES,
    )
    start = time.perf_counter()
    result = run_experiment(
        processes, policy, setup.run_config(fusion=False),
        fast_path=fast_path,
    )
    return time.perf_counter() - start, result


def time_arena(duration_ns=ARENA_DURATION_NS, best_of=3):
    """The default engine vs the reference engine on the
    stepping-bound fleet config.

    Both runs share (policy, workload, seed) and run with fusion off;
    they differ only in ``fast_path``, so the quanta/sec gap is the
    cost of the reference engine's per-process, recompute-everything
    quantum versus one batched array program over the arena.  Each
    engine is deterministic, so ``best_of`` keeps the arena's fastest
    pass (least-noise estimate on a loaded runner); the reference
    engine runs once -- its run is about ten times longer, so a
    scheduler hiccup weighs far less on it.
    """
    runs = {}
    for key, fast_path, repeats in (
        ("arena", True, max(1, best_of)),
        ("reference", False, 1),
    ):
        wall, result = min(
            (_arena_run(duration_ns, fast_path) for _ in range(repeats)),
            key=lambda run: run[0],
        )
        quanta = result.engine.quanta_run
        runs[key] = {
            "wall_sec": wall,
            "quanta": quanta,
            "quanta_per_sec": quanta / wall if wall else 0.0,
            "throughput_per_sec": result.throughput_per_sec,
            "fmar": result.fmar,
        }
    reference_qps = runs["reference"]["quanta_per_sec"]
    return {
        "config": {
            "policy": ARENA_POLICY,
            "workload": "pmbench",
            "n_procs": ARENA_PROCS,
            "pages_per_proc": ARENA_PAGES,
            "fast_pages": ARENA_FAST_PAGES,
            "slow_pages": ARENA_SLOW_PAGES,
            "scan_period_sec": ARENA_SCAN_PERIOD_NS / SECOND,
            "aging_period_sec": ARENA_AGING_PERIOD_NS / SECOND,
            "quantum_ms": ARENA_QUANTUM_NS / MILLISECOND,
            "duration_sec": duration_ns / SECOND,
            "fusion": False,
        },
        "arena": runs["arena"],
        "reference": runs["reference"],
        "equivalence": {
            "throughput_rel_err": rel_err(
                runs["arena"]["throughput_per_sec"],
                runs["reference"]["throughput_per_sec"],
            ),
            "fmar_rel_err": rel_err(
                runs["arena"]["fmar"], runs["reference"]["fmar"]
            ),
        },
        "speedup": (
            runs["arena"]["quanta_per_sec"] / reference_qps
            if reference_qps else 0.0
        ),
    }


def print_arena(section):
    arena = section["arena"]
    reference = section["reference"]
    print(
        f"  arena ({ARENA_POLICY}, pmbench x{ARENA_PROCS}, "
        "daemons live): "
        f"arena {arena['quanta_per_sec']:8.1f} q/s, "
        f"reference {reference['quanta_per_sec']:8.1f} q/s, "
        f"speedup {section['speedup']:.2f}x"
    )


def arena_fidelity_ok(section) -> bool:
    """The arena fidelity gate: arena-vs-reference relative errors
    within ``ARENA_THROUGHPUT_TOLERANCE`` / ``ARENA_FMAR_TOLERANCE``
    (prints the failure)."""
    equiv = section["equivalence"]
    ok = (
        equiv["throughput_rel_err"] <= ARENA_THROUGHPUT_TOLERANCE
        and equiv["fmar_rel_err"] <= ARENA_FMAR_TOLERANCE
    )
    if not ok:
        print(
            "  FAIL: arena fidelity: throughput rel err "
            f"{equiv['throughput_rel_err']:.3f} (max "
            f"{ARENA_THROUGHPUT_TOLERANCE:.3f}), FMAR rel err "
            f"{equiv['fmar_rel_err']:.3f} (max "
            f"{ARENA_FMAR_TOLERANCE:.3f}) against the reference engine"
        )
    return ok


def run_quick_arena_gate(baseline):
    """Arena stepping speedup, fidelity and throughput vs the committed
    arena section.

    Three checks: the arena-vs-reference speedup must clear
    ``ARENA_SPEEDUP_FLOOR`` (batched stepping pays for itself at fleet
    scale), the arena must agree with the reference engine within the
    fidelity tolerances (:func:`arena_fidelity_ok`), and arena
    quanta/sec must stay above ``ARENA_GATE_FRACTION`` of the committed
    arena section.  A missing or pre-arena baseline skips the
    throughput comparison; the speedup floor and the fidelity gate
    always apply.  Returns ``(section, ok)``.
    """
    committed = None
    try:
        committed = float(baseline["arena"]["arena"]["quanta_per_sec"])
    except (KeyError, ValueError, TypeError):
        pass
    print(
        f"  arena gate: {ARENA_POLICY}, pmbench x{ARENA_PROCS}, "
        f"{ARENA_DURATION_NS / SECOND:.0f}s simulated, arena best of 3 "
        "against one reference run"
    )
    section = time_arena(best_of=3)
    print_arena(section)
    section["baseline_arena_quanta_per_sec"] = committed
    section["gate_fraction"] = ARENA_GATE_FRACTION
    section["speedup_floor"] = ARENA_SPEEDUP_FLOOR
    section["equivalence"]["throughput_tolerance"] = (
        ARENA_THROUGHPUT_TOLERANCE
    )
    section["equivalence"]["fmar_tolerance"] = ARENA_FMAR_TOLERANCE
    ok = arena_fidelity_ok(section)
    if section["speedup"] < ARENA_SPEEDUP_FLOOR:
        print(
            f"  FAIL: arena speedup {section['speedup']:.2f}x is below "
            f"the {ARENA_SPEEDUP_FLOOR:.1f}x floor"
        )
        ok = False
    if committed is None:
        print("  no committed arena section; throughput gate skipped")
        return section, ok
    floor = ARENA_GATE_FRACTION * committed
    measured = section["arena"]["quanta_per_sec"]
    print(
        f"  baseline: {committed:8.1f} arena quanta/sec "
        f"(floor {floor:.1f} = {ARENA_GATE_FRACTION:.0%})"
    )
    if measured < floor:
        print(
            f"  FAIL: {measured:.1f} arena quanta/sec is below the "
            f"{ARENA_GATE_FRACTION:.0%} arena regression floor"
        )
        ok = False
    elif ok:
        print("  arena gate passed")
    return section, ok


def time_trace_compile():
    """Compile throughput on the known-phase synthetic event stream.

    The chunks are materialized first so only the compiler itself --
    chunked binning plus change-point segmentation -- is on the clock.
    CPU time is the clock for the same reason as the traffic fleet:
    the binner is single-threaded numpy work, and CPU time is immune to
    scheduler noise on shared runners.
    """
    chunks = list(synthetic_event_stream(
        TRACE_COMPILE_EVENTS,
        n_pages=TRACE_COMPILE_PAGES,
        n_phases=TRACE_COMPILE_PHASES,
        windows_per_phase=TRACE_WINDOWS_PER_PHASE,
    ))
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    compiled = compile_event_stream(chunks, n_pages=TRACE_COMPILE_PAGES)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start
    trace = compiled[0]
    return {
        "n_events": TRACE_COMPILE_EVENTS,
        "n_pages": TRACE_COMPILE_PAGES,
        "n_windows": trace.n_windows,
        "n_phases_expected": TRACE_COMPILE_PHASES,
        "n_phases_detected": trace.n_phases,
        "cpu_sec": cpu,
        "wall_sec": wall,
        "events_per_cpu_sec": (
            TRACE_COMPILE_EVENTS / cpu if cpu else 0.0
        ),
        "events_per_sec": (
            TRACE_COMPILE_EVENTS / wall if wall else 0.0
        ),
    }


def _trace_replay_run(trace, fusion):
    """Replay one compiled trace for one full cycle, fusion on or off."""
    setup = StandardSetup(duration_ns=trace.total_ns)
    policy = setup.build_policy(TRACE_REPLAY_POLICY)
    streams = RngStreams(setup.seed)
    processes = [
        SimProcess(
            pid=0,
            workload=trace.to_workload(),
            rng=streams.spawn("replay-0").get("access"),
            name="replay-0",
        )
    ]
    start = time.perf_counter()
    result = run_experiment(
        processes, policy, setup.run_config(fusion=fusion)
    )
    wall = time.perf_counter() - start
    engine = result.engine
    return {
        "wall_sec": wall,
        "quanta": engine.quanta_run,
        "fused_quanta": engine.fused_quanta,
        "quanta_per_sec": (
            engine.quanta_run / wall if wall else 0.0
        ),
        "fusion_ratio": (
            engine.fused_quanta / engine.quanta_run
            if engine.quanta_run else 0.0
        ),
        "throughput_per_sec": result.throughput_per_sec,
        "fmar": result.fmar,
    }


def time_trace_replay(best_of=1):
    """Fused vs per-quantum replay of the compiled three-phase trace.

    The trace is compiled once and both modes replay the identical
    phase tables, so the fused run's fusion ratio measures how much of
    a phase-stable compiled trace the engine crosses in macro-quanta,
    and the fused-vs-per-quantum rel errors are the replay-fidelity
    check at the arena suite's tolerance.
    """
    trace = compile_event_stream(
        synthetic_event_stream(
            TRACE_REPLAY_EVENTS,
            n_pages=TRACE_COMPILE_PAGES,
            n_phases=TRACE_COMPILE_PHASES,
            windows_per_phase=TRACE_WINDOWS_PER_PHASE,
        ),
        n_pages=TRACE_COMPILE_PAGES,
    )[0]
    runs = {}
    for fusion in (True, False):
        best = None
        for _ in range(max(1, best_of)):
            run = _trace_replay_run(trace, fusion)
            if best is None or run["wall_sec"] < best["wall_sec"]:
                best = run
        runs["fused" if fusion else "per_quantum"] = best
    fused = runs["fused"]
    per_quantum = runs["per_quantum"]
    throughput_err = rel_err(
        fused["throughput_per_sec"], per_quantum["throughput_per_sec"]
    )
    fmar_err = rel_err(fused["fmar"], per_quantum["fmar"])
    equivalent = throughput_err <= TRACE_EQUIV_TOLERANCE and (
        fmar_err <= TRACE_EQUIV_TOLERANCE
        or abs(fused["fmar"] - per_quantum["fmar"]) <= 1e-4
    )
    per_quantum_qps = per_quantum["quanta_per_sec"]
    return {
        "trace": {
            "n_events": trace.n_events,
            "n_windows": trace.n_windows,
            "n_idle_windows": trace.n_idle_windows,
            "n_phases": trace.n_phases,
            "n_pages": trace.n_pages,
            "cycle_sec": trace.total_ns / SECOND,
        },
        "policy": TRACE_REPLAY_POLICY,
        "fused": fused,
        "per_quantum": per_quantum,
        "speedup": (
            fused["quanta_per_sec"] / per_quantum_qps
            if per_quantum_qps else 0.0
        ),
        "equivalence": {
            "throughput_rel_err": throughput_err,
            "fmar_rel_err": fmar_err,
            "tolerance": TRACE_EQUIV_TOLERANCE,
            "ok": equivalent,
        },
    }


def traffic_setup(duration_ns) -> StandardSetup:
    return StandardSetup(
        duration_ns=duration_ns,
        fast_pages=TRAFFIC_FAST_PAGES,
        slow_pages=TRAFFIC_SLOW_PAGES,
        scan_period_ns=TRAFFIC_SCAN_PERIOD_NS,
        aging_period_ns=TRAFFIC_AGING_PERIOD_NS,
        quantum_ns=TRAFFIC_QUANTUM_NS,
    )


def _traffic_run(duration_ns):
    """One traffic-fleet pass: build the stack by hand, time only
    ``engine.run``.

    Registration and initial placement of the 262 K-page fleet are a
    fixed per-run cost that would dilute the stepping cost (the same
    reasoning as the scaling ladder's per-quantum metric).  CPU time
    (``time.process_time``) is the clock: the engine step is
    single-threaded, and CPU time is immune to the scheduler noise
    that wall clock picks up on shared runners.
    """
    setup = traffic_setup(duration_ns)
    config = setup.run_config(fusion=False)
    policy = setup.build_policy(TRAFFIC_POLICY)
    processes = build_fleet(
        setup, "traffic",
        n_tenants=TRAFFIC_TENANTS,
        pages_per_tenant=TRAFFIC_PAGES,
        n_patterns=TRAFFIC_PATTERNS,
        base_delay_units=TRAFFIC_BASE_DELAY,
    )
    kernel = Kernel(
        machine=config.build_machine(),
        rng=RngStreams(config.seed),
        aging_period_ns=config.aging_period_ns,
    )
    for process in processes:
        kernel.register_process(process)
    kernel.allocate_initial_placement()
    kernel.set_policy(policy)
    engine = QuantumEngine(
        kernel, quantum_ns=config.quantum_ns, fusion=False
    )
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    end_ns = engine.run(config.duration_ns)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start
    result = summarize_run(policy, kernel, engine, end_ns)
    return cpu, wall, engine.quanta_run, result


def time_trace_traffic(duration_ns=TRAFFIC_DURATION_NS, best_of=3):
    """Arena stepping on the generated traffic fleet.

    The 1,024 tenants come out of the traffic generator -- Zipf
    popularity, diurnal load on a delay-bucket ladder, shared pattern
    tables.  A discarded warm-up pass absorbs one-time costs
    (distribution-table compilation, numpy dispatch warm-up); the run
    is deterministic, so ``best_of`` keeps the fastest pass.
    """
    _traffic_run(duration_ns)
    best = None
    for _ in range(max(1, best_of)):
        run = _traffic_run(duration_ns)
        if best is None or run[0] < best[0]:
            best = run
    cpu, wall, quanta, result = best
    return {
        "config": {
            "policy": TRAFFIC_POLICY,
            "workload": "traffic",
            "n_tenants": TRAFFIC_TENANTS,
            "pages_per_tenant": TRAFFIC_PAGES,
            "n_patterns": TRAFFIC_PATTERNS,
            "base_delay_units": TRAFFIC_BASE_DELAY,
            "fast_pages": TRAFFIC_FAST_PAGES,
            "slow_pages": TRAFFIC_SLOW_PAGES,
            "scan_period_sec": TRAFFIC_SCAN_PERIOD_NS / SECOND,
            "aging_period_sec": TRAFFIC_AGING_PERIOD_NS / SECOND,
            "quantum_ms": TRAFFIC_QUANTUM_NS / MILLISECOND,
            "duration_sec": duration_ns / SECOND,
            "fusion": False,
            "timing": "engine.run only, process CPU time",
        },
        "arena": {
            "cpu_sec": cpu,
            "wall_sec": wall,
            "quanta": quanta,
            "quanta_per_cpu_sec": quanta / cpu if cpu else 0.0,
            "throughput_per_sec": result.throughput_per_sec,
            "fmar": result.fmar,
        },
    }


def time_trace(best_of=3):
    """The whole trace section: compile, replay, traffic fleet."""
    return {
        "compile": time_trace_compile(),
        "replay": time_trace_replay(),
        "traffic": time_trace_traffic(best_of=best_of),
    }


def print_trace(section):
    comp = section["compile"]
    print(
        f"  trace compile: {comp['events_per_cpu_sec'] / 1e6:8.2f}M "
        f"events/cpu-sec ({comp['n_events']:,d} events, "
        f"{comp['n_phases_detected']}/{comp['n_phases_expected']} "
        "phases detected)"
    )
    replay = section["replay"]
    fused = replay["fused"]
    equiv = replay["equivalence"]
    print(
        f"  trace replay ({TRACE_REPLAY_POLICY}, "
        f"{replay['trace']['n_phases']} phases): "
        f"fused {fused['quanta_per_sec']:8.1f} q/s "
        f"({fused['fusion_ratio']:.0%} of quanta fused), "
        f"speedup {replay['speedup']:.2f}x, "
        f"fidelity={'ok' if equiv['ok'] else 'FAIL'}"
    )
    traffic = section["traffic"]["arena"]
    print(
        f"  traffic fleet ({TRAFFIC_POLICY}, x{TRAFFIC_TENANTS}): "
        f"arena {traffic['quanta_per_cpu_sec']:8.1f} q/cpu-s"
    )


def run_quick_trace_gate(baseline):
    """Trace compile, replay, and traffic floors vs the committed
    trace section.

    Five floors: compile throughput must clear ``TRACE_COMPILE_FLOOR``
    events per CPU-second absolutely and
    ``TRACE_COMPILE_GATE_FRACTION`` of the committed section; the
    fused replay's fusion ratio must clear
    ``TRACE_FUSION_RATIO_FLOOR`` and its fused-vs-per-quantum rel
    errors must stay inside ``TRACE_EQUIV_TOLERANCE``; and the traffic
    fleet's arena quanta per CPU-second must stay above
    ``TRAFFIC_GATE_FRACTION`` of the committed section.  A missing or
    pre-trace baseline skips the two committed-value comparisons; the
    absolute floors always apply.  Returns ``(section, ok)``.
    """
    committed_compile = None
    committed_traffic = None
    try:
        committed_compile = float(
            baseline["trace"]["compile"]["events_per_cpu_sec"]
        )
    except (KeyError, ValueError, TypeError):
        pass
    try:
        committed_traffic = float(
            baseline["trace"]["traffic"]["arena"]["quanta_per_cpu_sec"]
        )
    except (KeyError, ValueError, TypeError):
        pass
    print(
        f"  trace gate: compile {TRACE_COMPILE_EVENTS:,d} events, "
        f"replay {TRACE_REPLAY_POLICY}, traffic x{TRAFFIC_TENANTS}, "
        "best of 3"
    )
    section = time_trace(best_of=3)
    print_trace(section)
    section["compile"]["floor_events_per_cpu_sec"] = TRACE_COMPILE_FLOOR
    section["compile"]["baseline_events_per_cpu_sec"] = committed_compile
    section["compile"]["gate_fraction"] = TRACE_COMPILE_GATE_FRACTION
    section["replay"]["fusion_ratio_floor"] = TRACE_FUSION_RATIO_FLOOR
    section["traffic"]["baseline_quanta_per_cpu_sec"] = committed_traffic
    section["traffic"]["gate_fraction"] = TRAFFIC_GATE_FRACTION
    ok = True
    measured_compile = section["compile"]["events_per_cpu_sec"]
    if measured_compile < TRACE_COMPILE_FLOOR:
        print(
            f"  FAIL: compile throughput "
            f"{measured_compile / 1e6:.2f}M events/cpu-sec is below "
            f"the {TRACE_COMPILE_FLOOR / 1e6:.0f}M floor"
        )
        ok = False
    if committed_compile is not None:
        floor = TRACE_COMPILE_GATE_FRACTION * committed_compile
        if measured_compile < floor:
            print(
                f"  FAIL: compile throughput "
                f"{measured_compile / 1e6:.2f}M events/cpu-sec is "
                f"below the {TRACE_COMPILE_GATE_FRACTION:.0%} "
                "regression floor"
            )
            ok = False
    ratio = section["replay"]["fused"]["fusion_ratio"]
    if ratio < TRACE_FUSION_RATIO_FLOOR:
        print(
            f"  FAIL: replay fusion ratio {ratio:.0%} is below the "
            f"{TRACE_FUSION_RATIO_FLOOR:.0%} floor"
        )
        ok = False
    if not section["replay"]["equivalence"]["ok"]:
        print(
            "  FAIL: fused replay is not statistically equivalent to "
            "the per-quantum replay"
        )
        ok = False
    if committed_traffic is not None:
        floor = TRAFFIC_GATE_FRACTION * committed_traffic
        measured = section["traffic"]["arena"]["quanta_per_cpu_sec"]
        if measured < floor:
            print(
                f"  FAIL: {measured:.1f} traffic "
                "quanta/cpu-sec is below the "
                f"{TRAFFIC_GATE_FRACTION:.0%} regression floor"
            )
            ok = False
    if committed_compile is None or committed_traffic is None:
        print(
            "  no committed trace section; committed-value "
            "comparisons skipped"
        )
    if ok:
        print("  trace gate passed")
    return section, ok


def print_fusion(section):
    fused = section["fused"]
    per_quantum = section["per_quantum"]
    print(
        f"  fusion ({FUSION_POLICY}, pmbench x{FUSION_PROCS}): "
        f"fused {fused['quanta_per_sec']:8.1f} q/s "
        f"({fused['fusion_ratio']:.0%} of quanta fused), "
        f"per-quantum {per_quantum['quanta_per_sec']:8.1f} q/s, "
        f"speedup {section['speedup']:.2f}x"
    )


def scaling_setup(pages_per_proc: int) -> StandardSetup:
    """The ladder setup for one rung of the scaling sweep.

    Capacity tracks the footprint (fast tier = 25% of total pages, the
    paper's ratio), and the background scan / DCSC probe *bandwidths*
    are held constant by scaling their periods with the footprint --
    a 60 s kernel scan period covers the address space once regardless
    of its size, so pages-scanned-per-second is the invariant, not the
    period.  The aging period stays fixed: aging (and the accounting
    flush it forces) is the one deliberately amortized O(pages) pass.
    """
    scale = pages_per_proc // SCALING_SIZES[0]
    total = SCALING_PROCS * pages_per_proc
    return StandardSetup(
        fast_pages=total // 4,
        slow_pages=total,
        duration_ns=SCALING_DURATION_NS,
        scan_period_ns=5 * SECOND * scale,
        dcsc_probe_period_ns=(SECOND // 2) * scale,
        dcsc_probe_timeout_ns=4 * SECOND * scale,
    )


def time_scaling_run(policy_name, pages_per_proc, fast_path):
    """Time ``engine.run`` only -- steady-state cost, no setup noise.

    Building the kernel and attaching the policy are one-time O(pages)
    work and the initial placement is O(processes); the scaling story
    is about the per-quantum cost, so the clock starts at the engine.
    """
    setup = scaling_setup(pages_per_proc)
    policy = setup.build_policy(policy_name)
    processes = build_fleet(
        setup, "pmbench",
        n_procs=SCALING_PROCS, pages_per_proc=pages_per_proc,
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
    kernel.set_policy(policy)
    engine = QuantumEngine(
        kernel, quantum_ns=config.quantum_ns, fast_path=fast_path
    )
    start = time.perf_counter()
    end_ns = engine.run(config.duration_ns)
    wall = time.perf_counter() - start
    result = summarize_run(policy, kernel, engine, end_ns)
    quanta = engine.quanta_run
    total_pages = SCALING_PROCS * pages_per_proc
    return {
        "wall_sec": wall,
        "quanta": quanta,
        "quanta_per_sec": quanta / wall if wall else 0.0,
        "ns_per_page_quantum": (
            wall * 1e9 / (quanta * total_pages) if quanta else 0.0
        ),
        "throughput_per_sec": result.throughput_per_sec,
        "fmar": result.fmar,
    }


def rel_err(value: float, reference: float) -> float:
    if reference == 0.0:
        return abs(value)
    return abs(value - reference) / abs(reference)


def run_scaling(policy_name):
    """The page-count ladder: fast vs reference at every rung.

    Returns ``(section, ok)``; ``ok`` is False when any rung fails the
    fast-vs-reference equivalence tolerance or the largest rung's
    ns/page/quantum is not below the smallest's (the sublinearity
    gate).
    """
    print(
        f"  scaling ladder: {policy_name}, pmbench x{SCALING_PROCS}, "
        f"{SCALING_DURATION_NS / SECOND:.0f}s simulated per rung"
    )
    rungs = []
    ok = True
    for pages in SCALING_SIZES:
        fast = time_scaling_run(policy_name, pages, fast_path=True)
        reference = time_scaling_run(policy_name, pages, fast_path=False)
        throughput_err = rel_err(
            fast["throughput_per_sec"], reference["throughput_per_sec"]
        )
        fmar_err = rel_err(fast["fmar"], reference["fmar"])
        equivalent = (
            throughput_err <= SCALING_TOLERANCE
            and fmar_err <= SCALING_TOLERANCE
        )
        ok = ok and equivalent
        rungs.append({
            "pages_per_proc": pages,
            "total_pages": SCALING_PROCS * pages,
            "fast": fast,
            "reference": reference,
            "equivalence": {
                "throughput_rel_err": throughput_err,
                "fmar_rel_err": fmar_err,
                "tolerance": SCALING_TOLERANCE,
                "ok": equivalent,
            },
        })
        print(
            f"    {pages:>9,d} pages/proc: "
            f"fast {fast['ns_per_page_quantum']:7.2f} ns/page/q "
            f"({fast['quanta_per_sec']:8.1f} q/s), "
            f"ref {reference['ns_per_page_quantum']:7.2f} ns/page/q, "
            f"equiv={'ok' if equivalent else 'FAIL'}"
        )
    sublinear = (
        rungs[-1]["fast"]["ns_per_page_quantum"]
        < rungs[0]["fast"]["ns_per_page_quantum"]
    )
    ok = ok and sublinear
    print(
        "    sublinear ns/page/quantum: "
        f"{'ok' if sublinear else 'FAIL'} "
        f"({rungs[0]['fast']['ns_per_page_quantum']:.2f} at "
        f"{SCALING_SIZES[0]:,d} -> "
        f"{rungs[-1]['fast']['ns_per_page_quantum']:.2f} at "
        f"{SCALING_SIZES[-1]:,d})"
    )
    section = {
        "n_procs": SCALING_PROCS,
        "duration_sec": SCALING_DURATION_NS / SECOND,
        "tolerance": SCALING_TOLERANCE,
        "sizes": rungs,
        "sublinear_ok": sublinear,
    }
    return section, ok


def _sweep_baseline(baseline, jobs):
    """The committed shm-on ladder rung at ``jobs``, or ``None`` if the
    baseline predates the sweep-ladder schema or lacks the rung."""
    try:
        grid = baseline["sweep"]["grid"]
        for rung in baseline["sweep"]["ladder"]:
            if rung["jobs"] == jobs and rung["shared_memory"]:
                return grid, float(rung["cells_per_sec"])
    except (KeyError, ValueError, TypeError):
        pass
    return None, None


def run_quick_sweep_gate(baseline):
    """Cold sweep throughput vs the committed ladder rung.

    The gate rung is jobs=2 capped at ``host_cpus`` (a 1-CPU runner
    gates at jobs=1 against the committed jobs=1 rung).  Returns
    ``(section, ok)``; a missing or pre-ladder baseline skips the gate
    (``ok`` stays True) but still reports the measurement.
    """
    gate_jobs = min(2, host_cpus())
    grid, committed = (None, None)
    if baseline is not None:
        grid, committed = _sweep_baseline(baseline, gate_jobs)
    if grid is None:
        grid = {
            "policies": list(SWEEP_POLICIES),
            "seeds": list(SWEEP_SEEDS),
            "n_procs": 8,
            "pages_per_proc": 4_096,
            "duration_sec": 1.25,
        }
    cells = sweep_grid_cells(
        int(grid["duration_sec"] * SECOND),
        {
            "n_procs": grid["n_procs"],
            "pages_per_proc": grid["pages_per_proc"],
        },
        grid["policies"],
        grid["seeds"],
    )
    print(
        f"  sweep gate: {len(cells)} cells at jobs={gate_jobs}, shm on "
        f"({host_cpus()} host cpus)"
    )
    rung = time_sweep_rung(cells, jobs=gate_jobs, shared_memory=True)
    measured = rung["cells_per_sec"]
    print(f"  measured: {measured:8.2f} cells/sec")
    section = {
        "grid": grid,
        "host_cpus": host_cpus(),
        "gate_jobs": gate_jobs,
        "measured": rung,
        "baseline_cells_per_sec": committed,
        "gate_fraction": SWEEP_GATE_FRACTION,
    }
    if committed is None:
        print("  no committed sweep ladder; sweep gate skipped")
        return section, True
    floor = SWEEP_GATE_FRACTION * committed
    print(
        f"  baseline: {committed:8.2f} cells/sec "
        f"(floor {floor:.2f} = {SWEEP_GATE_FRACTION:.0%})"
    )
    if measured < floor:
        print(
            f"  FAIL: {measured:.2f} cells/sec is below the "
            f"{SWEEP_GATE_FRACTION:.0%} sweep regression floor"
        )
        return section, False
    print("  sweep gate passed")
    return section, True


def run_quick_fusion_gate(baseline, duration_ns):
    """Fused steady-state throughput and speedup vs the committed
    fusion section.

    Two floors: the fused-vs-per-quantum speedup must clear
    ``FUSION_SPEEDUP_FLOOR`` (fusion pays for itself), and fused
    quanta/sec must stay above ``FUSION_GATE_FRACTION`` of the
    committed fusion section.  The runs simulate the committed
    section's own ``config.duration_sec``, so both sides of the
    throughput floor measure the same runs (a shorter run fuses a
    smaller share of its quanta); ``duration_ns`` (``--duration``)
    applies only without a usable baseline.  A missing or pre-fusion
    baseline skips the throughput comparison; the speedup floor
    always applies.  Returns ``(section, ok)``.
    """
    committed = None
    try:
        fusion = baseline["fusion"]
        committed, duration_ns = (
            float(fusion["fused"]["quanta_per_sec"]),
            int(float(fusion["config"]["duration_sec"]) * SECOND),
        )
    except (KeyError, ValueError, TypeError):
        pass
    print(
        f"  fusion gate: {FUSION_POLICY}, pmbench x{FUSION_PROCS}, "
        f"{duration_ns / SECOND:.0f}s simulated, median of "
        f"{FUSION_PAIRS} interleaved pairs"
    )
    section = time_fusion(duration_ns)
    print_fusion(section)
    section["baseline_fused_quanta_per_sec"] = committed
    section["gate_fraction"] = FUSION_GATE_FRACTION
    section["speedup_floor"] = FUSION_SPEEDUP_FLOOR
    ok = True
    if section["speedup"] < FUSION_SPEEDUP_FLOOR:
        print(
            f"  FAIL: fused speedup {section['speedup']:.2f}x is below "
            f"the {FUSION_SPEEDUP_FLOOR:.1f}x floor"
        )
        ok = False
    if committed is None:
        print("  no committed fusion section; throughput gate skipped")
        return section, ok
    floor = FUSION_GATE_FRACTION * committed
    measured = section["fused"]["quanta_per_sec"]
    print(
        f"  baseline: {committed:8.1f} fused quanta/sec "
        f"(floor {floor:.1f} = {FUSION_GATE_FRACTION:.0%})"
    )
    if measured < floor:
        print(
            f"  FAIL: {measured:.1f} fused quanta/sec is below the "
            f"{FUSION_GATE_FRACTION:.0%} fusion regression floor"
        )
        ok = False
    elif ok:
        print("  fusion gate passed")
    return section, ok


def quick_engine_config(baseline, args) -> dict:
    """The headline config the quanta/sec gate times: the committed
    baseline's (policy, fleet, duration), so both sides of the gate
    measure the same runs; the command line's without a baseline."""
    try:
        config = baseline["config"]
        return {
            "policy": str(config["policy"]),
            "workload": "pmbench",
            "n_procs": int(config["n_procs"]),
            "pages_per_proc": int(config["pages_per_proc"]),
            "duration_sec": float(config["duration_sec"]),
        }
    except (KeyError, ValueError, TypeError):
        return {
            "policy": args.policy,
            "workload": "pmbench",
            "n_procs": args.procs,
            "pages_per_proc": args.pages,
            "duration_sec": args.duration,
        }


def run_quick_gate(args, baseline_path: pathlib.Path) -> int:
    """CI perf smoke: optimized path only, gated on the committed JSON."""
    baseline = None
    committed = None
    try:
        baseline = json.loads(baseline_path.read_text())
        committed = float(baseline["after"]["quanta_per_sec"])
    except (OSError, KeyError, ValueError, TypeError):
        print(f"  no usable baseline at {baseline_path}; gate skipped")

    config = quick_engine_config(baseline, args)
    setup = StandardSetup(
        duration_ns=int(config["duration_sec"] * SECOND)
    )
    workload_kwargs = dict(
        n_procs=config["n_procs"], pages_per_proc=config["pages_per_proc"]
    )
    print(
        f"quick gate: {config['policy']}, pmbench x{config['n_procs']}, "
        f"{config['duration_sec']:.0f}s simulated, median of "
        f"{ENGINE_RUNS} runs"
    )
    optimized = time_engine_median(
        setup, config["policy"], workload_kwargs
    )
    measured = optimized["quanta_per_sec"]
    print(f"  measured: {measured:8.1f} quanta/sec")

    quanta_ok = True
    if committed is not None:
        floor = QUICK_GATE_FRACTION * committed
        print(
            f"  baseline: {committed:8.1f} quanta/sec "
            f"(floor {floor:.1f} = {QUICK_GATE_FRACTION:.0%})"
        )
        if measured < floor:
            print(
                f"  FAIL: {measured:.1f} quanta/sec is below the "
                f"{QUICK_GATE_FRACTION:.0%} regression floor"
            )
            quanta_ok = False
        else:
            print("  gate passed")

    sweep_section, sweep_ok = run_quick_sweep_gate(baseline)
    fusion_section, fusion_ok = run_quick_fusion_gate(
        baseline, int(args.duration * SECOND)
    )
    arena_section, arena_ok = run_quick_arena_gate(baseline)
    trace_section, trace_ok = run_quick_trace_gate(baseline)

    this_host = provenance()
    baseline_cpus = None
    try:
        baseline_cpus = int(baseline["provenance"]["host_cpus"])
    except (KeyError, ValueError, TypeError):
        pass
    if (
        baseline_cpus is not None
        and baseline_cpus != this_host["host_cpus"]
    ):
        print(
            f"  WARNING: baseline came from a {baseline_cpus}-CPU host "
            f"but this host has {this_host['host_cpus']}; wall-clock "
            "floors may be miscalibrated"
        )

    payload = {
        "config": config,
        "provenance": this_host,
        "after": optimized,
        "baseline_quanta_per_sec": committed,
        "gate_fraction": QUICK_GATE_FRACTION,
        "sweep_gate": sweep_section,
        "fusion_gate": fusion_section,
        "arena_gate": arena_section,
        "trace_gate": trace_section,
    }
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {out}")
    all_ok = (
        quanta_ok and sweep_ok and fusion_ok and arena_ok and trace_ok
    )
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--duration", type=float, default=None,
        help=(
            "simulated seconds per run (default: 20, or 5 with "
            "--quick, where the quanta/sec and fusion gates run the "
            "baseline's configs and this sets the fusion runs only "
            "without a baseline)"
        ),
    )
    parser.add_argument(
        "--policy", default="chrono",
        help="policy for the engine timing runs (default: chrono)",
    )
    parser.add_argument("--procs", type=int, default=8)
    parser.add_argument("--pages", type=int, default=4_096)
    parser.add_argument(
        "--out", default=None,
        help=(
            "output JSON path (default: BENCH_engine.json, or "
            "BENCH_engine_quick.json with --quick)"
        ),
    )
    parser.add_argument(
        "--quick", action="store_true",
        # argparse %-formats help text: escape the rendered percents.
        help=(
            "CI regression gate: time only the optimized path and fail "
            "when quanta/sec drops below "
            f"{QUICK_GATE_FRACTION:.0%} of the committed baseline, "
            "cold sweep cells/sec at jobs=2 drops below "
            f"{SWEEP_GATE_FRACTION:.0%} of the committed ladder rung, "
            "fused quanta/sec drops below "
            f"{FUSION_GATE_FRACTION:.0%} of the committed fusion "
            "section, the fused-vs-per-quantum speedup falls below "
            f"{FUSION_SPEEDUP_FLOOR:.1f}x, the arena-vs-reference "
            f"speedup falls below {ARENA_SPEEDUP_FLOOR:.1f}x, the "
            "arena strays from the reference engine by more than "
            f"{ARENA_THROUGHPUT_TOLERANCE:.1%} on throughput or "
            f"{ARENA_FMAR_TOLERANCE:.1%} on FMAR, trace compile "
            "throughput falls below "
            f"{TRACE_COMPILE_FLOOR / 1e6:.0f}M events/cpu-sec, or the "
            "replayed trace's fusion ratio falls below "
            f"{TRACE_FUSION_RATIO_FLOOR:.0%}"
        ).replace("%", "%%"),
    )
    parser.add_argument(
        "--baseline", default=None,
        help=(
            "baseline JSON for the --quick gate and for merging "
            "skipped full-run sections "
            "(default: the repo's committed BENCH_engine.json)"
        ),
    )
    parser.add_argument(
        "--skip-scaling", action="store_true",
        help="skip the page-count scaling ladder",
    )
    parser.add_argument(
        "--allow-stale", action="store_true",
        help=(
            "allow skipped sections to be carried forward from a "
            "committed baseline whose provenance sha differs from "
            "HEAD (the carried section is annotated as stale)"
        ),
    )
    args = parser.parse_args(argv)

    if args.duration is None:
        args.duration = 5.0 if args.quick else 20.0
    if args.baseline is None:
        args.baseline = str(
            pathlib.Path(__file__).resolve().parent.parent
            / "BENCH_engine.json"
        )
    if args.quick:
        if args.out is None:
            args.out = "BENCH_engine_quick.json"
        return run_quick_gate(args, pathlib.Path(args.baseline))
    if args.out is None:
        args.out = "BENCH_engine.json"

    duration_ns = int(args.duration * SECOND)
    setup = StandardSetup(duration_ns=duration_ns)
    workload_kwargs = dict(
        n_procs=args.procs, pages_per_proc=args.pages
    )

    print(
        f"engine benchmark: {args.policy}, pmbench x{args.procs}, "
        f"{args.duration:.0f}s simulated"
    )
    naive = time_engine(
        setup, args.policy, workload_kwargs,
        fast_path=False, profile=False,
    )
    print(
        f"  before (per-page path): {naive['quanta_per_sec']:8.1f} "
        f"quanta/sec  ({naive['wall_sec']:.2f}s wall)"
    )
    optimized = time_engine_median(setup, args.policy, workload_kwargs)
    print(
        f"  after  (cached masses): {optimized['quanta_per_sec']:8.1f} "
        f"quanta/sec  ({optimized['wall_sec']:.2f}s wall, median of "
        f"{ENGINE_RUNS})"
    )
    # The profile comes from a run of its own: the profile's wrappers
    # stay out of the gated quanta/sec.
    profiled = time_engine(
        setup, args.policy, workload_kwargs,
        fast_path=True, profile=True,
    )
    speedup = (
        optimized["quanta_per_sec"] / naive["quanta_per_sec"]
        if naive["quanta_per_sec"]
        else 0.0
    )
    print(f"  speedup: {speedup:.2f}x")

    skipped = []
    sweep = None
    warm_vs_cold = None
    if host_cpus() == 1:
        print(
            "  WARNING: 1-CPU host; skipping the sweep ladder and "
            "warm-vs-cold sections (worker-pool rungs here would only "
            "time scheduler churn, not parallel speedup)"
        )
        skipped += ["sweep", "warm_vs_cold"]
    else:
        print(
            f"  sweep ladder: {len(SWEEP_POLICIES) * len(SWEEP_SEEDS)} "
            f"cells, jobs {sweep_jobs_ladder()} x shm on/off "
            f"({host_cpus()} host cpus)"
        )
        sweep = time_sweep_ladder(
            duration_ns // 4,
            workload_kwargs,
            SWEEP_POLICIES,
            SWEEP_SEEDS,
        )
        warm_vs_cold = time_warm_vs_cold(
            duration_ns // 4, n_procs=2, pages_per_proc=args.pages
        )
        print(
            "  warm vs cold tables "
            f"(graph500 x{warm_vs_cold['n_cells']}): "
            f"cold {warm_vs_cold['cold']['wall_sec']:.2f}s, "
            f"warm {warm_vs_cold['warm']['wall_sec']:.2f}s "
            f"({warm_vs_cold['speedup']:.2f}x)"
        )
    tournament = time_tournament(duration_ns // 4)
    print_tournament(tournament)
    fusion = time_fusion(duration_ns)
    print_fusion(fusion)
    arena = time_arena()
    print_arena(arena)
    trace = time_trace()
    print_trace(trace)

    scaling = None
    scaling_ok = True
    if args.skip_scaling:
        skipped.append("scaling")
    else:
        scaling, scaling_ok = run_scaling(args.policy)

    payload = {
        "config": {
            "policy": args.policy,
            "workload": "pmbench",
            "n_procs": args.procs,
            "pages_per_proc": args.pages,
            "duration_sec": args.duration,
        },
        "provenance": provenance(),
        "before": {
            k: naive[k]
            for k in ("wall_sec", "quanta", "quanta_per_sec")
        },
        "after": optimized,
        "speedup": speedup,
        "sweep": sweep,
        "warm_vs_cold": warm_vs_cold,
        "tournament": tournament,
        "fusion": fusion,
        "arena": arena,
        "trace": trace,
        "scaling": scaling,
        "profile": profiled["profile"],
    }
    if not merge_stale_sections(
        payload, skipped, pathlib.Path(args.baseline), args.allow_stale
    ):
        return 1
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  wrote {out}")
    ok = True
    if not scaling_ok:
        print("  FAIL: scaling ladder equivalence/sublinearity gate")
        ok = False
    if arena["speedup"] < ARENA_SPEEDUP_FLOOR:
        print(
            f"  FAIL: arena speedup {arena['speedup']:.2f}x is below "
            f"the {ARENA_SPEEDUP_FLOOR:.1f}x floor"
        )
        ok = False
    if not arena_fidelity_ok(arena):
        ok = False
    if trace["compile"]["events_per_cpu_sec"] < TRACE_COMPILE_FLOOR:
        print(
            "  FAIL: trace compile throughput "
            f"{trace['compile']['events_per_cpu_sec'] / 1e6:.2f}M "
            f"events/cpu-sec is below the "
            f"{TRACE_COMPILE_FLOOR / 1e6:.0f}M floor"
        )
        ok = False
    if (
        trace["replay"]["fused"]["fusion_ratio"]
        < TRACE_FUSION_RATIO_FLOOR
    ):
        print(
            "  FAIL: replay fusion ratio "
            f"{trace['replay']['fused']['fusion_ratio']:.0%} is below "
            f"the {TRACE_FUSION_RATIO_FLOOR:.0%} floor"
        )
        ok = False
    if not trace["replay"]["equivalence"]["ok"]:
        print(
            "  FAIL: fused replay is not statistically equivalent to "
            "the per-quantum replay"
        )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
