#!/usr/bin/env python3
"""Contended-regime benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet96 --seed 0 --seconds 16 --trace 0

The benchmark generates the workload's inputs from ``--seed``, then
drives the engine through the public API in this one process: no
worker pool, no result cache.

``--trace 0`` measures the end-to-end metrics.  For ``--seconds`` it
repeats set-up + stepping runs of the default engine, each from a cold
workload table cache, half of them before and half after one
``fast_path=False`` reference run at the same config and seed.  Between
the default runs it samples the host's speed
(:mod:`perfbench.hostspeed`):

=================  ============  ===========================================
metric             unit          meaning
=================  ============  ===========================================
setup_s            s             generated inputs -> first engine step
                                 (trace compile, fleet and tables,
                                 registration, placement, policy attach);
                                 median over every run, at nominal host
                                 speed
sim_s_per_s        sim_s/s       simulated seconds per wall second of
                                 ``QuantumEngine.run``, over all runs but
                                 the first, at nominal host speed
cpu_s_per_sim_s    cpu_s/sim_s   process CPU seconds per simulated
                                 second, likewise
peak_rss_mb        MiB           peak resident memory of one run; the
                                 smallest over all runs
ref_err_throughput ratio         1 + |default - reference| / larger of
ref_err_fmar                     the two, for simulated accesses/s, FMAR
ref_err_lat_mean                 and mean access latency
=================  ============  ===========================================

The stepping runs of one seed are identical computations, yet on a
2-vCPU shared VM the same run's CPU time varied up to 1.9x between
repetitions, and the level drifted by 20-55% over minutes, so two
invocations minutes apart read the host as much as the program.  The
host timings are therefore divided by the host's slowdown over the same
invocation: the mean time of the host-speed samples taken between the
runs against the probe's nominal time, on the same clock (wall for
``setup_s`` and ``sim_s_per_s``, CPU for ``cpu_s_per_sim_s``).  The
record keeps the timings as measured and the samples.  The stepping
metrics are ratios of totals, which average the faster swings; the
first run, which warms the process up, is checked but not timed.
Set-up time is the median of one sample per run.  A run leaves some
memory resident for the runs after it (the reference run a few MiB),
so the smallest peak is the closest to one run's own.

The reference errors read ``1 + error`` so that a faithful engine reads
1.0 instead of a seed-noise value near zero, which has no stable
median.  The error's base is the larger of the two values: that is the
reference whenever the default reads low (throughput and FMAR under
the interning bias), and bounds the error below 1 when it reads high
(mean latency), so a seed where the reference itself lands in a better
regime moves every error alike instead of doubling the latency error.

``--trace 1`` measures the per-layer split: untraced and traced runs
alternate for ``--seconds``; the first traced run gives every layer's
``calls`` and ``self_s`` plus the extras in :func:`layer_metrics`, and
``trace.overhead`` compares the median stepping times.  A traced run's
model statistics must equal the untraced run's exactly.

Every run checks its outputs (:func:`perfbench.workloads.check`); a run
that raises or fails a check counts as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record -- host timings and exact
model statistics of every run -- goes to ``perfbench/out/`` (and, for a
traced run, its spans as ``.npz``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import math
import os
import pathlib
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

# One process, one thread.  The reference engine's dot products start
# OpenBLAS's worker pool, whose idle worker spins on the other vCPU: it
# doubled the reference run's CPU time at the same wall time and was
# still running in the host-speed sample after it.  Set before NumPy
# loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import hostspeed, tracing, workloads  # noqa: E402
from repro.workloads import reset_table_cache  # noqa: E402

OUT_DIR = ROOT / "perfbench" / "out"

#: layers every traced run must enter: scan and aging are live
LIVE_LAYERS = ("kernel.scanner", "kernel.lru", "kernel.migration")


@dataclass
class Run:
    """One set-up + stepping run: host timings and model statistics."""

    kind: str
    setup_s: float = math.nan
    wall_s: float = math.nan
    cpu_s: float = math.nan
    sim_s: float = math.nan
    peak_rss_mb: float = math.nan
    total_pages: int = 0
    model: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


def reset_peak_rss() -> None:
    """Open one run's peak-RSS window: collect garbage, hand the
    allocator's free heap back to the kernel (glibc ``malloc_trim``) so
    memory an earlier run freed is no longer resident, and restart the
    kernel's peak counter at the current RSS."""
    gc.collect()
    trim = ctypes.CDLL(None).malloc_trim
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory (MiB) since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def time_setup(spec, inputs, fast_path=True):
    """Build a stack from a cold table cache; ``(stack, seconds)``."""
    gc.collect()
    reset_table_cache()
    start = time.perf_counter()
    stack = workloads.build_stack(spec, inputs, fast_path=fast_path)
    return stack, time.perf_counter() - start


def measure(spec, inputs, kind, fast_path=True, tracer=None) -> Run:
    """One run: timed set-up, timed stepping, summary and checks.

    An exception inside the run is recorded as a failure of this run.
    """
    run = Run(kind=kind)
    try:
        reset_peak_rss()
        with tracer or contextlib.nullcontext():
            stack, run.setup_s = time_setup(spec, inputs, fast_path)
        engine = stack.engine
        wall = time.perf_counter()
        cpu = time.process_time()
        with tracer or contextlib.nullcontext():
            end_ns = engine.run(stack.duration_ns)
        run.cpu_s = time.process_time() - cpu
        run.wall_s = time.perf_counter() - wall
        result = workloads.summarize(stack, end_ns)
        run.peak_rss_mb = peak_rss_mb()
        run.sim_s = stack.duration_ns / 1e9
        run.total_pages = sum(p.n_pages for p in stack.kernel.processes)
        run.model = workloads.model_stats(result)
        run.failures = workloads.check(stack, result)
    except Exception:
        traceback.print_exc()
        run.failures.append("raised: " + traceback.format_exc(limit=1))
    print(describe(run), flush=True)
    return run


def repeat(seconds: float, make_runs) -> List[Run]:
    """Call ``make_runs()`` (a list of runs) until ``seconds`` pass."""
    runs: List[Run] = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.extend(make_runs())
    return runs


def ref_error(value: float, reference: float) -> float:
    """``1 + |value - reference| / max(|value|, |reference|)``."""
    return 1.0 + abs(value - reference) / max(abs(value), abs(reference))


def end_to_end(spec, inputs, seconds: float, record: dict) -> List[Run]:
    """The untraced protocol; fills ``record['values']`` with every
    metric the successful runs give."""

    host = hostspeed.HostSpeed()

    def default() -> List[Run]:
        start = time.perf_counter()
        run = measure(spec, inputs, "default")
        host.keep_up(time.perf_counter() - start)
        return [run]

    runs = repeat(seconds / 2, default)
    reference = measure(spec, inputs, "reference", fast_path=False)
    runs += repeat(seconds / 2, default)
    good = [r for r in runs if not r.failures]
    for run in good[1:]:
        if run.model != good[0].model:
            run.failures.append("model statistics differ at one seed")
    good = [r for r in good if not r.failures]
    # The first run warms the process up: it is checked, not timed.
    timed = [r for r in runs[1:] if not r.failures]
    setups = [r.setup_s for r in runs + [reference] if not r.failures]
    if good and not reference.failures:
        reference.failures += workloads.check_fidelity(
            spec, good[0].model, reference.model
        )
    # Host timings are divided by the host's slowdown on their own clock;
    # the record keeps them as measured.
    wall_slowdown, cpu_slowdown = host.slowdown()
    raw: Dict[str, float] = {}
    values: Dict[str, float] = {}
    if setups:
        raw["setup_s"] = statistics.median(setups)
        values["setup_s"] = raw["setup_s"] / wall_slowdown
    if timed:
        sim_s = sum(r.sim_s for r in timed)
        raw["sim_s_per_s"] = sim_s / sum(r.wall_s for r in timed)
        raw["cpu_s_per_sim_s"] = sum(r.cpu_s for r in timed) / sim_s
        values["sim_s_per_s"] = raw["sim_s_per_s"] * wall_slowdown
        values["cpu_s_per_sim_s"] = raw["cpu_s_per_sim_s"] / cpu_slowdown
    if good:
        values["peak_rss_mb"] = min(r.peak_rss_mb for r in good)
    if good and reference.model:
        for metric, stat in workloads.REF_ERR_STATS.items():
            values[metric] = ref_error(
                good[0].model[stat], reference.model[stat]
            )
    record["setup_samples_s"] = setups
    record["host_samples_s"] = host.samples
    record["host_slowdown"] = {"wall": wall_slowdown, "cpu": cpu_slowdown}
    record["as_measured"] = raw
    record["values"] = values
    return runs + [reference]


def per_layer(spec, inputs, seconds: float, record: dict) -> List[Run]:
    """The traced protocol; fills ``record['values']``, which stays
    empty when no untraced and traced pair succeeds."""
    policy_cls = workloads.policy_class(spec)
    tracers: List[tracing.Tracer] = []

    def pair() -> List[Run]:
        untraced = measure(spec, inputs, "untraced")
        tracer = tracing.Tracer(policy_cls)
        traced = measure(spec, inputs, "traced", tracer=tracer)
        if not (untraced.failures or traced.failures):
            if untraced.model != traced.model:
                traced.failures.append(
                    "traced model statistics differ from untraced"
                )
            times = tracer.layer_times()
            for layer in LIVE_LAYERS:
                if times.get(layer, (1,))[0] == 0:
                    traced.failures.append(f"{layer} never ran")
            if not (traced.failures or tracers):
                tracers.append(tracer)
        return [untraced, traced]

    runs = repeat(seconds, pair)
    record["values"] = {}
    if not tracers:
        return runs
    tracer = tracers[0]
    spans = OUT_DIR / f"{record['name']}-spans.npz"
    tracer.write(spans)
    record["spans"] = spans.name
    record["missing_entry_points"] = tracer.missing
    pairs = [
        (untraced, traced)
        for untraced, traced in zip(runs[::2], runs[1::2])
        if not (untraced.failures or traced.failures)
    ]
    model = pairs[0][0].model
    values = layer_metrics(tracer, model)
    # Stepping time on the CPU clock, compared within each adjacent
    # pair: the host's speed drifts too much between pairs for a
    # few-percent tracing cost to show otherwise.
    values["trace.overhead"] = statistics.median(
        traced.cpu_s / untraced.cpu_s for untraced, traced in pairs
    ) - 1.0
    values["harness.ns_per_page_quantum"] = statistics.median(
        untraced.cpu_s for untraced, _ in pairs
    ) * 1e9 / (pairs[0][0].total_pages * model["quanta"])
    for name in ("throughput", "fmar", "lat_mean_ns", "lat_p99_ns"):
        values[f"model.{name}"] = model[name]
    record["values"] = values
    return runs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(
    tracer: tracing.Tracer, model: Dict[str, float]
) -> Dict[str, float]:
    """Every wrapped layer's ``calls`` and ``self_s`` plus its extras,
    from one traced run and its model statistics."""
    times = tracer.layer_times()
    counts = tracer.counts
    values: Dict[str, float] = {}
    for layer, (calls, self_s) in times.items():
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    steps = tracer.durations_s("ProcessArena.step") * 1e3
    extras = {
        "harness.engine": {
            "steps": model["steps"],
            "quanta": model["quanta"],
            "fused_quanta": model["fused_quanta"],
            "fusion_ratio": _ratio(model["fused_quanta"], model["quanta"]),
        },
        "harness.arena": {
            "step_ms_p50": _percentile(steps, 50),
            "step_ms_p99": _percentile(steps, 99),
            "step_count": steps.size,
            "classes": counts["arena.classes"],
            "interned_segments": counts["arena.interned_segments"],
            "reprice_skip_ratio": _ratio(
                counts["arena.reprice_skipped"],
                counts["arena.reprice_skipped"] + counts["arena.repriced"],
            ),
        },
        "kernel.fault": {"hint_faults": model["hint_faults"]},
        "core.dcsc": {"samples": counts["core.dcsc.samples"]},
        "kernel.scanner": {"pages_marked": model["pages_scanned"]},
        "kernel.reclaim": {
            "wakes": tracer.child_calls(
                "ReclaimDaemon.demote_cold_pages", "ReclaimDaemon.run_once"
            ),
        },
        "kernel.migration": {
            "promoted": model["promoted"],
            "demoted": model["demoted"],
            "drop_ratio": _ratio(
                model["promotion_dropped"],
                model["promoted"] + model["promotion_dropped"],
            ),
        },
        "workloads.compile": {
            "events_per_s": _ratio(
                counts["compile.events"],
                tracer.durations_s("compile_trace_file").sum(),
            ),
            "phases": counts["compile.phases"],
        },
        "workloads.fleet": {
            "table_hit_ratio": _ratio(
                counts["fleet.table_hits"],
                counts["fleet.table_hits"] + counts["fleet.table_misses"],
            ),
        },
    }
    for layer, metrics in extras.items():
        if layer in times:
            for name, value in metrics.items():
                values[f"{layer}.{name}"] = value
    return values


def describe(run: Run) -> str:
    model = run.model
    text = (
        f"  {run.kind:9s} setup {run.setup_s:7.3f} s  step "
        f"{run.wall_s:7.2f} s wall {run.cpu_s:7.2f} s cpu  "
        f"rss {run.peak_rss_mb:7.1f} MiB"
    )
    if model:
        text += (
            f"  thr {model['throughput']:.4e}  fmar {model['fmar']:.4f}"
            f"  lat {model['lat_mean_ns']:.1f} ns"
            f"  prom {model['promoted']}  dem {model['demoted']}"
        )
    if run.failures:
        text += "  FAILED: " + "; ".join(run.failures)
    return text


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.SPECS)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = workloads.SPECS[args.workload]
    name = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {name} seconds={args.seconds:g}", flush=True)
    record = {
        "name": name,
        "workload": spec.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    inputs = workloads.make_inputs(spec, args.seed, OUT_DIR)
    try:
        protocol = per_layer if args.trace else end_to_end
        runs = protocol(spec, inputs, args.seconds, record)
    finally:
        if inputs.events_path is not None:
            inputs.events_path.unlink()
    # Units come from BENCHMARK.json.  A layer whose entry points are
    # gone, and a metric no successful run gave, has no value and drops
    # out; the failed runs are counted below.
    values = record.pop("values")
    metrics = declared["per_layer" if args.trace else "end_to_end"]
    undeclared = set(values) - {m["name"] for m in metrics}
    if undeclared:
        raise RuntimeError(f"not in BENCHMARK.json: {sorted(undeclared)}")
    record["metrics"] = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in metrics
        if m["name"] in values
    }
    for metric, value in record["metrics"].items():
        print(f"  {metric:34s} {value['value']:14.6g} {value['unit']}")
    if "host_slowdown" in record:
        print("  host slowdown  wall {wall:.4f}  cpu {cpu:.4f}".format(
            **record["host_slowdown"]
        ))
    failed = sum(1 for run in runs if run.failures)
    record["runs"] = [asdict(run) for run in runs]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{name}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
