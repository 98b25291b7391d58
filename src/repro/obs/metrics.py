"""The per-subsystem metrics registry.

Three instrument kinds -- :class:`Counter` (monotonic totals),
:class:`Gauge` (last-write-wins levels), and :class:`Histogram`
(bucketed distributions) -- collected in a :class:`MetricsRegistry` with
a single :meth:`MetricsRegistry.snapshot` read API.

Every metric the simulator maintains is declared up front in
:data:`METRIC_CATALOGUE` (name, kind, unit, emitting module,
description); a registry pre-creates all of them so a snapshot always
has the full, stable key set -- zero-valued metrics read as zero instead
of being absent.  ``docs/OBSERVABILITY.md`` documents the catalogue and
``tests/test_docs_reference.py`` keeps the two in sync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

#: exponential bucket edges for CIT histograms: 1 us .. ~17 min
_CIT_EDGES_NS: Tuple[float, ...] = tuple(
    float(1_000 * 2**k) for k in range(0, 30, 2)
)

#: power-of-two bucket edges for migration batch sizes
_BATCH_EDGES_PAGES: Tuple[float, ...] = tuple(
    float(2**k) for k in range(0, 13)
)

#: power-of-two bucket edges for cell wall times: ~16 ms .. ~17 min
_WALL_EDGES_SEC: Tuple[float, ...] = tuple(
    float(2.0**k) for k in range(-6, 11)
)

#: power-of-two bucket edges for fused-window lengths: 2 .. 4096 quanta
_FUSION_EDGES_QUANTA: Tuple[float, ...] = tuple(
    float(2**k) for k in range(1, 13)
)


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric in the catalogue."""

    #: the metric name (dotted, ``subsystem.quantity``)
    name: str
    #: ``counter``, ``gauge``, or ``histogram``
    kind: str
    #: measurement unit (``pages``, ``ns``, ``count``, ...)
    unit: str
    #: the module that maintains the metric
    module: str
    #: what the metric measures
    description: str
    #: bucket edges (histograms only)
    edges: Tuple[float, ...] = field(default=())


def _spec(
    name: str,
    kind: str,
    unit: str,
    module: str,
    description: str,
    edges: Tuple[float, ...] = (),
) -> MetricSpec:
    """Build a :class:`MetricSpec` (positional shorthand)."""
    return MetricSpec(
        name=name, kind=kind, unit=unit, module=module,
        description=description, edges=edges,
    )


#: name -> spec for every metric the simulator maintains
METRIC_CATALOGUE: Dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        # -- scanner ----------------------------------------------------
        _spec("scan.windows", "counter", "count", "repro.kernel.scanner",
              "Ticking-scan events executed."),
        _spec("scan.pages_marked", "counter", "pages",
              "repro.kernel.scanner",
              "pages newly marked PROT_NONE by scan events."),
        _spec("scan.passes", "counter", "count", "repro.kernel.scanner",
              "full address-space scan passes completed."),
        # -- fault path -------------------------------------------------
        _spec("fault.batches", "counter", "count", "repro.kernel.kernel",
              "hint-fault batches delivered to the policy: one per "
              "faulting process per quantum, though the policy takes "
              "a quantum's batches in one on_faults call."),
        _spec("fault.hint_faults", "counter", "count",
              "repro.kernel.kernel", "NUMA hint faults taken."),
        _spec("fault.cost_ns", "counter", "ns", "repro.kernel.kernel",
              "kernel time charged for hint-fault handling."),
        _spec("fault.cit_ns", "histogram", "ns", "repro.kernel.kernel",
              "distribution of Captured Idle Time over all hint faults.",
              edges=_CIT_EDGES_NS),
        # -- DCSC -------------------------------------------------------
        _spec("dcsc.probes", "counter", "pages", "repro.core.dcsc",
              "pages marked PG_probed by DCSC victim selection."),
        _spec("dcsc.samples", "counter", "samples", "repro.core.dcsc",
              "completed two-round CIT samples recorded into heat maps."),
        _spec("dcsc.expired", "counter", "pages", "repro.core.dcsc",
              "probes that timed out unfaulted (counted maximally cold)."),
        # -- promotion --------------------------------------------------
        _spec("promotion.submitted", "counter", "pages",
              "repro.core.policy",
              "promotion-ready pages submitted to the queue."),
        _spec("promotion.enqueued", "counter", "pages",
              "repro.core.policy",
              "submitted pages actually added (after deduplication)."),
        _spec("promotion.queue_depth", "gauge", "pages",
              "repro.core.promotion",
              "current promotion-queue depth."),
        # -- migration --------------------------------------------------
        _spec("migration.promoted_pages", "counter", "pages",
              "repro.kernel.migration", "pages moved to the fast tier."),
        _spec("migration.demoted_pages", "counter", "pages",
              "repro.kernel.migration", "pages moved to a slow tier."),
        _spec("migration.dropped_pages", "counter", "pages",
              "repro.kernel.migration",
              "promotion overflow dropped for lack of fast-tier frames."),
        _spec("migration.cost_ns", "counter", "ns",
              "repro.kernel.migration",
              "kernel time charged for page copies."),
        _spec("migration.batch_pages", "histogram", "pages",
              "repro.kernel.migration",
              "distribution of migration batch sizes.",
              edges=_BATCH_EDGES_PAGES),
        # -- reclaim ----------------------------------------------------
        _spec("reclaim.wakes", "counter", "count", "repro.kernel.reclaim",
              "reclaim passes that found free memory below the target."),
        _spec("reclaim.demoted_pages", "counter", "pages",
              "repro.kernel.reclaim",
              "pages demoted by reclaim victim selection."),
        _spec("reclaim.direct_penalty_ns", "counter", "ns",
              "repro.kernel.reclaim",
              "direct-reclaim stall time charged to allocating processes."),
        _spec("watermark.crossings", "counter", "count",
              "repro.kernel.reclaim",
              "fast-tier free-memory watermark-zone transitions."),
        # -- thrashing / tuning ----------------------------------------
        _spec("thrash.events", "counter", "count", "repro.core.policy",
              "demote-then-promote round trips detected."),
        _spec("chrono.cit_threshold_ns", "gauge", "ns",
              "repro.core.policy",
              "current CIT classification threshold."),
        _spec("chrono.rate_limit_pages_per_sec", "gauge", "pages/s",
              "repro.core.policy",
              "current effective promotion rate limit."),
        # -- rival policies ---------------------------------------------
        _spec("nomad.aborted_pages", "counter", "pages",
              "repro.policies.nomad",
              "transactional promotions aborted by a write during the "
              "copy window (the copy cost is wasted)."),
        _spec("nomad.shadow_released", "counter", "pages",
              "repro.policies.nomad",
              "shadow frames released by reconciliation (write "
              "invalidation, zero-copy demotion, pressure reclaim)."),
        _spec("nomad.shadow_pages", "gauge", "pages",
              "repro.policies.nomad",
              "slow-tier frames currently held by live shadow copies."),
        _spec("tierbpf.admitted_pages", "counter", "pages",
              "repro.policies.tierbpf",
              "promotion candidates that passed the payback admission "
              "test and were migrated."),
        _spec("tierbpf.rejected_pages", "counter", "pages",
              "repro.policies.tierbpf",
              "promotion candidates rejected and requeued by the "
              "admission test."),
        _spec("arms.drift_resets", "counter", "count",
              "repro.policies.arms",
              "drift-detector firings that reset the tuned threshold."),
        _spec("arms.threshold_ns", "gauge", "ns",
              "repro.policies.arms",
              "current feedback-tuned promotion threshold."),
        _spec("jenga.damped_pages", "counter", "pages",
              "repro.policies.jenga",
              "promotion candidates blocked by the refractory window "
              "or history damping."),
        _spec("jenga.damping_factor", "gauge", "ratio",
              "repro.policies.jenga",
              "current promotion-budget multiplier (1 = no recent "
              "demotion pressure)."),
        # -- tournament -------------------------------------------------
        _spec("tournament.cells_run", "counter", "count",
              "repro.harness.tournament",
              "tournament cells executed or served from cache."),
        _spec("tournament.policies_ranked", "counter", "count",
              "repro.harness.tournament",
              "policies that produced a complete leaderboard row."),
        # -- LRU aging --------------------------------------------------
        _spec("aging.passes", "counter", "count", "repro.kernel.kernel",
              "per-process LRU reference-bit aging passes."),
        # -- PEBS -------------------------------------------------------
        _spec("pebs.samples", "counter", "samples", "repro.pebs.sampler",
              "bounded-rate access samples collected."),
        _spec("pebs.overhead_ns", "counter", "ns", "repro.pebs.sampler",
              "sample interrupt/drain time accumulated."),
        # -- sweep / result cache ---------------------------------------
        _spec("sweep.cells_run", "counter", "count",
              "repro.harness.sweep",
              "sweep cells actually executed (not served from a cache "
              "layer or coalesced by dedup)."),
        _spec("sweep.cache_hits", "counter", "count",
              "repro.harness.sweep",
              "sweep cells served from the on-disk result cache."),
        _spec("sweep.memory_hits", "counter", "count",
              "repro.harness.sweep",
              "sweep cells served from the in-memory LRU above the "
              "disk cache."),
        _spec("sweep.dedup_hits", "counter", "count",
              "repro.harness.sweep",
              "duplicate in-grid cells coalesced by single-flight "
              "dedup."),
        _spec("sweep.shm_bytes", "counter", "bytes",
              "repro.harness.sweep",
              "workload-table bytes exported to workers via shared "
              "memory (counted once per sweep, not per worker)."),
        _spec("sweep.cell_wall_sec", "histogram", "s",
              "repro.harness.sweep",
              "distribution of per-cell host wall times (executed "
              "cells only).",
              edges=_WALL_EDGES_SEC),
        _spec("cache.corrupt_entries", "counter", "count",
              "repro.harness.cache",
              "corrupt result-cache entries deleted and treated as "
              "misses."),
        # -- machine / engine ------------------------------------------
        _spec("engine.quanta", "counter", "count", "repro.harness.engine",
              "simulated quanta covered (fused steps count all their "
              "quanta)."),
        _spec("engine.fused_steps", "counter", "count",
              "repro.harness.engine",
              "engine steps that fused multiple quanta into one "
              "macro-quantum."),
        _spec("engine.fused_quanta", "counter", "count",
              "repro.harness.engine",
              "quanta covered by fused steps."),
        _spec("engine.fusion_ratio", "gauge", "ratio",
              "repro.harness.engine",
              "fraction of simulated quanta covered by fused steps so "
              "far."),
        _spec("engine.fusion_horizon", "histogram", "quanta",
              "repro.harness.engine",
              "fused-window length per fused step, in quanta.",
              edges=_FUSION_EDGES_QUANTA),
        _spec("engine.fusion_limited_run_end", "counter", "count",
              "repro.harness.engine",
              "engine steps whose width was set by the run's end: "
              "fewer than two whole quanta left, or a trailing "
              "partial quantum."),
        _spec("engine.fusion_limited_event", "counter", "count",
              "repro.harness.engine",
              "engine steps whose width was set by the kernel's next "
              "hard timer event."),
        _spec("engine.fusion_limited_observer", "counter", "count",
              "repro.harness.engine",
              "engine steps whose width was set by the engine "
              "observer's next firing."),
        _spec("engine.fusion_limited_max_quanta", "counter", "count",
              "repro.harness.engine",
              "engine steps whose width was set by the policy's "
              "max_fusion_quanta cap."),
        _spec("engine.fusion_limited_witness", "counter", "count",
              "repro.harness.engine",
              "engine steps held to one quantum by the steady-state "
              "witness: a process's placement or protection changed "
              "since its last quantum, or no quantum of the fleet has "
              "run yet."),
        _spec("engine.fusion_limited_debt", "counter", "count",
              "repro.harness.engine",
              "engine steps whose width was set by queued kernel "
              "time: one quantum under less than a quantum of debt, "
              "else the smallest debtor's whole stalled quanta."),
        _spec("engine.fusion_limited_stability", "counter", "count",
              "repro.harness.engine",
              "engine steps whose width was set by the arena's row "
              "calendar: the earliest workload stability horizon (a "
              "next phase edge), or one quantum when a row is due -- "
              "its phase edge has come, or its workload declares no "
              "horizon."),
        _spec("engine.fusion_limited_target", "counter", "count",
              "repro.harness.engine",
              "engine steps whose width was set by a process's "
              "remaining access target at the cheapest possible "
              "access cost."),
        _spec("engine.fusion_limited_contention", "counter", "count",
              "repro.harness.engine",
              "engine steps held to one quantum by the contention "
              "gate: the tier multipliers moved more than 1% since "
              "the previous step."),
        _spec("arena.cached_steps", "counter", "count",
              "repro.harness.arena",
              "arena steps served by the steady-state cache: no input "
              "changed since the previous step, so pricing and the "
              "ledger, latency and demand folds reused their "
              "vectors."),
        _spec("arena.fault_plan_rebuilds", "counter", "count",
              "repro.harness.arena",
              "rebuilds of the fault plan's slot tables from the live "
              "slots: dead dormant slots outnumbered live ones, or the "
              "chunk table outgrew the fleet."),
        _spec("arena.fault_plan_resyncs", "counter", "count",
              "repro.harness.arena",
              "segments the fault plan re-read from prot_none: before "
              "its first draw, after a distribution swap, or after a "
              "protection-log overflow."),
        _spec("arena.fault_plan_appended", "counter", "pages",
              "repro.harness.arena",
              "fault-plan slots appended for newly protected pages "
              "with positive access probability."),
        _spec("arena.fault_plan_tombstoned", "counter", "pages",
              "repro.harness.arena",
              "fault-plan slots tombstoned in place: positive-rate "
              "pages the fault resolve or another path unprotected, "
              "or a distribution swap resynced."),
        _spec("workload.table_hits", "gauge", "count",
              "repro.workloads.base",
              "compiled-table cache hits accumulated process-wide at "
              "snapshot time."),
        _spec("workload.table_misses", "gauge", "count",
              "repro.workloads.base",
              "compiled-table cache misses accumulated process-wide at "
              "snapshot time."),
        _spec("workload.table_bytes", "gauge", "bytes",
              "repro.workloads.base",
              "bytes resident in the compiled-table cache."),
        # -- trace compiler ---------------------------------------------
        _spec("compile.events", "counter", "count",
              "repro.workloads.compile",
              "raw address events ingested by the trace compiler."),
        _spec("compile.windows", "counter", "count",
              "repro.workloads.compile",
              "histogram windows binned by the trace compiler."),
        _spec("compile.idle_windows", "counter", "count",
              "repro.workloads.compile",
              "binned windows that carried zero traffic."),
        _spec("compile.phases", "counter", "count",
              "repro.workloads.compile",
              "phases emitted by change-point segmentation."),
        # -- traffic generator ------------------------------------------
        _spec("tracegen.tenants", "gauge", "count",
              "repro.workloads.tracegen",
              "tenant processes in the last generated fleet."),
        _spec("tracegen.users", "gauge", "count",
              "repro.workloads.tracegen",
              "simulated users mapped onto the last generated fleet."),
        _spec("tracegen.patterns", "gauge", "count",
              "repro.workloads.tracegen",
              "distinct shared pattern tables in the last fleet."),
        _spec("tracegen.churn_tenants", "gauge", "count",
              "repro.workloads.tracegen",
              "tenants that churn (exit or spawn) in the last fleet."),
        _spec("machine.fast_free_pages", "gauge", "pages",
              "repro.mem.machine", "fast-tier free frames."),
        _spec("machine.slow_free_pages", "gauge", "pages",
              "repro.mem.machine", "slow-tier free frames."),
        _spec("machine.fast_contention", "gauge", "ratio",
              "repro.mem.machine",
              "fast-tier M/M/1 latency multiplier this quantum."),
        _spec("machine.slow_contention", "gauge", "ratio",
              "repro.mem.machine",
              "slow-tier M/M/1 latency multiplier this quantum."),
    )
}


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        """Create the counter at zero."""
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative) to the total."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n


class Gauge:
    """A last-write-wins level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        """Create the gauge at zero."""
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)


class Histogram:
    """A fixed-edge bucketed distribution.

    ``edges`` are the inclusive lower bounds of buckets 1..N; values
    below ``edges[0]`` land in bucket 0, values at or above ``edges[-1]``
    in the last bucket.  The histogram also tracks the observation count
    and sum, so means survive the bucketing.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        """Create the histogram with the given bucket edges."""
        if len(edges) < 1:
            raise ValueError("histogram needs at least one edge")
        if list(edges) != sorted(edges):
            raise ValueError("histogram edges must be sorted")
        self.name = name
        self.edges = np.asarray(edges, dtype=np.float64)
        self.counts = np.zeros(len(edges) + 1, dtype=np.float64)
        self.total = 0.0
        self.sum = 0.0

    def observe(self, value: float, weight: float = 1.0) -> None:
        """Record one observation with an optional weight."""
        index = int(np.searchsorted(self.edges, value, side="right"))
        self.counts[index] += weight
        self.total += weight
        self.sum += value * weight

    def observe_many(self, values: np.ndarray) -> None:
        """Record a batch of observations (weight 1 each)."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        indices = np.searchsorted(self.edges, values, side="right")
        np.add.at(self.counts, indices, 1.0)
        self.total += float(values.size)
        self.sum += float(values.sum())

    def mean(self) -> float:
        """Return the mean of all observations (0 when empty)."""
        return self.sum / self.total if self.total else 0.0


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Every catalogued metric is pre-created so :meth:`snapshot` always
    returns the complete key set.  Accessors raise ``KeyError`` for
    unknown names and ``TypeError`` for kind mismatches, so a typo at an
    instrumentation site fails loudly instead of minting a shadow
    metric outside the documented catalogue.
    """

    def __init__(self) -> None:
        """Pre-create every metric declared in the catalogue."""
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        for spec in METRIC_CATALOGUE.values():
            if spec.kind == "counter":
                self._counters[spec.name] = Counter(spec.name)
            elif spec.kind == "gauge":
                self._gauges[spec.name] = Gauge(spec.name)
            elif spec.kind == "histogram":
                self._histograms[spec.name] = Histogram(
                    spec.name, spec.edges
                )
            else:  # pragma: no cover - catalogue is static
                raise ValueError(f"unknown metric kind {spec.kind!r}")

    def counter(self, name: str) -> Counter:
        """Return the catalogued counter called ``name``."""
        return self._lookup(self._counters, name, "counter")

    def gauge(self, name: str) -> Gauge:
        """Return the catalogued gauge called ``name``."""
        return self._lookup(self._gauges, name, "gauge")

    def histogram(self, name: str) -> Histogram:
        """Return the catalogued histogram called ``name``."""
        return self._lookup(self._histograms, name, "histogram")

    @staticmethod
    def _lookup(table: Dict[str, Any], name: str, kind: str) -> Any:
        metric = table.get(name)
        if metric is None:
            if name in METRIC_CATALOGUE:
                raise TypeError(
                    f"metric {name!r} is a "
                    f"{METRIC_CATALOGUE[name].kind}, not a {kind}"
                )
            raise KeyError(f"metric {name!r} is not in the catalogue")
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """Return a plain-dict, JSON-compatible view of every metric."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "edges": [float(e) for e in h.edges],
                    "counts": [float(c) for c in h.counts],
                    "total": h.total,
                    "sum": h.sum,
                }
                for name, h in sorted(self._histograms.items())
            },
        }


def metric_names() -> Tuple[str, ...]:
    """Return every catalogued metric name, sorted."""
    return tuple(sorted(METRIC_CATALOGUE))
