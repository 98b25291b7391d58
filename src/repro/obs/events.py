"""The structured trace-event catalogue.

Every event the simulator can emit is declared here, in
:data:`EVENT_SCHEMA`, as an :class:`EventSpec`: its name, the module that
emits it, a one-line description, and the name/unit/description of every
payload field.  The catalogue is the single source of truth for the event
vocabulary -- ``docs/OBSERVABILITY.md`` documents it, and
``tests/test_docs_reference.py`` fails if the two ever drift apart.

Event envelope
--------------

Every event record is a flat mapping with two envelope keys:

* ``type`` -- the event name, one of :data:`EVENT_SCHEMA`'s keys;
* ``t`` -- the simulated timestamp in nanoseconds;

plus the per-type payload fields listed in the spec.  Array-valued fields
(``vpns``, ``cit_ns``, ...) hold numpy arrays in memory and JSON lists on
disk; :mod:`repro.obs.trace` performs the conversion when a trace is
written out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class FieldSpec:
    """One payload field of a trace event."""

    #: measurement unit (``ns``, ``pages``, ``count``, ``flag``, ...)
    unit: str
    #: what the field means
    description: str


@dataclass(frozen=True)
class EventSpec:
    """Declaration of one trace-event type."""

    #: the event name (dotted, ``subsystem.action``)
    name: str
    #: the module that emits the event
    module: str
    #: one-line description of when the event fires
    description: str
    #: payload fields beyond the ``type``/``t`` envelope
    fields: Dict[str, FieldSpec] = field(default_factory=dict)


def _fields(**kwargs: Tuple[str, str]) -> Dict[str, FieldSpec]:
    """Build a field mapping from ``name=(unit, description)`` pairs."""
    return {
        name: FieldSpec(unit=unit, description=desc)
        for name, (unit, desc) in kwargs.items()
    }


#: name -> spec for every event type the simulator can emit
EVENT_SCHEMA: Dict[str, EventSpec] = {
    spec.name: spec
    for spec in (
        EventSpec(
            name="scan.window",
            module="repro.kernel.scanner",
            description=(
                "One Ticking-scan event marked a window of a process's "
                "address space PROT_NONE and stamped scan timestamps."
            ),
            fields=_fields(
                pid=("id", "scanned process"),
                n_window=("pages", "window size after tier filtering"),
                n_marked=("pages", "pages newly protected this event"),
                wrapped=("flag", "this event completed a full pass"),
                vpns=("pages[]", "virtual page numbers in the window"),
            ),
        ),
        EventSpec(
            name="fault.batch",
            module="repro.vm.fault",
            description=(
                "A batch of NUMA hint faults was taken by one process "
                "in one quantum and delivered to the tiering policy.  "
                "Every faulting process of a quantum gets one, all "
                "before that quantum's policy work: the policy takes "
                "the whole fleet's faults in one on_faults call."
            ),
            fields=_fields(
                pid=("id", "faulting process"),
                n_faults=("count", "faults in the batch"),
                vpns=("pages[]", "faulting virtual page numbers"),
                fault_ts_ns=("ns[]", "absolute fault time of each page"),
                cit_ns=(
                    "ns[]",
                    "Captured Idle Time of each fault (-1 if the page "
                    "carried no scan timestamp)",
                ),
            ),
        ),
        EventSpec(
            name="cit.sample",
            module="repro.core.dcsc",
            description=(
                "DCSC completed the second measurement round on probed "
                "pages and recorded max(cit1, cit2) into the per-tier "
                "heat maps."
            ),
            fields=_fields(
                pid=("id", "sampled process"),
                vpns=("pages[]", "probed virtual page numbers"),
                cit_ns=("ns[]", "max-of-two-rounds CIT per page"),
                tiers=("id[]", "tier id each page resides on"),
            ),
        ),
        EventSpec(
            name="dcsc.probe",
            module="repro.core.dcsc",
            description=(
                "DCSC selected and protected a fresh random victim set "
                "(PG_probed) in one process."
            ),
            fields=_fields(
                pid=("id", "probed process"),
                n_probed=("pages", "victims newly marked PG_probed"),
            ),
        ),
        EventSpec(
            name="promotion.decision",
            module="repro.core.policy",
            description=(
                "Candidate filtering passed pages through the CIT "
                "threshold and submitted them to the promotion queue."
            ),
            fields=_fields(
                pid=("id", "owning process"),
                n_submitted=("pages", "pages submitted this decision"),
                n_enqueued=("pages", "pages actually added (deduplicated)"),
                queue_depth=("pages", "promotion-queue depth after enqueue"),
                vpns=("pages[]", "submitted virtual page numbers"),
            ),
        ),
        EventSpec(
            name="demotion.decision",
            module="repro.kernel.reclaim",
            description=(
                "Reclaim selected cold fast-tier victims for demotion "
                "(inactive list first, then coldest active pages)."
            ),
            fields=_fields(
                n_requested=("pages", "demotion target of this pass"),
                n_selected=("pages", "victims actually selected"),
                direct=("flag", "direct (allocation-stalled) reclaim"),
            ),
        ),
        EventSpec(
            name="migration.issue",
            module="repro.kernel.migration",
            description=(
                "A migration batch entered the migration engine (before "
                "destination frames were allocated)."
            ),
            fields=_fields(
                pid=("id", "owning process"),
                dst_tier=("id", "destination tier"),
                n_requested=("pages", "pages requested to move"),
            ),
        ),
        EventSpec(
            name="migration.complete",
            module="repro.kernel.migration",
            description=(
                "A migration batch finished: frames moved, costs "
                "charged, counters bumped."
            ),
            fields=_fields(
                pid=("id", "owning process"),
                dst_tier=("id", "destination tier"),
                n_moved=("pages", "pages that actually moved"),
                n_dropped=(
                    "pages",
                    "overflow pages dropped because the destination ran "
                    "out of frames",
                ),
                cost_ns=("ns", "kernel time charged for the copy"),
                promotion=("flag", "destination is the fast tier"),
                vpns=("pages[]", "virtual page numbers that moved"),
            ),
        ),
        EventSpec(
            name="watermark.cross",
            module="repro.kernel.reclaim",
            description=(
                "Fast-tier free memory crossed a watermark boundary "
                "since the previous reclaim tick."
            ),
            fields=_fields(
                free_pages=("pages", "fast-tier free pages now"),
                zone=(
                    "enum",
                    "current zone: above_high, below_high, below_low, "
                    "or below_min",
                ),
                prev_zone=("enum", "zone at the previous tick"),
            ),
        ),
        EventSpec(
            name="reclaim.wake",
            module="repro.kernel.reclaim",
            description=(
                "The reclaim daemon woke to demote: free memory was "
                "below the high watermark (or an allocation stalled)."
            ),
            fields=_fields(
                free_pages=("pages", "fast-tier free pages at wake"),
                target_pages=("pages", "free-page target of the pass"),
                need_pages=("pages", "pages the pass tries to demote"),
                direct=("flag", "direct (allocation-stalled) reclaim"),
            ),
        ),
        EventSpec(
            name="aging.pass",
            module="repro.kernel.kernel",
            description=(
                "One LRU reference-bit aging pass over one process "
                "finished."
            ),
            fields=_fields(
                pid=("id", "aged process"),
                n_touched=("pages", "pages referenced since the last pass"),
            ),
        ),
        EventSpec(
            name="tune.update",
            module="repro.core.policy",
            description=(
                "Chrono's tuning tick recomputed the CIT threshold and "
                "the promotion rate limit."
            ),
            fields=_fields(
                cit_threshold_ns=("ns", "new CIT classification threshold"),
                rate_limit_pages_per_sec=(
                    "pages/s",
                    "new effective promotion rate limit",
                ),
                enqueue_rate=(
                    "pages/s",
                    "smoothed promotion submission rate (tuner input)",
                ),
                backoff=("ratio", "persistent thrash backoff factor"),
            ),
        ),
        EventSpec(
            name="thrash.detect",
            module="repro.core.policy",
            description=(
                "Recently demoted pages re-qualified as promotion "
                "candidates within one scan period (wasted round trips)."
            ),
            fields=_fields(
                pid=("id", "owning process"),
                n_pages=("pages", "thrashing pages detected"),
                vpns=("pages[]", "thrashing virtual page numbers"),
            ),
        ),
        EventSpec(
            name="pebs.window",
            module="repro.pebs.sampler",
            description=(
                "A PEBS sampler drained one window of bounded-rate "
                "access samples."
            ),
            fields=_fields(
                pid=("id", "sampled process"),
                n_samples=("samples", "samples collected this window"),
                overhead_ns=("ns", "interrupt/drain cost of the window"),
            ),
        ),
        EventSpec(
            name="sweep.cell",
            module="repro.harness.sweep",
            description=(
                "One sweep cell produced its summary -- executed, "
                "coalesced by single-flight dedup, or served from a "
                "cache layer.  Harness scope: 't' is host nanoseconds "
                "since the sweep started, not simulated time."
            ),
            fields=_fields(
                policy=("id", "cell policy name"),
                workload=("id", "cell workload family"),
                seed=("id", "cell seed"),
                index=("count", "cell position in the submitted grid"),
                source=(
                    "enum",
                    "where the summary came from: run, dedup, memory, "
                    "or disk",
                ),
                wall_sec=("s", "host wall time to produce the summary"),
            ),
        ),
        EventSpec(
            name="cache.corrupt",
            module="repro.harness.cache",
            description=(
                "A corrupt or truncated result-cache entry was deleted "
                "and treated as a miss.  Harness scope: no clock exists "
                "at cache level, so 't' is always 0."
            ),
            fields=_fields(
                key=("id", "content key of the discarded entry"),
                reason=(
                    "enum",
                    "what rejected the entry: the exception class name, "
                    "or 'timing' for a timing-store file",
                ),
            ),
        ),
        EventSpec(
            name="tournament.cell",
            module="repro.harness.tournament",
            description=(
                "One tournament cell (policy x workload x seed, or an "
                "all-DRAM reference run) produced its summary.  Harness "
                "scope: 't' is host nanoseconds since the tournament "
                "started."
            ),
            fields=_fields(
                policy=("id", "cell policy name ('all-dram' for refs)"),
                workload=("id", "cell workload family"),
                seed=("id", "cell seed"),
                slowdown=(
                    "ratio",
                    "runtime relative to the matching all-DRAM "
                    "reference (0 for reference cells)",
                ),
            ),
        ),
        EventSpec(
            name="tournament.complete",
            module="repro.harness.tournament",
            description=(
                "The tournament finished and the leaderboard was "
                "assembled.  Harness scope: 't' is host nanoseconds "
                "since the tournament started."
            ),
            fields=_fields(
                n_policies=("count", "policies ranked"),
                n_workloads=("count", "workload families covered"),
                n_cells=("count", "cells contributing (refs included)"),
                winner=("id", "policy with the best geomean slowdown"),
            ),
        ),
        EventSpec(
            name="engine.quantum",
            module="repro.harness.engine",
            description=(
                "The quantum engine finished one step for the whole "
                "fleet (emitted after kernel timers fired); a fused "
                "step reports the whole macro-quantum in one event."
            ),
            fields=_fields(
                quantum_ns=("ns", "step length (macro-quantum if fused)"),
                fast_free_pages=("pages", "fast-tier free pages"),
                slow_free_pages=("pages", "slow-tier free pages"),
                fast_contention=("ratio", "fast-tier latency multiplier"),
                slow_contention=("ratio", "slow-tier latency multiplier"),
            ),
        ),
        EventSpec(
            name="compile.trace",
            module="repro.workloads.compile",
            description=(
                "The trace compiler finished one process's trace: "
                "events binned into windows, windows segmented into "
                "phases, tables interned.  Harness scope: 't' is the "
                "compiled trace's replay span in nanoseconds."
            ),
            fields=_fields(
                pid=("id", "compiled process"),
                n_events=("count", "raw address events ingested"),
                n_windows=("count", "histogram windows binned"),
                n_idle=("count", "windows with zero traffic"),
                n_phases=("count", "phases after segmentation"),
            ),
        ),
        EventSpec(
            name="tracegen.fleet",
            module="repro.workloads.tracegen",
            description=(
                "The traffic generator built one tenant fleet.  "
                "Harness scope: emitted at build time, so 't' is "
                "always 0."
            ),
            fields=_fields(
                n_tenants=("count", "tenant processes built"),
                n_users=("count", "simulated users mapped onto tenants"),
                n_patterns=("count", "distinct shared pattern tables"),
                n_churn=("count", "tenants that churn (exit or spawn)"),
                n_shifting=("count", "tenants with scripted phase shifts"),
            ),
        ),
        EventSpec(
            name="engine.fused",
            module="repro.harness.engine",
            description=(
                "The engine fused multiple steady-state quanta into one "
                "macro-quantum (event-horizon quantum fusion)."
            ),
            fields=_fields(
                n_quanta=("count", "quanta merged into this step"),
                macro_ns=("ns", "fused window length"),
            ),
        ),
    )
}

#: event types whose payload carries a per-page ``vpns`` array -- the set
#: the per-page timeline aggregation explodes
PAGE_EVENT_TYPES: Tuple[str, ...] = tuple(
    name for name, spec in EVENT_SCHEMA.items() if "vpns" in spec.fields
)


def event_names() -> Tuple[str, ...]:
    """Return every registered event-type name, sorted."""
    return tuple(sorted(EVENT_SCHEMA))
