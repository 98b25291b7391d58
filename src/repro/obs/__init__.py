"""Observability: structured event tracing and the metrics registry.

The ``repro.obs`` package is the simulator's observability layer:

* :mod:`repro.obs.events` -- the trace-event catalogue
  (:data:`~repro.obs.events.EVENT_SCHEMA`): every event type, its
  payload fields, units, and emitting module;
* :mod:`repro.obs.metrics` -- counters/gauges/histograms and the
  :data:`~repro.obs.metrics.METRIC_CATALOGUE`, collected in a
  :class:`~repro.obs.metrics.MetricsRegistry` with one ``snapshot()``
  read API;
* :mod:`repro.obs.trace` -- the ring-buffered
  :class:`~repro.obs.trace.Tracer` and its JSONL sink;
* :mod:`repro.obs.hub` -- :class:`~repro.obs.hub.ObsHub`, the single
  handle instrumented kernel paths reach through ``kernel.obs``;
* :mod:`repro.obs.tracefile` -- trace-file reading and the
  aggregations behind ``chrono-sim trace``;
* :mod:`repro.obs.profile` -- the ``--profile`` wall-time profile,
  wrappers installed around a run from one ``SECTIONS`` table.

Attach a hub with ``run_experiment(..., obs=ObsHub.create(...))`` or the
CLI's ``chrono-sim run --trace out.jsonl --metrics``.  With no hub
attached (the default) every instrumentation site is a single ``is
None`` check -- the uninstrumented hot path pays nothing.  The full
reference, with a worked per-page example, is ``docs/OBSERVABILITY.md``.
"""

from repro.obs.events import EVENT_SCHEMA, EventSpec, FieldSpec, event_names
from repro.obs.hub import ObsHub
from repro.obs.metrics import (
    METRIC_CATALOGUE,
    Counter,
    Gauge,
    Histogram,
    MetricSpec,
    MetricsRegistry,
    metric_names,
)
from repro.obs.trace import Tracer
from repro.obs.tracefile import (
    epoch_migrations,
    page_timeline,
    read_events,
    summarize,
)

__all__ = [
    "EVENT_SCHEMA",
    "METRIC_CATALOGUE",
    "Counter",
    "EventSpec",
    "FieldSpec",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "ObsHub",
    "Tracer",
    "epoch_migrations",
    "event_names",
    "metric_names",
    "page_timeline",
    "read_events",
    "summarize",
]
