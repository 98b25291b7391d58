"""Span recorder for the traced run: which layer the host time went to.

A layer is a repo module; its entry points are class methods or module
functions listed in :data:`LAYERS`.  While a :class:`Tracer` is
installed it replaces each entry point with a wrapper that records one
span per call -- a label, start, end and the enclosing span -- and
optionally a count taken from the call's arguments or return value.
Spans stay in memory (four flat ``array`` columns) and are written out
once the run ends.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over
its spans.

The wrappers only time and count: they consume no randomness and
change no argument, so a traced run's trajectory is the untraced one.
Policy hooks are wrapped only where the active policy overrides the
base-class method -- the arena skips its per-row ``on_quantum`` loop
by comparing the policy's method with the base no-op, and wrapping the
no-op would switch that loop on.  An entry point that no longer exists
is skipped, and a layer left without entry points drops out of the
report instead of failing the run.
"""

from __future__ import annotations

import importlib
import pathlib
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: layer -> entry points as ``(module, class or None, attribute)``
LAYERS: Dict[str, Tuple[Tuple[str, Optional[str], str], ...]] = {
    "harness.engine": (
        ("repro.harness.engine", "QuantumEngine", "run"),
    ),
    "harness.arena": (
        ("repro.harness.arena", "ProcessArena", "step"),
        ("repro.harness.arena", "ProcessArena", "__init__"),
    ),
    "kernel.fault": (
        ("repro.kernel.kernel", "Kernel", "deliver_faults"),
    ),
    # filled in per run from the active policy class
    "policy": (),
    "core.dcsc": (
        ("repro.core.dcsc", "DcscCollector", "on_probed_fault"),
        ("repro.core.dcsc", "DcscCollector", "probe_process"),
        ("repro.core.dcsc", "DcscCollector", "compute_targets"),
        ("repro.core.dcsc", "DcscCollector", "decay_maps"),
    ),
    "core.candidates": (
        ("repro.core.candidates", "CandidateFilter", "observe"),
    ),
    "kernel.timers": (
        ("repro.kernel.kernel", "Kernel", "advance_to"),
    ),
    "kernel.scanner": (
        ("repro.kernel.scanner", "TickingScanner", "scan_fleet"),
        ("repro.kernel.scanner", "TickingScanner", "scan_once"),
    ),
    "kernel.lru": (
        ("repro.kernel.lru", "LruLists", "age_fleet"),
        ("repro.kernel.lru", "LruLists", "age_process"),
    ),
    "kernel.reclaim": (
        ("repro.kernel.reclaim", "ReclaimDaemon", "run_once"),
        ("repro.kernel.reclaim", "ReclaimDaemon", "demote_cold_pages"),
    ),
    "kernel.migration": (
        ("repro.kernel.migration", "MigrationEngine", "migrate"),
        ("repro.kernel.migration", "MigrationEngine", "migrate_many"),
    ),
    "vm.page_state": (
        ("repro.vm.page_state", "PageState", "flush_accounting"),
    ),
    "workloads.compile": (
        ("repro.workloads.compile", None, "compile_trace_file"),
    ),
    "workloads.fleet": (
        ("repro.harness.experiments", None, "build_fleet"),
    ),
    "kernel.setup": (
        ("repro.kernel.kernel", "Kernel", "register_process"),
        ("repro.kernel.kernel", "Kernel", "allocate_initial_placement"),
        ("repro.kernel.kernel", "Kernel", "set_policy"),
    ),
}

#: the policy hooks the ``policy`` layer wraps where they are overridden
POLICY_HOOKS = ("on_fault", "on_lru_age", "on_quantum")

Counter = Callable[[Dict[str, float], tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    """A wrapped call's argument, passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


def _count_arena(counts, args, kwargs, result) -> None:
    arena = args[0]
    for key, attr in (
        ("arena.classes", "n_classes"),
        ("arena.interned_segments", "interned_segments"),
        ("arena.repriced", "repriced_segments"),
        ("arena.reprice_skipped", "reprice_skipped_segments"),
    ):
        counts[key] = getattr(arena, attr, 0)


def _count_dcsc(counts, args, kwargs, result) -> None:
    counts["core.dcsc.samples"] += np.size(_arg(args, kwargs, 2, "vpns"))


def _count_compile(counts, args, kwargs, result) -> None:
    counts["compile.events"] += sum(t.n_events for t in result.values())
    counts["compile.phases"] += sum(t.n_phases for t in result.values())


def _count_fleet(counts, args, kwargs, result) -> None:
    from repro.workloads.base import table_cache_stats

    stats = table_cache_stats()
    counts["fleet.table_hits"] = stats["hits"]
    counts["fleet.table_misses"] = stats["misses"]


#: entry point label -> counter fed with the call and its result
COUNTERS: Dict[str, Counter] = {
    "ProcessArena.step": _count_arena,
    "DcscCollector.on_probed_fault": _count_dcsc,
    "compile_trace_file": _count_compile,
    "build_fleet": _count_fleet,
}


def _resolve(module: str, owner: Optional[str], attr: str):
    """``(owner object, label)`` for an entry point, or ``None`` when
    the module, class or attribute no longer exists."""
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    if owner is not None:
        obj = getattr(obj, owner, None)
    if obj is None or not callable(getattr(obj, attr, None)):
        return None
    return obj, f"{owner}.{attr}" if owner else attr


def policy_entry_points(policy_cls: type) -> List[Tuple[Any, str]]:
    """The hooks ``policy_cls`` overrides, as ``(owning class, hook)``."""
    from repro.policies.base import TieringPolicy

    points = []
    for hook in POLICY_HOOKS:
        impl = getattr(policy_cls, hook, None)
        if impl is None or impl is getattr(TieringPolicy, hook, None):
            continue
        owner = next(c for c in policy_cls.__mro__ if hook in vars(c))
        points.append((owner, hook))
    return points


class Tracer:
    """Records spans around the layer entry points while installed."""

    def __init__(self, policy_cls: type) -> None:
        #: span label table; ``label_layer[i]`` is label ``i``'s layer
        self.labels: List[str] = []
        self.label_layer: List[str] = []
        # one row per span: label id, parent span (-1: root), start, end
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._open: List[int] = []
        #: counts taken from wrapped calls (see :data:`COUNTERS`)
        self.counts: Dict[str, float] = defaultdict(float)
        #: layers with at least one entry point wrapped
        self.layers: List[str] = []
        #: entry points that no longer exist
        self.missing: List[str] = []
        #: ``(owner, attribute)`` per label, in label order
        self._points: List[Tuple[Any, str]] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        for layer, targets in LAYERS.items():
            points = []
            if layer == "policy":
                points = [
                    (owner, hook, f"{owner.__name__}.{hook}")
                    for owner, hook in policy_entry_points(policy_cls)
                ]
            for module, owner, attr in targets:
                resolved = _resolve(module, owner, attr)
                if resolved is None:
                    self.missing.append(f"{module}:{owner or ''}.{attr}")
                else:
                    points.append((resolved[0], attr, resolved[1]))
            for obj, attr, label in points:
                self._points.append((obj, attr))
                self.labels.append(label)
                self.label_layer.append(layer)
            if points:
                self.layers.append(layer)

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for label_id, (obj, attr) in enumerate(self._points):
            self._patches.append((obj, attr, vars(obj).get(attr)))
            counter = COUNTERS.get(self.labels[label_id])
            setattr(
                obj, attr, self._wrap(getattr(obj, attr), label_id, counter)
            )
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self._patches):
            if original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, label_id: int, counter: Optional[Counter]):
        names, parents = self.name, self.parent
        starts, ends = self.start, self.end
        open_spans, counts = self._open, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(names)
            names.append(label_id)
            parents.append(open_spans[-1] if open_spans else -1)
            starts.append(0)
            ends.append(0)
            open_spans.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                starts[index] = start
                ends[index] = end
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def _columns(self) -> Tuple[np.ndarray, ...]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = (
            np.frombuffer(self.end, dtype=np.int64)
            - np.frombuffer(self.start, dtype=np.int64)
        )
        return name, parent, duration

    def layer_times(self) -> Dict[str, Tuple[int, float]]:
        """``{layer: (calls, self seconds)}`` for every wrapped layer."""
        name, parent, duration = self._columns()
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent],
            weights=duration[has_parent],
            minlength=duration.size,
        )
        self_ns = duration - child
        n_labels = len(self.labels)
        calls = np.bincount(name, minlength=n_labels)
        label_self = np.bincount(name, weights=self_ns, minlength=n_labels)
        out = {layer: [0, 0.0] for layer in self.layers}
        for label_id, layer in enumerate(self.label_layer):
            out[layer][0] += int(calls[label_id])
            out[layer][1] += float(label_self[label_id]) / 1e9
        return {layer: (c, s) for layer, (c, s) in out.items()}

    def durations_s(self, label: str) -> np.ndarray:
        """Inclusive durations (seconds) of every span of one label."""
        if label not in self.labels:
            return np.zeros(0)
        name, _, duration = self._columns()
        return duration[name == self.labels.index(label)] / 1e9

    def child_calls(self, label: str, parent_label: str) -> int:
        """Spans of ``label`` opened directly inside ``parent_label``."""
        if label not in self.labels or parent_label not in self.labels:
            return 0
        name, parent, _ = self._columns()
        rows = parent[name == self.labels.index(label)]
        rows = rows[rows >= 0]
        return int(
            np.count_nonzero(name[rows] == self.labels.index(parent_label))
        )

    def write(self, path: pathlib.Path) -> None:
        """Write every span (label, parent, start, end) to an ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            labels=np.array(self.labels),
            layers=np.array(self.label_layer),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
