"""Trace compiler: raw address events -> fused-fast-path workloads.

Replaying a recorded trace one address at a time would forfeit every
batching win from the arena/fusion stack.  This module
*compiles* traces instead: raw ``(timestamp_ns, pid, vpn, is_write)``
event streams (or the recorder's ``.npz`` window format) are binned into
per-window page histograms with vectorized, chunked accumulation, then a
phase-segmentation pass (change-point detection on the windowed
histograms) merges statistically-stable windows into long phases.  The
output is a :class:`CompiledTrace`: per-phase ``(duration_ns, probs)``
distribution tables that plug straight into the engine:

* phase tables are routed through :func:`~repro.workloads.base.cached_tables`
  keyed by a content digest, so same-pattern traces (and same-pattern
  fleet tenants) share one frozen array;
* long phases give :class:`~repro.workloads.base.TraceWorkload` honest
  ``stable_until_ns`` horizons, so quantum fusion and the steady-state
  cache engage *within* phases instead of being defeated by per-window
  churn;
* idle stretches compile to zero-traffic phases, preserving the
  recording's wall-clock shape.

The binning is memory-bounded: :func:`compile_event_stream` consumes an
iterable of event chunks (``.npz`` members are streamed straight from
the archive, :data:`DEFAULT_CHUNK_EVENTS` at a time, in their stored
dtypes).  Its working set is one chunk with a few int64 temporaries of
the chunk's length, one int64 ``bincount`` block over the windows that
chunk spans times ``n_pages``, and the per-pid window counts: 4 bytes
per (window, page) cell (uint32), rows grown by doubling, so at most
twice the windows each pid spans, plus one pid's counts while a later
chunk widens the page dimension.  The event count does not enter it,
so arbitrarily long event files stream through a fixed working set.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import pathlib
import zipfile
from dataclasses import dataclass
from typing import (
    IO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.sim.timeunits import SECOND
from repro.workloads.base import (
    TraceWorkload,
    Workload,
    cached_tables,
    table_key,
)
from repro.workloads.trace_io import load_trace_windows

PathLike = Union[str, pathlib.Path]

#: default binning window for event streams
DEFAULT_WINDOW_NS = SECOND

#: default total-variation distance that opens a new phase
DEFAULT_SEGMENT_THRESHOLD = 0.25

#: events per chunk when one-shot arrays are streamed internally
DEFAULT_CHUNK_EVENTS = 1 << 20

#: one event chunk: (timestamp_ns, pid, vpn, is_write) parallel arrays
EventChunk = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: member names of an event-format ``.npz``, in :data:`EventChunk` order
EVENT_KEYS = ("timestamp_ns", "pid", "vpn", "is_write")

#: most events one pid may log in one window: its page counts are uint32
MAX_WINDOW_EVENTS = int(np.iinfo(np.uint32).max)


class StationaryTableWorkload(Workload):
    """Stationary workload over a pre-built, frozen probability table.

    Keeps the base no-op ``advance`` -- an infinite fusion horizon --
    and ``access_distribution`` returns the table array *itself*, so
    every process built from the same cached table presents one array
    identity and the arena steps it as a static row (no per-quantum
    ``advance``).  The compiler emits this for single-phase traces; the fleet
    traffic generator uses it for all non-shifting tenants.
    """

    name = "table"

    def __init__(
        self,
        probs: np.ndarray,
        write_fraction: float = 0.05,
        delay_ns_per_access: float = 0.0,
    ) -> None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError("probability table must be 1-D")
        super().__init__(len(probs), write_fraction, delay_ns_per_access)
        total = float(probs.sum())
        # ``np.isclose(total, 1.0)``'s default tolerance as a scalar
        # expression (it runs once per fleet tenant); NaN fails it too.
        if not abs(total - 1.0) <= 1e-8 + 1e-5:
            raise ValueError("probability table must sum to 1")
        self._probs = probs

    def access_distribution(self, now_ns: Optional[int] = None) -> np.ndarray:
        """The frozen table; identical object every call."""
        return self._probs


def intern_distribution(weights: np.ndarray) -> np.ndarray:
    """Normalize ``weights`` and route the result through the table cache.

    The cache key is a content digest, so any two callers compiling the
    same histogram -- different traces, different fleet tenants --
    receive the *same* frozen array.
    """
    weights = np.asarray(weights, dtype=np.float64)
    total = float(weights.sum())
    if total <= 0:
        raise ValueError("access weights must have positive mass")
    probs = weights / total
    digest = hashlib.sha256(probs.tobytes()).hexdigest()[:32]
    key = table_key(
        "trace-compile", digest=digest, n_pages=int(probs.size)
    )
    return cached_tables(key, lambda: {"probs": probs})["probs"]


def _histograms(windows: np.ndarray) -> np.ndarray:
    """``windows`` as a non-empty 2-D count matrix.

    Integer counts of at most 32 bits (the event binner's uint32) stay
    as they are: reductions over them run with a float64 accumulator,
    and while totals stay below 2**53 every partial sum is exact, so the
    results match the float64 matrix bit for bit without holding it.
    Anything else becomes float64.
    """
    windows = np.asarray(windows)
    if windows.dtype.kind not in "iu" or windows.dtype.itemsize > 4:
        windows = windows.astype(np.float64, copy=False)
    if windows.ndim != 2 or windows.shape[0] == 0:
        raise ValueError("need a non-empty (n_windows, n_pages) array")
    return windows


@dataclass
class Segment:
    """One detected phase: windows ``[start, end)``; idle iff zero mass."""

    start: int
    end: int
    idle: bool


def segment_windows(
    windows: np.ndarray,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
) -> List[Segment]:
    """Greedy change-point detection over windowed histograms.

    Walks the window sequence keeping a running mean of the current
    phase's normalized histograms; a window whose total-variation
    distance from that mean exceeds ``threshold`` (after the phase has
    at least ``min_windows`` members) closes the phase and opens a new
    one.  Zero-traffic windows always form their own idle segments, so
    phase boundaries never straddle an idle gap.
    """
    windows = _histograms(windows)
    segments: List[Segment] = []
    totals = windows.sum(axis=1, dtype=np.float64)
    start = 0
    mean: Optional[np.ndarray] = None
    count = 0
    idle = bool(totals[0] <= 0.0)
    # ``diff`` holds a window's normalized row minus the running mean,
    # which serves both the distance and the mean update; reusing it
    # and ``spread`` saves a fresh page-sized allocation per step.
    diff = np.empty(windows.shape[1], dtype=np.float64)
    spread = np.empty_like(diff)
    for i in range(windows.shape[0]):
        window_idle = bool(totals[i] <= 0.0)
        if window_idle != idle:
            segments.append(Segment(start, i, idle))
            start, mean, count, idle = i, None, 0, window_idle
        if window_idle:
            continue
        if mean is None:
            mean, count = windows[i] / totals[i], 1
            continue
        np.divide(windows[i], totals[i], out=diff)
        diff -= mean
        distance = 0.5 * float(np.abs(diff, out=spread).sum())
        if distance > threshold and count >= min_windows:
            segments.append(Segment(start, i, False))
            start, mean, count = i, windows[i] / totals[i], 1
        else:
            count += 1
            diff /= count
            mean += diff
    segments.append(Segment(start, windows.shape[0], idle))
    return segments


@dataclass
class CompiledTrace:
    """A compiled trace: phase tables ready for the batched fast path."""

    phases: List[Tuple[int, np.ndarray]]
    n_pages: int
    window_ns: int
    write_fraction: float
    n_events: int
    n_windows: int
    n_idle_windows: int
    boundaries: List[int]

    @property
    def n_phases(self) -> int:
        """Number of compiled phases (idle phases included)."""
        return len(self.phases)

    @property
    def total_ns(self) -> int:
        """Wall-clock span of one replay cycle."""
        return sum(duration for duration, _ in self.phases)

    def to_workload(
        self,
        delay_ns_per_access: float = 0.0,
        write_fraction: Optional[float] = None,
    ) -> Workload:
        """Build the replay workload for this compiled trace.

        A single-phase trace becomes a :class:`StationaryTableWorkload`
        (infinite fusion horizon, a static arena row); multi-phase traces
        become a :class:`~repro.workloads.base.TraceWorkload` whose
        ``stable_until_ns`` reports the compiled phase boundaries.
        """
        wf = self.write_fraction if write_fraction is None else write_fraction
        if len(self.phases) == 1:
            return StationaryTableWorkload(
                self.phases[0][1],
                write_fraction=wf,
                delay_ns_per_access=delay_ns_per_access,
            )
        return TraceWorkload(
            self.phases,
            write_fraction=wf,
            delay_ns_per_access=delay_ns_per_access,
            assume_normalized=True,
        )


def compile_windows(
    windows: np.ndarray,
    window_ns: int,
    write_fraction: float = 0.05,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
    n_events: Optional[int] = None,
    obs=None,
    pid: int = 0,
) -> CompiledTrace:
    """Compile stacked per-window histograms into phase tables.

    This is the recorder-format entry point (and the tail of the event
    path): segments the windows, pools each busy segment's counts into
    one interned distribution table, and emits ``compile.*``
    observability when an obs hub is supplied.
    """
    windows = _histograms(windows)
    if window_ns <= 0:
        raise ValueError("window duration must be positive")
    totals = windows.sum(axis=1, dtype=np.float64)
    if not np.any(totals > 0.0):
        raise ValueError("trace contains no traffic")
    segments = segment_windows(
        windows, threshold=threshold, min_windows=min_windows
    )
    phases: List[Tuple[int, np.ndarray]] = []
    for seg in segments:
        duration = (seg.end - seg.start) * int(window_ns)
        if seg.idle:
            zeros = np.zeros(windows.shape[1], dtype=np.float64)
            zeros.setflags(write=False)
            phases.append((duration, zeros))
        else:
            pooled = windows[seg.start:seg.end].sum(
                axis=0, dtype=np.float64
            )
            phases.append((duration, intern_distribution(pooled)))
    n_idle = int(np.count_nonzero(totals <= 0.0))
    compiled = CompiledTrace(
        phases=phases,
        n_pages=int(windows.shape[1]),
        window_ns=int(window_ns),
        write_fraction=float(write_fraction),
        n_events=int(totals.sum()) if n_events is None else int(n_events),
        n_windows=int(windows.shape[0]),
        n_idle_windows=n_idle,
        boundaries=[seg.start for seg in segments],
    )
    if obs is not None:
        obs.emit(
            "compile.trace",
            compiled.total_ns,
            pid=int(pid),
            n_events=compiled.n_events,
            n_windows=compiled.n_windows,
            n_idle=compiled.n_idle_windows,
            n_phases=compiled.n_phases,
        )
        obs.inc("compile.events", compiled.n_events)
        obs.inc("compile.windows", compiled.n_windows)
        obs.inc("compile.idle_windows", compiled.n_idle_windows)
        obs.inc("compile.phases", compiled.n_phases)
    return compiled


class _EventBinner:
    """Accumulates chunked events into per-pid window histograms.

    Holds one ``(n_windows, n_pages)`` uint32 count matrix per pid plus
    scalar write/event tallies.  A pid's share of a chunk folds in via
    one ``bincount`` over ``(window - first) * n_pages + vpn``, sized by
    the windows *that chunk* spans, so the working set is one chunk, its
    window span, and the counts themselves.  Count rows grow by doubling
    as later windows arrive.  Without a given ``n_pages`` the page
    dimension grows to the largest vpn seen so far, so a later chunk may
    touch a higher page than the first one did; each rise copies the
    counts, one pid at a time, at their exact new width.
    """

    def __init__(self, n_pages: Optional[int], window_ns: int) -> None:
        if window_ns <= 0:
            raise ValueError("window duration must be positive")
        self.window_ns = int(window_ns)
        self.fixed_pages = n_pages is not None
        self.n_pages = 0 if n_pages is None else int(n_pages)
        self.counts: Dict[int, np.ndarray] = {}
        self.events: Dict[int, int] = {}
        self.writes: Dict[int, int] = {}
        self.max_window: Dict[int, int] = {}

    def add_chunk(self, chunk: EventChunk) -> int:
        """Fold one chunk in; returns its event count.

        A chunk whose events all belong to one pid folds in whole.  That
        holds wherever a trace stores each pid's events contiguously, as
        ``perfbench``'s ``replay1m`` does (7 of its 8 chunks, 87% of its
        events), and skips regrouping copies of the chunk.  Other chunks
        are grouped by a stable argsort of their pids, which beat
        ``np.unique`` plus one mask per pid on a time-merged capture.
        """
        timestamps, pids, vpns, is_write = (
            np.asarray(chunk[0], dtype=np.int64),
            np.asarray(chunk[1], dtype=np.int64),
            np.asarray(chunk[2], dtype=np.int64),
            np.asarray(chunk[3], dtype=bool),
        )
        if not (
            timestamps.size == pids.size == vpns.size == is_write.size
        ):
            raise ValueError("event chunk arrays must share one length")
        if timestamps.size == 0:
            return 0
        if int(timestamps.min()) < 0 or int(vpns.min()) < 0:
            raise ValueError("timestamps and vpns must be non-negative")
        top_vpn = int(vpns.max())
        if top_vpn >= self.n_pages:
            if self.fixed_pages:
                raise ValueError(
                    f"vpn out of range for n_pages={self.n_pages}"
                )
            self._widen(top_vpn + 1)
        first_pid = int(pids.min())
        if first_pid == int(pids.max()):
            self._fold(first_pid, timestamps, vpns, is_write)
        else:
            order = np.argsort(pids, kind="stable")
            grouped = pids[order]
            cuts = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
            for group in np.split(order, cuts):
                self._fold(
                    int(pids[group[0]]),
                    timestamps[group],
                    vpns[group],
                    is_write[group],
                )
        return int(timestamps.size)

    def _widen(self, n_pages: int) -> None:
        """Grow every pid's page dimension to ``n_pages`` columns."""
        for pid in list(self.counts):
            matrix = self.counts[pid]
            wide = np.zeros((matrix.shape[0], n_pages), dtype=np.uint32)
            wide[:, : self.n_pages] = matrix
            self.counts[pid] = wide
        self.n_pages = n_pages

    def _fold(
        self,
        pid: int,
        timestamps: np.ndarray,
        vpns: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        offsets = timestamps // self.window_ns
        first = int(offsets.min())
        top = int(offsets.max())
        span = top - first + 1
        matrix = self.counts.get(pid)
        if matrix is None or top >= len(matrix):
            rows = max(top + 1, 2 * (0 if matrix is None else len(matrix)))
            grown = np.zeros((rows, self.n_pages), dtype=np.uint32)
            if matrix is not None:
                grown[: len(matrix)] = matrix
            self.counts[pid] = matrix = grown
        offsets -= first
        offsets *= self.n_pages
        offsets += vpns
        binned = np.bincount(
            offsets, minlength=span * self.n_pages
        ).reshape(span, self.n_pages)
        block = matrix[first : top + 1]
        events = self.events.get(pid, 0) + int(timestamps.size)
        if events > MAX_WINDOW_EVENTS:
            # A window's event total bounds each of its page counts; it
            # can only pass the uint32 range once the pid's total does.
            totals = block.sum(axis=1, dtype=np.int64) + binned.sum(axis=1)
            if int(totals.max()) > MAX_WINDOW_EVENTS:
                raise ValueError(
                    f"pid {pid} has more than {MAX_WINDOW_EVENTS} events "
                    f"in one {self.window_ns} ns window; its uint32 page "
                    "counts would overflow (use a shorter window)"
                )
        np.add(block, binned, out=block, dtype=np.uint32, casting="unsafe")
        self.events[pid] = events
        self.writes[pid] = self.writes.get(pid, 0) + int(
            np.count_nonzero(is_write)
        )
        self.max_window[pid] = max(self.max_window.get(pid, 0), top)

    def windows_for(self, pid: int) -> np.ndarray:
        return self.counts[pid][: self.max_window[pid] + 1]

    def write_fraction_for(self, pid: int) -> float:
        events = self.events.get(pid, 0)
        if events == 0:
            return 0.05
        return self.writes[pid] / events


def compile_event_stream(
    chunks: Iterable[EventChunk],
    n_pages: Optional[int] = None,
    window_ns: int = DEFAULT_WINDOW_NS,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
    obs=None,
) -> Dict[int, CompiledTrace]:
    """Compile a memory-bounded stream of event chunks, one trace per pid.

    Each chunk is a ``(timestamp_ns, pid, vpn, is_write)`` tuple of
    parallel arrays; only the current chunk and the per-pid window
    histograms are resident.  Returns ``{pid: CompiledTrace}``.
    """
    binner = _EventBinner(n_pages, window_ns)
    for chunk in chunks:
        binner.add_chunk(chunk)
    if not binner.counts:
        raise ValueError("event stream contains no events")
    compiled: Dict[int, CompiledTrace] = {}
    for pid in sorted(binner.counts):
        compiled[pid] = compile_windows(
            binner.windows_for(pid),
            window_ns,
            write_fraction=binner.write_fraction_for(pid),
            threshold=threshold,
            min_windows=min_windows,
            n_events=binner.events[pid],
            obs=obs,
            pid=pid,
        )
    return compiled


def compile_events(
    timestamps: Sequence[int],
    pids: Sequence[int],
    vpns: Sequence[int],
    is_write: Sequence[bool],
    n_pages: Optional[int] = None,
    window_ns: int = DEFAULT_WINDOW_NS,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
    obs=None,
) -> Dict[int, CompiledTrace]:
    """One-shot event-array entry point (chunks internally)."""
    timestamps, pids, vpns, is_write = (
        np.asarray(timestamps),
        np.asarray(pids),
        np.asarray(vpns),
        np.asarray(is_write),
    )

    def chunks() -> Iterator[EventChunk]:
        for lo in range(0, timestamps.size, int(chunk_events)):
            hi = lo + int(chunk_events)
            yield (
                timestamps[lo:hi],
                pids[lo:hi],
                vpns[lo:hi],
                is_write[lo:hi],
            )

    return compile_event_stream(
        chunks(),
        n_pages=n_pages,
        window_ns=window_ns,
        threshold=threshold,
        min_windows=min_windows,
        obs=obs,
    )


def read_event_csv(
    path: PathLike, chunk_events: int = DEFAULT_CHUNK_EVENTS
) -> Iterator[EventChunk]:
    """Stream ``timestamp_ns,pid,vpn,is_write`` rows as event chunks.

    A header row naming the columns is skipped if present; chunks hold
    at most ``chunk_events`` events so huge files stay memory-bounded.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        rows: List[Tuple[int, int, int, int]] = []
        for row in reader:
            if not row or row[0].strip().lstrip("-").isdigit() is False:
                continue  # header or blank line
            rows.append(
                (int(row[0]), int(row[1]), int(row[2]), int(row[3]))
            )
            if len(rows) >= chunk_events:
                yield _rows_to_chunk(rows)
                rows = []
        if rows:
            yield _rows_to_chunk(rows)


def _rows_to_chunk(rows: List[Tuple[int, int, int, int]]) -> EventChunk:
    """Transpose accumulated csv rows into one chunk of parallel arrays."""
    array = np.asarray(rows, dtype=np.int64)
    return (
        array[:, 0],
        array[:, 1],
        array[:, 2],
        array[:, 3].astype(bool),
    )


def _npy_header(handle: IO[bytes], key: str) -> Tuple[np.dtype, int]:
    """Read one ``.npy`` member's header: ``(dtype, length)``."""
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, _, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, _, dtype = np.lib.format.read_array_header_2_0(handle)
    else:
        raise ValueError(
            f"event member {key!r}: unsupported .npy version {version}"
        )
    if len(shape) != 1 or dtype.hasobject:
        raise ValueError(f"event member {key!r} must be a 1-D numeric array")
    return dtype, int(shape[0])


def _npy_chunk(
    handle: IO[bytes], key: str, dtype: np.dtype, count: int
) -> np.ndarray:
    """The next ``count`` elements of an open ``.npy`` member."""
    data = handle.read(count * dtype.itemsize)
    if len(data) != count * dtype.itemsize:
        raise ValueError(f"event member {key!r} is truncated")
    return np.frombuffer(data, dtype=dtype)


def read_event_npz(path: PathLike) -> Iterator[EventChunk]:
    """Stream an event-format ``.npz`` (:data:`EVENT_KEYS` members) as
    event chunks of at most :data:`DEFAULT_CHUNK_EVENTS` events each.

    The four members are read side by side, straight from the archive
    (stored or ``np.savez_compressed``), and each chunk keeps the
    members' stored dtypes, so the resident set is one chunk however
    long the file is.
    """
    with zipfile.ZipFile(path) as archive, contextlib.ExitStack() as stack:
        members = []
        for key in EVENT_KEYS:
            handle = stack.enter_context(archive.open(f"{key}.npy"))
            members.append((handle, key) + _npy_header(handle, key))
        lengths = {length for _, _, _, length in members}
        if len(lengths) != 1:
            raise ValueError("event members must share one length")
        remaining = lengths.pop()
        while remaining > 0:
            count = min(DEFAULT_CHUNK_EVENTS, remaining)
            yield tuple(
                _npy_chunk(handle, key, dtype, count)
                for handle, key, dtype, _ in members
            )
            remaining -= count


def compile_trace_file(
    path: PathLike,
    window_ns: Optional[int] = None,
    threshold: float = DEFAULT_SEGMENT_THRESHOLD,
    min_windows: int = 1,
    obs=None,
    pid: int = 0,
) -> Dict[int, CompiledTrace]:
    """Compile a trace file of either supported format.

    ``.npz`` files are sniffed: a ``windows`` key is the recorder's
    window format (binned at its recorded interval; ``window_ns`` must
    then be omitted or match), a ``timestamp_ns`` key is the raw event
    format, streamed through :func:`read_event_npz`.  ``.csv`` files
    stream through :func:`read_event_csv`.
    """
    path = pathlib.Path(path)
    if path.suffix == ".csv":
        return compile_event_stream(
            read_event_csv(path),
            window_ns=window_ns or DEFAULT_WINDOW_NS,
            threshold=threshold,
            min_windows=min_windows,
            obs=obs,
        )
    with np.load(path) as data:
        keys = set(data.files)
    if "windows" in keys:
        windows, interval_ns, write_fraction = load_trace_windows(path)
        if window_ns is not None and int(window_ns) != interval_ns:
            raise ValueError(
                "window format traces are pre-binned; window_ns must "
                f"match the recorded interval ({interval_ns})"
            )
        return {
            pid: compile_windows(
                windows,
                interval_ns,
                write_fraction=write_fraction,
                threshold=threshold,
                min_windows=min_windows,
                obs=obs,
                pid=pid,
            )
        }
    return compile_event_stream(
        read_event_npz(path),
        window_ns=window_ns or DEFAULT_WINDOW_NS,
        threshold=threshold,
        min_windows=min_windows,
        obs=obs,
    )


def synthetic_event_stream(
    n_events: int,
    n_pages: int = 256,
    n_phases: int = 3,
    pid: int = 0,
    window_ns: int = DEFAULT_WINDOW_NS,
    windows_per_phase: int = 8,
    write_fraction: float = 0.1,
    seed: int = 0,
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> Iterator[EventChunk]:
    """Deterministic sample event generator (benchmarks and tests).

    Emits ``n_events`` events whose hotspot rotates every
    ``windows_per_phase`` windows through ``n_phases`` Zipf-like page
    popularities, with evenly spaced timestamps -- a known-phase-count
    stream for compile-throughput measurement and segmentation checks.
    """
    if n_events <= 0 or n_phases <= 0 or windows_per_phase <= 0:
        raise ValueError("event/phase counts must be positive")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_pages + 1, dtype=np.float64)
    cdfs = []
    for phase in range(n_phases):
        weights = np.roll(
            ranks ** -1.2, (phase * n_pages) // n_phases
        )
        cdfs.append(np.cumsum(weights / weights.sum()))
    total_ns = n_phases * windows_per_phase * window_ns
    step_ns = max(1, total_ns // n_events)
    emitted = 0
    while emitted < n_events:
        count = min(int(chunk_events), n_events - emitted)
        timestamps = (
            np.arange(emitted, emitted + count, dtype=np.int64) * step_ns
        )
        phase_idx = (
            timestamps // (windows_per_phase * window_ns)
        ) % n_phases
        uniform = rng.random(count)
        vpns = np.empty(count, dtype=np.int64)
        for phase in range(n_phases):
            mask = phase_idx == phase
            if np.any(mask):
                vpns[mask] = np.searchsorted(
                    cdfs[phase], uniform[mask]
                )
        np.clip(vpns, 0, n_pages - 1, out=vpns)
        is_write = rng.random(count) < write_fraction
        pids = np.full(count, pid, dtype=np.int64)
        yield (timestamps, pids, vpns, is_write)
        emitted += count
