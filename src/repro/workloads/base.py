"""Workload interface.

A workload answers three questions every simulation quantum:

1. *Where* does the process access memory?  (``access_distribution`` -- a
   probability vector over its pages.)
2. *How* does it access memory?  (``write_fraction`` -- the store share.)
3. *How fast* can it issue accesses?  (``delay_ns_per_access`` -- compute
   stall between accesses; 0 for a pure memory-bound loop.)

Workloads may be phase-changing: ``advance(now_ns)`` lets them rotate their
distribution (BFS frontiers, diurnal key popularity, ...).  The cached
distribution is only rebuilt when a phase actually changes, keeping the
per-quantum cost at a single array read.

Ground truth: ``hot_page_mask`` marks the pages the workload itself
considers hot (e.g. the central 25% of a Gaussian pattern).  The F1/PPR
experiments compare policies against this oracle.

Compiled-table cache
--------------------

Building a workload's access tables can dwarf the simulation itself
(the Graph500 builder constructs an actual scale-free graph and runs a
BFS).  The tables are pure functions of the constructor parameters, so
the module keeps a process-global LRU (:func:`cached_tables`) mapping a
canonical parameter key to the compiled, **read-only** arrays.  Sweep
cells that differ only in policy/seed/delay rebuild nothing, warm sweep
workers reuse tables across cells, and the shared-memory transport
(:mod:`repro.harness.shm`) seeds the same cache in worker processes so
an 8-job sweep holds one copy of each distribution.
"""

from __future__ import annotations

import json
import weakref
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

#: distinct table sets retained in the process-global LRU
TABLE_CACHE_CAPACITY = 64

_TABLE_CACHE: "OrderedDict[str, Dict[str, np.ndarray]]" = OrderedDict()
_TABLE_STATS: Dict[str, int] = {
    "hits": 0,
    "builds": 0,
    "seeded": 0,
    "misses": 0,
}

#: reverse index from a cached array's identity to its canonical cache
#: key: ``id(array) -> (key, table_name, weakref)``.  The weakref guards
#: against id reuse after an eviction frees the array; entries are
#: pruned opportunistically when the index outgrows the cache.
_ARRAY_KEYS: Dict[int, Tuple[str, str, "weakref.ref"]] = {}
_ARRAY_KEYS_SWEEP_LEN = 8 * TABLE_CACHE_CAPACITY


def table_key(kind: str, **params: Any) -> str:
    """Canonical cache key for one workload's compiled tables.

    ``kind`` names the builder (usually the workload's ``name``) and
    ``params`` must include *every* parameter the tables depend on --
    and nothing else, so cells differing only in non-table knobs
    (delay, read/write mix, policy, seed) share an entry.
    """
    return json.dumps(
        {"kind": kind, "params": params}, sort_keys=True, allow_nan=False
    )


def _freeze(tables: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Mark every table read-only (shared across workload instances)."""
    frozen = {}
    for name, array in tables.items():
        array = np.asarray(array)
        array.setflags(write=False)
        frozen[name] = array
    return frozen


def _register_fingerprints(
    key: str, tables: Mapping[str, np.ndarray]
) -> None:
    """Index each frozen array's identity back to its cache key."""
    if len(_ARRAY_KEYS) > _ARRAY_KEYS_SWEEP_LEN:
        dead = [
            array_id
            for array_id, (_, _, ref) in _ARRAY_KEYS.items()
            if ref() is None
        ]
        for array_id in dead:
            del _ARRAY_KEYS[array_id]
    for name, array in tables.items():
        _ARRAY_KEYS[id(array)] = (key, name, weakref.ref(array))


def distribution_fingerprint(
    array: Optional[np.ndarray],
) -> Optional[Tuple[str, str]]:
    """``(cache_key, table_name)`` for a cached table array, else ``None``.

    Two workloads built from the same :func:`table_key` parameters share
    one frozen ``probs`` array; this resolves that array's *identity*
    back to the canonical key for reporting.  Arrays that never went
    through :func:`cached_tables` / :func:`seed_tables` have no
    fingerprint.
    """
    if array is None:
        return None
    entry = _ARRAY_KEYS.get(id(array))
    if entry is None:
        return None
    key, name, ref = entry
    if ref() is not array:
        # id reuse after the original array was evicted and freed
        del _ARRAY_KEYS[id(array)]
        return None
    return key, name


def cached_tables(
    key: str, builder: Callable[[], Mapping[str, np.ndarray]]
) -> Dict[str, np.ndarray]:
    """Get-or-build the compiled table set for ``key``.

    On a miss, ``builder()`` runs once and its arrays are frozen
    read-only before caching -- callers share the arrays, so nobody may
    mutate them in place (phase changes must install *new* arrays,
    which the engine's identity-based caching already requires).
    """
    tables = _TABLE_CACHE.get(key)
    if tables is not None:
        _TABLE_CACHE.move_to_end(key)
        _TABLE_STATS["hits"] += 1
        return tables
    _TABLE_STATS["builds"] += 1
    _TABLE_STATS["misses"] += 1
    tables = _freeze(builder())
    _TABLE_CACHE[key] = tables
    _register_fingerprints(key, tables)
    while len(_TABLE_CACHE) > TABLE_CACHE_CAPACITY:
        _TABLE_CACHE.popitem(last=False)
    return tables


def seed_tables(
    entries: Mapping[str, Mapping[str, np.ndarray]]
) -> None:
    """Install pre-built table sets (the shared-memory attach path)."""
    for key, tables in entries.items():
        frozen = _freeze(tables)
        _TABLE_CACHE[key] = frozen
        _TABLE_CACHE.move_to_end(key)
        _register_fingerprints(key, frozen)
        _TABLE_STATS["seeded"] += 1
    while len(_TABLE_CACHE) > TABLE_CACHE_CAPACITY:
        _TABLE_CACHE.popitem(last=False)


def snapshot_tables(
    min_bytes: int = 0,
) -> Dict[str, Dict[str, np.ndarray]]:
    """Return cached table sets totalling at least ``min_bytes`` each.

    The parent side of the shared-memory transport exports this
    snapshot to sweep workers.
    """
    return {
        key: dict(tables)
        for key, tables in _TABLE_CACHE.items()
        if sum(a.nbytes for a in tables.values()) >= min_bytes
    }


def table_cache_stats() -> Dict[str, int]:
    """Hit/build/seed/miss counters plus the current entry count and
    resident table bytes (the obs registry's ``workload.table_*``
    gauges read these at snapshot time)."""
    stats = dict(_TABLE_STATS)
    stats["entries"] = len(_TABLE_CACHE)
    stats["bytes"] = sum(
        array.nbytes
        for tables in _TABLE_CACHE.values()
        for array in tables.values()
    )
    return stats


def reset_table_cache() -> None:
    """Drop every cached table set and zero the counters (tests)."""
    _TABLE_CACHE.clear()
    _ARRAY_KEYS.clear()
    for counter in _TABLE_STATS:
        _TABLE_STATS[counter] = 0


class Workload(ABC):
    """Base class for access-distribution workloads."""

    name: str = "workload"

    def __init__(
        self,
        n_pages: int,
        write_fraction: float = 0.05,
        delay_ns_per_access: float = 0.0,
    ) -> None:
        if n_pages <= 0:
            raise ValueError("workload needs at least one page")
        if not 0 <= write_fraction <= 1:
            raise ValueError("write fraction must be in [0, 1]")
        if delay_ns_per_access < 0:
            raise ValueError("delay cannot be negative")
        self.n_pages = int(n_pages)
        self.write_fraction = float(write_fraction)
        self.delay_ns_per_access = float(delay_ns_per_access)

    @abstractmethod
    def access_distribution(self, now_ns: Optional[int] = None) -> np.ndarray:
        """Per-page access probabilities (sum to 1).

        ``now_ns=None`` means "the current phase" (whatever the last
        ``advance`` selected); passing a time lets callers peek at a
        specific phase.
        """

    def advance(self, now_ns: int) -> None:
        """Hook for phase changes; stationary workloads do nothing."""

    def stable_until_ns(self, now_ns: int) -> Optional[int]:
        """Earliest future instant at which the access profile may change.

        The engine's quantum-fusion horizon must not cross this time: up
        to (but excluding) the returned instant, ``advance`` is guaranteed
        not to change the distribution returned by
        ``access_distribution``.  ``None`` means the profile is stationary
        (never changes).

        The default is conservative: a workload that overrides ``advance``
        without also overriding this method reports ``now_ns`` (no
        stability guarantee, fusion disabled); a workload that keeps the
        base no-op ``advance`` is stationary.
        """
        if type(self).advance is Workload.advance:
            return None
        return now_ns

    def hot_page_mask(self, hot_fraction: float = 0.25) -> np.ndarray:
        """Oracle hot mask: the top ``hot_fraction`` of pages by access
        probability."""
        if not 0 < hot_fraction <= 1:
            raise ValueError("hot fraction must be in (0, 1]")
        probs = self.access_distribution()
        n_hot = max(1, int(self.n_pages * hot_fraction))
        threshold_idx = np.argpartition(probs, -n_hot)[-n_hot:]
        mask = np.zeros(self.n_pages, dtype=bool)
        mask[threshold_idx] = True
        return mask

    @staticmethod
    def _normalize(weights: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            raise ValueError("access weights must have positive mass")
        return weights / total


class TraceWorkload(Workload):
    """A workload with an explicitly supplied (possibly phased) profile.

    Useful for tests and for replaying recorded page-weight traces.
    ``phases`` is a list of (duration_ns, weight-vector) pairs cycled
    forever; a single phase makes the workload stationary.

    A phase whose weight vector has zero total mass is an *idle*
    (zero-traffic) phase: the engine completes no accesses while it is
    active, which preserves the wall-clock shape of recorded traces
    that contain idle windows.  At least one phase must carry positive
    mass.  ``assume_normalized=True`` stores positive-mass vectors by
    reference instead of copy-normalizing them -- the trace compiler
    uses this to hand every instance the *same* frozen
    :func:`cached_tables` array so the engine's identity-based fusion
    witness sees shared tables.
    """

    name = "trace"

    def __init__(
        self,
        phases,
        write_fraction: float = 0.05,
        delay_ns_per_access: float = 0.0,
        assume_normalized: bool = False,
    ) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        durations, weights = zip(*phases)
        if any(d <= 0 for d in durations):
            raise ValueError("phase durations must be positive")
        n_pages = len(weights[0])
        if any(len(w) != n_pages for w in weights):
            raise ValueError("all phases must cover the same pages")
        super().__init__(n_pages, write_fraction, delay_ns_per_access)
        self._durations = [int(d) for d in durations]
        self._probs = []
        positive_phases = 0
        for w in weights:
            arr = np.asarray(w, dtype=np.float64)
            if float(arr.sum()) > 0.0:
                positive_phases += 1
                if not assume_normalized:
                    arr = self._normalize(arr)
            else:
                arr = np.zeros(n_pages, dtype=np.float64)
                arr.setflags(write=False)
            self._probs.append(arr)
        if positive_phases == 0:
            raise ValueError("access weights must have positive mass")
        self._cycle_ns = sum(self._durations)
        self._phase = 0

    def _phase_at(self, now_ns: int) -> int:
        offset = now_ns % self._cycle_ns
        for index, duration in enumerate(self._durations):
            if offset < duration:
                return index
            offset -= duration
        return len(self._durations) - 1  # pragma: no cover

    def advance(self, now_ns: int) -> None:
        self._phase = self._phase_at(now_ns)

    def stable_until_ns(self, now_ns: int) -> Optional[int]:
        """Next phase boundary in the cycle (``None`` for a single phase)."""
        if len(self._probs) == 1:
            return None
        offset = now_ns % self._cycle_ns
        elapsed = 0
        for duration in self._durations:
            elapsed += duration
            if offset < elapsed:
                return now_ns - offset + elapsed
        return now_ns + self._cycle_ns - offset  # pragma: no cover

    def access_distribution(self, now_ns: Optional[int] = None) -> np.ndarray:
        if now_ns is not None:
            self._phase = self._phase_at(now_ns)
        return self._probs[self._phase]
