"""The page-fault path.

The simulator models *NUMA hint faults*: a scan marked a PTE ``PROT_NONE``;
the next access traps into the kernel, which records the fault, restores the
mapping, and hands the event to the active tiering policy.  Chrono's CIT is
computed right here -- fault timestamp minus the scan timestamp the
Ticking-scan stamped on the page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vm.process import SimProcess

NUMA_HINT_FAULT: str = "numa_hint"


@dataclass
class FaultBatch:
    """A batch of NUMA hint faults taken by one process in one quantum.

    Attributes:
        pid: faulting process id.
        vpns: virtual page numbers that faulted (each page faults at most
            once per protection round, as in the kernel).
        fault_ts_ns: absolute time each fault fired.
        cit_ns: Captured Idle Time of each fault
            (``fault_ts - scan_ts``); ``-1`` where the page had no scan
            timestamp (should not happen for protected pages).
    """

    pid: int
    vpns: np.ndarray
    fault_ts_ns: np.ndarray
    cit_ns: np.ndarray
    kind: str = NUMA_HINT_FAULT

    def __post_init__(self) -> None:
        if not (len(self.vpns) == len(self.fault_ts_ns) == len(self.cit_ns)):
            raise ValueError("fault batch arrays must be parallel")

    @property
    def n_faults(self) -> int:
        return int(len(self.vpns))

    def event_fields(self) -> dict:
        """The batch as a ``fault.batch`` trace-event payload.

        Keys match the ``fault.batch`` entry of
        :data:`repro.obs.events.EVENT_SCHEMA`; arrays stay numpy and are
        JSON-ified by the tracer at flush time.
        """
        return {
            "pid": self.pid,
            "n_faults": self.n_faults,
            "vpns": self.vpns,
            "fault_ts_ns": self.fault_ts_ns,
            "cit_ns": self.cit_ns,
        }

    @classmethod
    def empty(cls, pid: int) -> "FaultBatch":
        return cls(
            pid=pid,
            vpns=np.empty(0, dtype=np.int64),
            fault_ts_ns=np.empty(0, dtype=np.int64),
            cit_ns=np.empty(0, dtype=np.int64),
        )


def first_access_offsets(
    u: np.ndarray, rates_per_ns: np.ndarray, quantum_len_ns: int
) -> np.ndarray:
    """Each page's first-access offset within a quantum, from uniforms
    ``u``: its arrival process at ``rates_per_ns`` (positive) conditioned
    on at least one arrival, ``t = -ln(1 - u * (1 - exp(-rate * Q))) /
    rate``, truncated to the quantum."""
    scale = -np.expm1(-rates_per_ns * quantum_len_ns)
    offsets = (-np.log1p(-u * scale) / rates_per_ns).astype(np.int64)
    return np.minimum(offsets, quantum_len_ns - 1)


def take_hint_faults(
    process: "SimProcess",
    touched_vpns: np.ndarray,
    quantum_start_ns: int,
    quantum_len_ns: int,
    rng: np.random.Generator,
    rates_per_ns: Optional[np.ndarray] = None,
    cache_remainder: Optional[np.ndarray] = None,
) -> FaultBatch:
    """Resolve hint faults for protected pages touched this quantum.

    Each touched protected page faults exactly once -- on its *first*
    access of the quantum.  When ``rates_per_ns`` (the page's expected
    accesses per nanosecond this quantum) is provided, the fault offset is
    drawn from the page's own arrival process: an exponential truncated to
    the quantum.  This keeps CIT resolution *below* the engine quantum --
    a page accessed every 2 ms faults ~2 ms after its scan even under a
    50 ms quantum, exactly the fine-grained signal Chrono measures.
    Without rates the offset falls back to uniform (the cold-page limit of
    the truncated exponential).

    Side effects: clears ``prot_none`` for the faulted pages and sets their
    accessed bits (the faulting access is an access).

    ``cache_remainder`` is a hot-path shortcut for callers that derived
    ``touched_vpns`` from :meth:`~repro.vm.page_state.PageState.\
protected_pages` with a boolean mask: it must be the complementary
    (untouched) slice of that same snapshot, and lets the unprotect skip
    its membership search.
    """
    pages = process.pages
    touched_vpns = np.asarray(touched_vpns)
    if touched_vpns.size == 0:
        return FaultBatch.empty(process.pid)

    quantum_len_ns = max(quantum_len_ns, 1)
    if rates_per_ns is None:
        offsets = rng.integers(0, quantum_len_ns, size=touched_vpns.size)
    else:
        rates = np.asarray(rates_per_ns, dtype=np.float64)
        if rates.shape != touched_vpns.shape:
            raise ValueError("rates must parallel touched vpns")
        if float(rates.min()) <= 0:
            raise ValueError("touched pages must have positive rates")
        offsets = first_access_offsets(
            rng.random(touched_vpns.size), rates, quantum_len_ns
        )
    fault_ts = quantum_start_ns + offsets
    scan_ts = pages.scan_ts_ns[touched_vpns]
    cit = np.where(scan_ts >= 0, fault_ts - scan_ts, np.int64(-1))

    if cache_remainder is not None:
        pages.unprotect_resolved(touched_vpns, cache_remainder)
    else:
        pages.unprotect(touched_vpns)
    pages.accessed[touched_vpns] = True

    return FaultBatch(
        pid=process.pid,
        vpns=touched_vpns.astype(np.int64, copy=False),
        fault_ts_ns=fault_ts.astype(np.int64, copy=False),
        cit_ns=cit.astype(np.int64, copy=False),
    )
