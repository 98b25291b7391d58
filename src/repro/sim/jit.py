"""Optional numba-accelerated kernels behind the ``CHRONO_JIT`` flag.

This module lives in the dependency-free :mod:`repro.sim` substrate so
both the vm layer and the harness can import it without cycles.  The
arena stepping path (:mod:`repro.harness.arena`) and the deferred
ground-truth ledger (:mod:`repro.vm.page_state`) spend their large-array
time in these kernels:

``ledger_fold``
    Materialise one ledger run into the lifetime and window counters:
    ``access[i] += probs[i] * n``, ``window[i] += probs[i] * n``.  At the
    10M-page bench rung this is the single largest remaining O(pages)
    pass.

``scan_filter``
    The Ticking-scan tier filter: gather each window page's tier and
    compress to the pages on the filtered tier, fused into one pass.

``dcsc_fold``
    The DCSC histogram reduction: scatter-add round-2 CIT samples into
    the per-tier heat maps, fused over ``(tier, bucket)`` keys instead
    of one ``np.add.at`` per tier.

``price_fold``
    The arena's masked pricing fold: recompute
    ``mean_lat[i] = sum_t mass[i, t] * (rf[i]*read[t] + wf[i]*write[t])``
    for a subset ``idx`` of segment rows.  The interned stepping path
    re-prices only dirty singleton rows, so the fold takes the row
    subset explicitly instead of sweeping every segment.

Each has a pure-numpy implementation that is the default and the
reference.  Setting ``CHRONO_JIT=1`` in the environment swaps in numba
``@njit`` versions **when numba is importable**; the numba kernels
perform the exact same floating-point operations in the same order, so
they are bit-identical to the numpy path (``tests/test_jit_kernels.py``
asserts this).  When numba is missing -- it is an optional dependency
and never required -- the flag silently degrades to the numpy
implementations; nothing in the simulator ever hard-depends on numba.

The flag is resolved lazily on first use and cached; tests can force a
re-resolution through :func:`reset`.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

#: resolved lazily: ``None`` = not yet resolved, else a dict with the
#: active kernel implementations and the ``enabled`` verdict
_state: Optional[dict] = None


def _numpy_ledger_fold(
    probs: np.ndarray,
    n_accesses: float,
    access: np.ndarray,
    window: np.ndarray,
    buf: np.ndarray,
) -> None:
    """Reference ledger fold: one multiply into ``buf``, two axpys."""
    np.multiply(probs, n_accesses, out=buf)
    access += buf
    window += buf


def _numpy_scan_filter(
    tier: np.ndarray, window: np.ndarray, tier_filter: int
) -> np.ndarray:
    """Reference tier filter: gather tiers, compare, compress."""
    return window[tier[window] == tier_filter]


def _numpy_dcsc_fold(
    tiers: np.ndarray, buckets: np.ndarray, n_tiers: int, n_buckets: int
) -> np.ndarray:
    """Reference DCSC reduction: one fused bincount over
    ``tier * n_buckets + bucket`` keys; returns float64 counts of shape
    ``(n_tiers, n_buckets)``."""
    keys = tiers.astype(np.int64) * n_buckets + buckets
    counts = np.bincount(keys, minlength=n_tiers * n_buckets)
    return counts.astype(np.float64).reshape(n_tiers, n_buckets)


def _numpy_price_fold(
    mass: np.ndarray,
    rf: np.ndarray,
    wf: np.ndarray,
    read_lats: np.ndarray,
    write_lats: np.ndarray,
    idx: np.ndarray,
    out: np.ndarray,
) -> None:
    """Reference masked pricing fold.

    Per element the operation sequence is exactly the full-arena fold's
    (``rf*read``, ``wf*write``, add, multiply by mass, accumulate in
    tier order), so a masked refold of an unchanged row reproduces the
    cached value bit for bit.
    """
    sub_rf = rf[idx]
    sub_wf = wf[idx]
    acc = np.zeros(idx.shape[0], dtype=np.float64)
    for tier_id in range(read_lats.shape[0]):
        coef = sub_rf * read_lats[tier_id]
        coef += sub_wf * write_lats[tier_id]
        coef *= mass[idx, tier_id]
        acc += coef
    out[idx] = acc


def _build_numba_kernels() -> Optional[dict]:
    """Compile the numba kernels; ``None`` when numba is unavailable."""
    try:
        from numba import njit  # type: ignore
    except ImportError:
        return None

    @njit(cache=True)
    def _nb_ledger_fold(probs, n_accesses, access, window):  # pragma: no cover - compiled
        for i in range(probs.shape[0]):
            # Same two roundings as the numpy path: round the product,
            # then round each accumulation -- bit-identical by IEEE-754.
            value = probs[i] * n_accesses
            access[i] += value
            window[i] += value

    @njit(cache=True)
    def _nb_scan_filter(tier, window, tier_filter):  # pragma: no cover - compiled
        n = 0
        for i in range(window.shape[0]):
            if tier[window[i]] == tier_filter:
                n += 1
        out = np.empty(n, dtype=np.int64)
        k = 0
        for i in range(window.shape[0]):
            vpn = window[i]
            if tier[vpn] == tier_filter:
                out[k] = vpn
                k += 1
        return out

    @njit(cache=True)
    def _nb_dcsc_fold(tiers, buckets, n_tiers, n_buckets):  # pragma: no cover - compiled
        out = np.zeros((n_tiers, n_buckets), dtype=np.float64)
        for i in range(tiers.shape[0]):
            # Integer-valued float64 counts: identical to the numpy
            # bincount path bit for bit.
            out[tiers[i], buckets[i]] += 1.0
        return out

    @njit(cache=True)
    def _nb_price_fold(mass, rf, wf, read_lats, write_lats, idx, out):  # pragma: no cover - compiled
        for k in range(idx.shape[0]):
            i = idx[k]
            acc = 0.0
            for tier_id in range(read_lats.shape[0]):
                # Same per-element sequence as the numpy fold: rf*read,
                # wf*write, add, multiply by mass, accumulate in tier
                # order -- bit-identical by IEEE-754.
                coef = rf[i] * read_lats[tier_id]
                coef += wf[i] * write_lats[tier_id]
                coef *= mass[i, tier_id]
                acc += coef
            out[i] = acc

    def ledger_fold(probs, n_accesses, access, window, buf):
        _nb_ledger_fold(probs, float(n_accesses), access, window)

    def scan_filter(tier, window, tier_filter):
        return _nb_scan_filter(
            tier,
            np.ascontiguousarray(window, dtype=np.int64),
            tier_filter,
        )

    def dcsc_fold(tiers, buckets, n_tiers, n_buckets):
        return _nb_dcsc_fold(
            np.ascontiguousarray(tiers, dtype=np.int64),
            np.ascontiguousarray(buckets, dtype=np.int64),
            n_tiers,
            n_buckets,
        )

    def price_fold(mass, rf, wf, read_lats, write_lats, idx, out):
        _nb_price_fold(
            mass,
            rf,
            wf,
            read_lats,
            write_lats,
            np.ascontiguousarray(idx, dtype=np.int64),
            out,
        )

    return {
        "enabled": True,
        "ledger_fold": ledger_fold,
        "scan_filter": scan_filter,
        "dcsc_fold": dcsc_fold,
        "price_fold": price_fold,
    }


def _resolve() -> dict:
    """Resolve the active kernel set from ``CHRONO_JIT`` (cached)."""
    global _state
    if _state is not None:
        return _state
    flag = os.environ.get("CHRONO_JIT", "").strip().lower()
    wanted = flag not in ("", "0", "false", "off", "no")
    kernels = _build_numba_kernels() if wanted else None
    if kernels is None:
        kernels = {
            "enabled": False,
            "ledger_fold": _numpy_ledger_fold,
            "scan_filter": _numpy_scan_filter,
            "dcsc_fold": _numpy_dcsc_fold,
            "price_fold": _numpy_price_fold,
        }
    _state = kernels
    return _state


def reset() -> None:
    """Drop the cached resolution (tests re-read ``CHRONO_JIT``)."""
    global _state
    _state = None


def jit_enabled() -> bool:
    """True when the numba kernels are active (flag set + importable)."""
    return bool(_resolve()["enabled"])


def ledger_fold(
    probs: np.ndarray,
    n_accesses: float,
    access: np.ndarray,
    window: np.ndarray,
    buf: np.ndarray,
) -> None:
    """Fold one ``(probs, n)`` ledger run into both counters in place."""
    _resolve()["ledger_fold"](probs, n_accesses, access, window, buf)


def scan_filter(
    tier: np.ndarray, window: np.ndarray, tier_filter: int
) -> np.ndarray:
    """``window[tier[window] == tier_filter]`` as one fused gather/compress
    (JIT-swappable; order-preserving, bit-identical)."""
    return _resolve()["scan_filter"](tier, window, int(tier_filter))


def dcsc_fold(
    tiers: np.ndarray, buckets: np.ndarray, n_tiers: int, n_buckets: int
) -> np.ndarray:
    """Count ``(tier, bucket)`` CIT samples into a dense float64
    ``(n_tiers, n_buckets)`` table (JIT-swappable; integer-valued counts,
    bit-identical across implementations)."""
    return _resolve()["dcsc_fold"](tiers, buckets, int(n_tiers), int(n_buckets))


def price_fold(
    mass: np.ndarray,
    rf: np.ndarray,
    wf: np.ndarray,
    read_lats: np.ndarray,
    write_lats: np.ndarray,
    idx: np.ndarray,
    out: np.ndarray,
) -> None:
    """Masked arena pricing fold: rewrite ``out[idx]`` with
    ``sum_t mass[idx, t] * (rf[idx]*read[t] + wf[idx]*write[t])``
    (JIT-swappable; same per-element FP sequence as the dense fold,
    bit-identical across implementations)."""
    _resolve()["price_fold"](mass, rf, wf, read_lats, write_lats, idx, out)
