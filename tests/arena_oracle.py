"""The arena's test oracle: a per-segment step that recomputes
everything every quantum.

``step_reference(arena, start_ns, quantum_ns)`` executes one
(macro-)quantum of a :class:`repro.harness.arena.ProcessArena` the
straightforward way: a Python gather loop that advances every row and
checks its placement epoch and kernel debt, a full pricing fold over all
segments, the arena's fault phase, and a full recompute of the ledger,
stat, latency and demand folds.  No witness cells, static rows, dirty
bits or steady-state cache are consulted.

:meth:`ProcessArena.step` must reproduce this function bit for bit on
every fleet.  Tests install it in place of the production step::

    monkeypatch.setattr(ProcessArena, "step", step_reference)

This module is not collected by pytest (its name does not match
``test_*.py``); it is imported by the tests that use it.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.mem.machine import CACHE_LINE_BYTES
from repro.mem.tier import FAST_TIER


def step_reference(arena, start_ns: int, quantum_ns: int) -> np.ndarray:
    """One arena quantum, recomputed from scratch; returns the fleet's
    per-tier byte demand."""
    engine = arena.engine
    rows = arena._rows
    refs = arena.probs_refs
    m_epoch = arena.mass_epoch
    wf, rf, delay = arena._wf, arena._rf, arena._delay
    budget, n_vec = arena._budget, arena._n
    live_mask = arena._live_mask
    n_segs = arena.n_segs
    retired = False

    # ---- Phase 1: gather ----------------------------------------------------
    budget.fill(float(quantum_ns))
    stale: List[Any] = []
    for row in rows:
        i, proc, workload, pages = row
        if proc.finished:
            live_mask[i] = False
            retired = True
            continue
        workload.advance(start_ns)
        probs = workload.access_distribution()
        if probs is not refs[i]:
            arena._swap_probs(i, probs, workload)
        if m_epoch[i] != pages.epoch:
            stale.append((i, proc))
        if proc.pending_kernel_ns:
            budget[i] = quantum_ns - proc.drain_pending_kernel(quantum_ns)
    if stale:
        arena._repair_mass_many(stale)
    if retired:
        arena._retire_rows()
        rows = arena._rows
        retired = False
    if not rows:
        arena._demand_out.fill(0.0)
        return arena._demand_out

    # ---- Phase 2: pricing (every segment) -----------------------------------
    read_lats = engine._read_lat_list
    write_lats = engine._write_lat_list
    np.subtract(1.0, wf, out=rf)
    mean_lat = arena._mean_lat
    mean_lat.fill(0.0)
    coef = np.empty(n_segs, dtype=np.float64)
    tmp = np.empty(n_segs, dtype=np.float64)
    for tier_id in range(arena.n_tiers):
        # The per-process pricing loop, element-wise: rf*read + wf*write,
        # then mass * coef.
        np.multiply(rf, read_lats[tier_id], out=coef)
        np.multiply(wf, write_lats[tier_id], out=tmp)
        coef += tmp
        np.multiply(arena.mass[:, tier_id], coef, out=tmp)
        mean_lat += tmp
    per_cost = arena._per_cost
    np.add(mean_lat, delay, out=per_cost)
    np.maximum(budget, 0.0, out=budget)
    n_vec.fill(0.0)
    np.divide(budget, per_cost, out=n_vec, where=per_cost > 0.0)
    np.multiply(n_vec, live_mask, out=n_vec)
    np.sum(arena.mass, axis=1, out=tmp)
    np.sign(tmp, out=tmp)
    np.multiply(n_vec, tmp, out=n_vec)
    n_list = n_vec.tolist()

    # ---- Phase 3: fault draw ------------------------------------------------
    faults = arena._faults
    have_faults = arena._fault_phase(start_ns, quantum_ns)

    # ---- Phases 4-6: ledger, stats, latency, demand -------------------------
    arena.open_n += n_vec
    mass = arena.mass
    fast = mass[:, FAST_TIER] * n_vec
    user = n_vec * mean_lat
    stall = n_vec * delay
    if arena._lazy_stats:
        arena._acc_n += n_vec
        arena._acc_fast += fast
        arena._acc_user += user
        arena._acc_stall += stall
    else:
        for row in rows:
            i = row[0]
            row[1].record_accesses(
                n_list[i], float(fast[i]), float(user[i]), float(stall[i])
            )
    arena._fold_latency(n_vec, faults, have_faults)
    bwm = arena.kernel.machine.write_bw_multiplier
    weight = wf[:, None] * bwm[None, :]
    weight += rf[:, None]
    weight *= (n_vec * CACHE_LINE_BYTES)[:, None]
    np.sum(mass * weight, axis=0, out=arena._demand_out)

    # ---- Phase 7: policy hooks, finish checks, witness ----------------------
    hook = arena._resolve_policy_hook(arena.kernel.policy)
    if hook is not None:
        for row in rows:
            i = row[0]
            hook(row[1], refs[i], n_list[i], start_ns, quantum_ns)
    acc_n = arena._acc_n
    for row in arena._target_rows:
        i, proc, workload, pages = row
        if proc.stats.accesses + acc_n[i] >= proc.target_accesses:
            proc.finished = True
            live_mask[i] = False
            retired = True
    if engine.fusion:
        for row in rows:
            i, proc, workload, pages = row
            arena.witness_probs[i] = refs[i]
            arena.witness_epoch[i] = pages.epoch
            arena.witness_protect_epoch[i] = pages.protect_epoch
    if retired:
        arena._retire_rows()
    return arena._demand_out
