"""The arena's test oracles: a per-segment step that recomputes
everything every quantum, a process-by-process fusion-horizon loop, and
a segment-by-segment fault resolve and delivery.

``step_reference(arena, start_ns, quantum_ns)`` executes one
(macro-)quantum of a :class:`repro.harness.arena.ProcessArena` the
straightforward way: a Python gather loop that advances every row and
checks its placement epoch and kernel debt, a full pricing fold over all
segments, the arena's fault phase, and a full recompute of the ledger,
stat, latency and demand folds.  No per-segment vector of the page
table, row calendar or steady-state cache is consulted.

:meth:`ProcessArena.step` must reproduce this function bit for bit on
every fleet, one process included.  Tests install it in place of the
production step::

    monkeypatch.setattr(ProcessArena, "step", step_reference)

``fusion_horizon_reference(engine, start_ns, end_ns, next_observe_ns,
max_fuse)`` computes the fusion width with one loop over every live
process -- witness, debt, a fresh ``stable_until_ns`` call,
distribution identity after ``advance`` and access target in turn --
where the engine answers the witness, debt and stability bounds from
the arena's cells and row calendar and checks only target rows.  The
two widths must be equal at every step on any fleet whose workloads
swap their distribution object at every phase edge they report (at an
edge that keeps the object, the loop fuses across it where the
calendar ends the window).

``resolve_reference(plan, touched, n_vec, faults, start_ns,
quantum_ns)`` is the fault plan's resolve and delivery done segment by
segment: each faulting segment's CIT, unprotect and accessed bits are
taken just before its own one-process delivery, so each policy hook
runs before the next segment is resolved.  Production resolves every
segment in one pass and delivers the fleet's faults in one call; the
fault-hook contract of ``TieringPolicy`` says the two must agree.
Tests install it in place of the production resolve::

    monkeypatch.setattr(FaultPlan, "_resolve", resolve_reference)

This module is not collected by pytest (its name does not match
``test_*.py``); it is imported by the tests that use it.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional

import numpy as np

from repro.mem.machine import CACHE_LINE_BYTES
from repro.mem.tier import FAST_TIER
from repro.vm.fault import FaultBatch, FleetFaults, first_access_offsets


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

    # ---- Phase 3: fault draw ------------------------------------------------
    faults = arena._faults
    have_faults = arena._fault_phase(start_ns, quantum_ns)

    # ---- Phases 4-6: ledger, stats, latency, demand -------------------------
    arena.open_n += n_vec
    mass = arena.mass
    fast = mass[:, FAST_TIER] * n_vec
    user = n_vec * mean_lat
    stall = n_vec * delay
    arena._acc_n += n_vec
    arena._acc_fast += fast
    arena._acc_user += user
    arena._acc_stall += stall
    arena._fold_latency(n_vec, faults, have_faults)
    bwm = arena.kernel.machine.write_bw_multiplier
    weight = wf[:, None] * bwm[None, :]
    weight += rf[:, None]
    weight *= (n_vec * CACHE_LINE_BYTES)[:, None]
    np.sum(mass * weight, axis=0, out=arena._demand_out)

    # ---- Phase 7: policy hooks, finish checks, witness ----------------------
    hook = arena._resolve_policy_hook(arena.kernel.policy)
    if hook is not None:
        n_list = n_vec.tolist()
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
            arena.witness_epochs[0, i] = pages.epoch
            arena.witness_epochs[1, i] = pages.protect_epoch
    if retired:
        arena._retire_rows()
    return arena._demand_out


def fusion_horizon_reference(
    engine,
    start_ns: int,
    end_ns: int,
    next_observe_ns: Optional[int],
    max_fuse: Optional[int],
) -> int:
    """The fusion width, checked process by process (``>= 1``).

    A process's witness is its segment's epoch columns and distribution
    reference, and its access count includes the arena's unflushed
    accesses.
    """
    q = engine.quantum_ns
    n = (end_ns - start_ns) // q
    if n <= 1:
        return 1
    for at in (engine.kernel.next_event_ns(), next_observe_ns):
        if at is not None:
            if at <= start_ns:
                return 1
            n = min(n, -(-(at - start_ns) // q))
    if max_fuse is not None:
        n = min(n, int(max_fuse))
    if n <= 1:
        return 1
    arena = engine._arena
    processes = engine.kernel.processes
    if arena is None or arena.processes != processes:
        return 1
    for index, process in enumerate(processes):
        if process.finished:
            continue
        probs = arena.probs_refs[index]
        epoch, protect_epoch = arena.witness_epochs[:, index]
        unflushed = arena._acc_n[index]
        pages = process.pages
        if epoch != pages.epoch or protect_epoch != pages.protect_epoch:
            return 1
        debt = process.pending_kernel_ns
        if debt > 0.0:
            stall_quanta = int(debt // q)
            if stall_quanta < 1:
                return 1
            n = min(n, stall_quanta)
        workload = process.workload
        stable_fn = getattr(workload, "stable_until_ns", None)
        stable = start_ns if stable_fn is None else stable_fn(start_ns)
        if stable is not None:
            if stable <= start_ns:
                return 1
            n = min(n, -(-(stable - start_ns) // q))
        workload.advance(start_ns)
        if workload.access_distribution() is not probs:
            return 1
        if process.target_accesses is not None:
            remaining = process.target_accesses - (
                process.stats.accesses + unflushed
            )
            if remaining > 0:
                cap = q / (
                    engine._min_access_cost_ns(workload.write_fraction)
                    + workload.delay_ns_per_access
                )
                n = min(n, max(1, math.ceil(remaining / cap)))
        if n <= 1:
            return 1
    return int(n)


def resolve_reference(
    plan,
    touched: np.ndarray,
    n_vec: np.ndarray,
    faults: np.ndarray,
    start_ns: int,
    quantum_ns: int,
) -> None:
    """Fault offsets for every touched page in one pass, then one
    one-process delivery per segment in ascending order, each segment
    resolved just before its own delivery."""
    seg_starts = plan.seg_starts
    seg = np.searchsorted(seg_starts, touched, side="right") - 1
    rates = n_vec[seg] * plan.arena.concat_probs[touched] / quantum_ns
    offsets = first_access_offsets(
        plan.rng.random(touched.size), rates, quantum_ns
    )
    offsets += start_ns
    all_vpns = touched - seg_starts[seg]
    bounds = np.flatnonzero(seg[1:] != seg[:-1]) + 1
    starts = np.r_[0, bounds]
    seen = plan.seen
    deliver = plan.arena.kernel.deliver_faults
    for i, a, b in zip(
        seg[starts].tolist(),
        starts.tolist(),
        np.r_[bounds, seg.size].tolist(),
    ):
        proc = plan.processes[i]
        pages = proc.pages
        vpns = all_vpns[a:b]
        fault_ts = offsets[a:b]
        scan_ts = pages.scan_ts_ns[vpns]
        cit = fault_ts - scan_ts
        cit[scan_ts < 0] = -1  # never stamped: no CIT
        # A segment untouched since the drain stays drained.
        clean = pages.protect_epoch == seen[i]
        pages.unprotect_resolved(vpns)
        if clean:
            seen[i] = pages.protect_epoch
        pages.accessed[vpns] = True
        deliver(
            FleetFaults.single(
                proc, FaultBatch(proc.pid, vpns, fault_ts, cit)
            )
        )
        faults[i] = b - a
