"""Fleet traffic generator: millions of users on the arena fast path.

Chrono's Section 5.1.3 fleet is 50 identical tenants; real multi-tenant
memory pressure comes from *skewed* fleets -- a few huge tenants, a long
tail of small ones, load that breathes with the time of day, tenants
arriving and leaving mid-run.  This module maps ``n_users`` simulated
users onto ``n_tenants`` processes with exactly that structure, while
keeping every tenant on the batched arena/fusion fast path:

* **Zipf tenant popularity** -- tenant ``i`` serves a user share
  proportional to ``(i+1) ** -zipf_s``, so a 1024-tenant fleet carries a
  realistic heavy tail.
* **Diurnal load curves + arrival processes** -- each tenant samples a
  peak-hour phase; its user load is modulated by a sinusoidal diurnal
  factor, and the combined load maps onto per-tenant ``delay_units``
  (more load per tenant => less think time per access).
* **Delay bucketing** -- per-tenant delays are quantized onto a small
  geometric ladder, so the fleet carries a few load levels instead of
  1024 distinct think times.
* **Shared pattern tables** -- the ``n_patterns`` page-popularity tables
  are built once under :func:`~repro.workloads.base.cached_tables`; all
  tenants on a pattern present one frozen array identity.
* **Tenant churn** -- a slice of tenants exits mid-run via
  ``target_accesses`` (the arena retires their segments) and another
  slice spawns mid-run as a zero-traffic lead-in phase followed by its
  pattern (mid-run registration is not supported; an idle lead-in
  models the arrival without breaking upfront placement).
* **Scripted phase shifts** -- a slice of tenants cycles two pattern
  tables on long, honest ``stable_until_ns`` horizons, so quantum
  fusion still engages *within* phases.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.rng import RngStreams
from repro.sim.timeunits import MINUTE
from repro.vm.process import SimProcess
from repro.workloads.base import TraceWorkload, cached_tables, table_key
from repro.workloads.compile import StationaryTableWorkload
from repro.workloads.pmbench import DELAY_UNIT_NS

#: default diurnal period (a scaled "day"; runs shorter than this see a
#: frozen slice of the curve, which is the realistic regime)
DEFAULT_PERIOD_NS = 10 * MINUTE

#: Zipf exponent over page ranks inside one pattern table
PATTERN_ALPHA = 1.2


def pattern_table(
    n_pages: int, pattern: int, n_patterns: int
) -> np.ndarray:
    """One shared page-popularity table (frozen, cache-interned).

    Pattern ``p`` is a Zipf-ranked popularity rolled by ``p/n_patterns``
    of the page range, so distinct patterns hit distinct hot sets.  All
    callers with the same parameters receive the *same* frozen array.
    """
    key = table_key(
        "tracegen-pattern",
        n_pages=int(n_pages),
        pattern=int(pattern) % max(int(n_patterns), 1),
        n_patterns=int(n_patterns),
        alpha=PATTERN_ALPHA,
    )

    def build():
        ranks = np.arange(1, n_pages + 1, dtype=np.float64)
        weights = np.roll(
            ranks ** -PATTERN_ALPHA,
            (int(pattern) * n_pages) // max(int(n_patterns), 1),
        )
        return {"probs": weights / weights.sum()}

    return cached_tables(key, build)["probs"]


def tenant_user_shares(n_tenants: int, zipf_s: float) -> np.ndarray:
    """Zipf user-share vector over tenants (sums to 1)."""
    if n_tenants <= 0:
        raise ValueError("need at least one tenant")
    weights = np.arange(1, n_tenants + 1, dtype=np.float64) ** -float(
        zipf_s
    )
    return weights / weights.sum()


def make_traffic_processes(
    n_tenants: int = 256,
    n_users: int = 1_000_000,
    pages_per_tenant: int = 1024,
    n_patterns: int = 8,
    zipf_s: float = 1.1,
    base_delay_units: int = 200,
    n_delay_buckets: int = 8,
    diurnal_amplitude: float = 0.5,
    period_ns: int = DEFAULT_PERIOD_NS,
    churn_fraction: float = 0.0,
    phase_shift_fraction: float = 0.0,
    phase_len_ns: Optional[int] = None,
    duration_ns: int = DEFAULT_PERIOD_NS,
    write_fraction: float = 0.05,
    seed: int = 0,
    obs=None,
) -> List[SimProcess]:
    """Build the traffic fleet as engine-ready processes.

    Tenant ``i`` serves ``n_users * share_i`` users (Zipf over tenant
    rank), modulated by a per-tenant diurnal factor sampled from its
    arrival phase; the resulting load maps onto a geometric
    ``delay_units`` ladder (hotter tenant => shorter think time) with
    ``n_delay_buckets`` rungs so load levels stay coarse.  A
    ``churn_fraction`` slice of tenants churns -- half exit mid-run via
    ``target_accesses``, half spawn mid-run via an idle lead-in phase --
    and a ``phase_shift_fraction`` slice cycles two pattern tables every
    ``phase_len_ns`` (default: a quarter of ``duration_ns``).  With both
    fractions at 0 every tenant is stationary.
    """
    if n_users <= 0:
        raise ValueError("need at least one user")
    if not 0 <= churn_fraction <= 1:
        raise ValueError("churn fraction must be in [0, 1]")
    if not 0 <= phase_shift_fraction <= 1:
        raise ValueError("phase-shift fraction must be in [0, 1]")
    if churn_fraction + phase_shift_fraction > 1:
        raise ValueError("churn + phase-shift fractions exceed the fleet")
    if base_delay_units < 1 or n_delay_buckets < 1:
        raise ValueError("delay ladder parameters must be positive")
    if duration_ns <= 0 or period_ns <= 0:
        raise ValueError("durations must be positive")

    streams = RngStreams(seed)
    fleet_rng = streams.spawn("traffic-fleet").get("roles")

    shares = tenant_user_shares(n_tenants, zipf_s)
    # Arrival process: each tenant's position in the diurnal cycle at
    # run start, i.e. where in the "day" its user base peaks.
    peak_phase = fleet_rng.random(n_tenants)
    diurnal = 1.0 + float(diurnal_amplitude) * np.sin(
        2.0 * np.pi * peak_phase
    )
    load = shares * n_users * np.maximum(diurnal, 1e-3)

    # Geometric delay ladder: hotter tenants think less per access.
    rel = load / load.max()
    bucket = np.clip(
        np.round(-np.log2(rel)), 0, n_delay_buckets - 1
    ).astype(int)
    delay_units = (int(base_delay_units) * (2 ** bucket)).astype(np.int64)

    # Role assignment: spread churners/shifters across the popularity
    # curve instead of concentrating them in the head.
    order = fleet_rng.permutation(n_tenants)
    n_shift = int(round(phase_shift_fraction * n_tenants))
    n_churn = int(round(churn_fraction * n_tenants))
    shifters = set(order[:n_shift].tolist())
    churners = order[n_shift:n_shift + n_churn].tolist()
    exiters = set(churners[: len(churners) // 2])
    spawners = set(churners[len(churners) // 2:])

    if phase_len_ns is None:
        phase_len_ns = max(duration_ns // 4, 1)

    processes: List[SimProcess] = []
    for i in range(n_tenants):
        pattern = i % max(n_patterns, 1)
        table = pattern_table(pages_per_tenant, pattern, n_patterns)
        delay_ns = float(delay_units[i]) * DELAY_UNIT_NS
        tenant_rng = streams.spawn(f"traffic-{i}")
        if i in shifters:
            # Scripted phase shift between two pattern tables, long
            # honest horizons so fusion engages within each phase.
            other = pattern_table(
                pages_per_tenant, pattern + 1, n_patterns
            )
            workload = TraceWorkload(
                [(int(phase_len_ns), table), (int(phase_len_ns), other)],
                write_fraction=write_fraction,
                delay_ns_per_access=delay_ns,
                assume_normalized=True,
            )
        elif i in spawners:
            # Mid-run arrival: idle until the arrival instant, then the
            # pattern table for far longer than any run (no wraparound).
            arrival = int(
                (0.1 + 0.4 * tenant_rng.get("arrival").random())
                * duration_ns
            )
            workload = TraceWorkload(
                [
                    (max(arrival, 1),
                     np.zeros(pages_per_tenant, dtype=np.float64)),
                    (16 * int(duration_ns), table),
                ],
                write_fraction=write_fraction,
                delay_ns_per_access=delay_ns,
                assume_normalized=True,
            )
        else:
            workload = StationaryTableWorkload(
                table,
                write_fraction=write_fraction,
                delay_ns_per_access=delay_ns,
            )
        process = SimProcess(
            pid=i,
            workload=workload,
            rng=tenant_rng.get("access"),
            name=f"tenant-{i}",
        )
        if i in exiters:
            # Exit mid-run: budget enough accesses to reach a uniform
            # random instant in the middle half of the run, estimated
            # from the tenant's dominant per-access cost (think time
            # plus a nominal memory latency).
            exit_at = (
                0.25 + 0.5 * tenant_rng.get("exit").random()
            ) * duration_ns
            process.target_accesses = max(
                1.0, exit_at / (delay_ns + 100.0)
            )
        processes.append(process)

    if obs is not None:
        obs.emit(
            "tracegen.fleet",
            0,
            n_tenants=int(n_tenants),
            n_users=int(n_users),
            n_patterns=int(n_patterns),
            n_churn=int(n_churn),
            n_shifting=int(n_shift),
        )
        obs.set_gauge("tracegen.tenants", float(n_tenants))
        obs.set_gauge("tracegen.users", float(n_users))
        obs.set_gauge("tracegen.patterns", float(n_patterns))
        obs.set_gauge("tracegen.churn_tenants", float(n_churn))
    return processes
