"""The 50-cgroup mixed-hotness experiment setup (Section 5.1.3).

One pmbench process per cgroup, all with *random* (uniform) access pattern
and identical working sets, differentiated only by the ``delay`` parameter:
process ``i`` stalls ``i`` delay units (50 cycles each) before every access,
so cgroup-0 is the hottest tenant and cgroup-49 the coldest (the paper
measures 2.8x throughput spread under Linux-NB).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.sim.rng import RngStreams
from repro.vm.process import SimProcess
from repro.workloads.pmbench import PmbenchWorkload


def make_multitenant_processes(
    n_tenants: int = 50,
    pages_per_tenant: int = 1024,
    delay_step_units: int = 1,
    read_write_ratio: float = 0.95,
    seed: int = 0,
    n_distinct: int = 1,
    base_delay_units: int = 0,
) -> List[Tuple[SimProcess, str]]:
    """Build the tenant processes and their cgroup names.

    Returns a list of ``(process, cgroup_name)`` pairs; the caller registers
    them with the kernel (``kernel.register_process(proc, cgroup=name)``).

    ``n_distinct`` cycles the pmbench access ``stride`` across tenants
    (tenant ``i`` gets ``stride = 1 + i % n_distinct``) so the fleet
    compiles exactly ``n_distinct`` distinct distribution tables, shared
    round-robin.  The default 1 keeps the paper's setup (every tenant on
    the same uniform table); larger values build shared-table fleets
    whose tenants nonetheless diverge in placement.

    ``base_delay_units`` adds a uniform think time to every tenant on
    top of the per-tenant stagger (tenant ``i`` stalls
    ``base_delay_units + i * delay_step_units`` units per access).  A
    fleet of compute-bound tenants (``delay_step_units=0`` plus a
    nonzero base) keeps equal per-access cost while holding aggregate
    bandwidth demand below tier saturation.
    """
    if n_tenants <= 0:
        raise ValueError("need at least one tenant")
    if delay_step_units < 0:
        raise ValueError("delay step cannot be negative")
    if base_delay_units < 0:
        raise ValueError("base delay cannot be negative")
    if n_distinct < 1:
        raise ValueError("need at least one distinct distribution")
    streams = RngStreams(seed)
    tenants = []
    for i in range(n_tenants):
        workload = PmbenchWorkload(
            n_pages=pages_per_tenant,
            pattern="uniform",
            stride=1 + i % n_distinct,
            read_write_ratio=read_write_ratio,
            delay_units=base_delay_units + i * delay_step_units,
        )
        process = SimProcess(
            pid=i,
            workload=workload,
            rng=streams.spawn(f"tenant-{i}").get("access"),
            name=f"pmbench-{i}",
        )
        tenants.append((process, f"cgroup-{i}"))
    return tenants
