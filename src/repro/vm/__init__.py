"""Virtual-memory substrate.

Pages are the unit everything else operates on.  For simulation efficiency a
process's pages are kept as a numpy structure-of-arrays
(:class:`repro.vm.page_state.PageState`) rather than one object per page:
tier residency, PROT_NONE protection, scan timestamps, hardware
accessed/dirty bits, and the paper's per-page flags (``PG_probed``,
``demoted``) are all parallel arrays indexed by virtual page number, each
a segment of one machine-wide :class:`repro.vm.page_state.PageTable`.
"""

from repro.vm.address_space import VMArea, AddressSpace
from repro.vm.fault import FaultBatch, FleetFaults, NUMA_HINT_FAULT
from repro.vm.hugepage import HUGE_2MB_PAGES, aggregate_by_huge, huge_id
from repro.vm.page_state import PageState, PageTable
from repro.vm.process import ProcessStats, SimProcess

__all__ = [
    "AddressSpace",
    "FaultBatch",
    "FleetFaults",
    "HUGE_2MB_PAGES",
    "NUMA_HINT_FAULT",
    "PageState",
    "PageTable",
    "ProcessStats",
    "SimProcess",
    "VMArea",
    "aggregate_by_huge",
    "huge_id",
]
