"""Chrono: the paper's primary contribution.

* :mod:`repro.core.cit` -- Captured Idle Time: bucketing, frequency
  estimation, and the CIT metadata conventions.
* :mod:`repro.core.candidates` -- the n-round candidate filter (two
  rounds by default; Appendix B justifies the choice), its XArray-like
  set kept in two page-table fields.
* :mod:`repro.core.promotion` -- the rate-limited promotion queue, an
  array FIFO of global page indices.
* :mod:`repro.core.tuning` -- semi-automatic CIT-threshold tuning.
* :mod:`repro.core.dcsc` -- Dynamic CIT Statistic Collection: randomized
  probing, per-tier heat maps, overlap identification, and fully automatic
  threshold + rate-limit tuning; its per-page state sits in the page
  table and a time-ordered probe log finds the probes that expire.
* :mod:`repro.core.demotion` -- the promotion-aware ``pro`` watermark and
  the page-thrashing monitor.
* :mod:`repro.core.hugepage` -- huge-page threshold scaling and heat-map
  accounting.
* :mod:`repro.core.policy` -- :class:`ChronoPolicy` tying it together,
  plus the Figure 13 ablation variants.

The hooks run as fleet passes over the kernel's page table
(:class:`~repro.vm.page_state.PageTable`): one fault pass per quantum
(``ChronoPolicy.on_faults``) and one DCSC probe pass per probe tick
(``DcscCollector.probe``) handle every process at once, with each
process's heat-map counts added in process order, so the results equal
a process-by-process loop's (``tests/chrono_oracle.py``).
"""

from repro.core.candidates import CandidateFilter
from repro.core.cit import (
    CIT_BUCKETS,
    bucket_lower_bound_ns,
    bucket_upper_bound_ns,
    cit_bucket,
    cit_to_frequency_per_sec,
)
from repro.core.dcsc import DcscCollector
from repro.core.demotion import ThrashingMonitor
from repro.core.policy import ChronoPolicy, make_chrono_variant
from repro.core.promotion import PromotionQueue
from repro.core.tuning import SemiAutoTuner

__all__ = [
    "CIT_BUCKETS",
    "CandidateFilter",
    "ChronoPolicy",
    "DcscCollector",
    "PromotionQueue",
    "SemiAutoTuner",
    "ThrashingMonitor",
    "bucket_lower_bound_ns",
    "bucket_upper_bound_ns",
    "cit_bucket",
    "cit_to_frequency_per_sec",
    "make_chrono_variant",
]
