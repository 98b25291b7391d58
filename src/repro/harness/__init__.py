"""Experiment harness: the quantum engine, run configs, and reporting.

* :mod:`repro.harness.engine` -- advances every process through fixed
  wall-clock quanta, generating batched accesses, hint faults, and latency
  accounting, while kernel daemons (scans, reclaim, tuning) fire from the
  timer queue.
* :mod:`repro.harness.runner` -- one-call experiment runner producing a
  :class:`RunResult` with every metric the paper's figures need.
* :mod:`repro.harness.sweep` -- declarative experiment cells with
  warm-worker-pool fan-out (``run_cells(cells, jobs=N)``) and streamed
  results (``iter_cells``).
* :mod:`repro.harness.shm` -- zero-copy shared-memory transport for
  compiled workload tables between the sweep parent and its workers.
* :mod:`repro.harness.cache` -- on-disk result cache keyed by a content
  hash of (cell description, code version), plus per-cell wall-time
  history for the adaptive scheduler.
* :mod:`repro.harness.reporting` -- plain-text tables in the shape of the
  paper's figures.
"""

from repro.harness.cache import ResultCache
from repro.harness.engine import QuantumEngine
from repro.harness.runner import (
    RunConfig,
    RunResult,
    RunSummary,
    run_experiment,
)
from repro.harness.sweep import (
    CellResult,
    SweepCell,
    default_jobs,
    iter_cells,
    run_cell,
    run_cells,
)

__all__ = [
    "CellResult",
    "QuantumEngine",
    "ResultCache",
    "RunConfig",
    "RunResult",
    "RunSummary",
    "SweepCell",
    "default_jobs",
    "iter_cells",
    "run_cell",
    "run_cells",
    "run_experiment",
]
