"""Chrono's process-by-process hooks: the oracle of its fleet passes.

``ChronoPolicy.on_faults`` handles a quantum's faults of the whole
fleet in one pass, ``DcscCollector.probe`` probes every live process in
one pass, and ``PromotionQueue`` is an array FIFO.  Kept here are the
forms they replaced, which handle one process at a time:

* :func:`chrono_on_fault` -- one process's faults: DCSC's two rounds,
  thrash detection, the candidate filter (huge-page mode included) and
  the enqueue; :func:`on_faults` calls it per faulting process, in
  segment order;
* :func:`probe_tick` -- a probe tick that calls
  :meth:`DcscCollector.probe_process` per live process, each expiring
  its own stale probes by a scan of the process's pages first;
* :class:`DcscCollector`, :class:`CandidateFilter` and
  :class:`PromotionQueue` -- per-process arrays of DCSC rounds, first
  CITs and probe times, per-process filter passes and running maxima,
  and a queue keyed by ``(pid, vpn)`` in an ``OrderedDict``.

The oracle keeps its state in those per-process arrays: it marks the
page table's ``probed`` and ``candidate`` fields 1 or 0 where the fleet
passes store a round count there, and compares them with ``!= 0``.
:func:`install` swaps the whole oracle into ``ChronoPolicy``;
``tests/test_chrono_fleet.py`` holds the fleet passes to it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core import dcsc as dcsc_module
from repro.core import policy as policy_module
from repro.core.cit import cit_bucket
from repro.core.hugepage import scaled_threshold_ns
from repro.mem.tier import FAST_TIER, SLOW_TIER
from repro.vm.hugepage import base_vpns_of


class DcscCollector(dcsc_module.DcscCollector):
    """DCSC with per-process round, first-CIT and probe-time arrays."""

    def __init__(self, config, rng) -> None:
        super().__init__(config, rng)
        self._round: Dict[int, np.ndarray] = {}
        self._first_cit: Dict[int, np.ndarray] = {}
        self._probe_ts: Dict[int, np.ndarray] = {}

    def _arrays(self, process):
        pid = process.pid
        if pid not in self._round:
            self._round[pid] = np.zeros(process.n_pages, dtype=np.int8)
            self._first_cit[pid] = np.zeros(process.n_pages, dtype=np.int64)
            self._probe_ts[pid] = np.zeros(process.n_pages, dtype=np.int64)
        return self._round[pid], self._first_cit[pid], self._probe_ts[pid]

    def probe_process(self, process, now_ns: int) -> int:
        rounds, _, probe_ts = self._arrays(process)
        self._expire_stale(process, now_ns)
        k = max(
            self.config.min_victims_per_process,
            int(round(self.config.victim_fraction * process.n_pages)),
        )
        k = min(k, process.n_pages)
        victims = self._rng.choice(process.n_pages, size=k, replace=False)
        victims = victims[process.pages.probed[victims] == 0]
        if victims.size == 0:
            return 0
        victims.sort()
        process.pages.probed[victims] = 1
        rounds[victims] = 1
        probe_ts[victims] = now_ns
        process.pages.protect_at(
            victims, np.full(victims.size, now_ns, dtype=np.int64)
        )
        self.probes_issued += int(victims.size)
        if self.obs is not None:
            self.obs.inc("dcsc.probes", int(victims.size))
            self.obs.emit(
                "dcsc.probe",
                now_ns,
                pid=process.pid,
                n_probed=int(victims.size),
            )
        return int(victims.size)

    def _expire_stale(self, process, now_ns: int) -> None:
        rounds, _, probe_ts = self._arrays(process)
        stale = np.flatnonzero(
            (process.pages.probed != 0)
            & (now_ns - probe_ts > self.config.probe_timeout_ns)
        )
        if stale.size == 0:
            return
        for tier in (FAST_TIER, SLOW_TIER):
            count = int(np.count_nonzero(process.pages.tier[stale] == tier))
            if count:
                self.heat_maps[tier][-1] += count
                self.samples_recorded += count
        process.pages.probed[stale] = 0
        process.pages.unprotect(stale)
        rounds[stale] = 0
        if self.obs is not None:
            self.obs.inc("dcsc.expired", int(stale.size))

    def on_probed_fault(self, process, vpns, cit_ns, fault_ts_ns, quantum_ns):
        rounds, first_cit, _ = self._arrays(process)
        vpns = np.asarray(vpns, dtype=np.int64)
        cit_ns = np.asarray(cit_ns, dtype=np.int64)
        fault_ts_ns = np.asarray(fault_ts_ns, dtype=np.int64)
        in_round1 = rounds[vpns] == 1
        in_round2 = rounds[vpns] == 2
        round1 = vpns[in_round1]
        if round1.size:
            first_cit[round1] = cit_ns[in_round1]
            rounds[round1] = 2
            q = quantum_ns
            restart_ts = (fault_ts_ns[in_round1] // q + 1) * q
            process.pages.protect_at(round1, restart_ts)
        round2 = vpns[in_round2]
        if round2.size:
            max_cit = np.maximum(first_cit[round2], cit_ns[in_round2])
            buckets = cit_bucket(
                max_cit, self.config.n_buckets, self.config.cit_unit_ns
            )
            counts = dcsc_module.dcsc_fold(
                process.pages.tier[round2],
                buckets,
                max(FAST_TIER, SLOW_TIER) + 1,
                self.config.n_buckets,
            )
            for tier in (FAST_TIER, SLOW_TIER):
                tier_counts = counts[tier]
                if tier_counts.any():
                    self.heat_maps[tier] += tier_counts
            self.samples_recorded += float(round2.size)
            rounds[round2] = 0
            process.pages.probed[round2] = 0
            if self.obs is not None:
                self.obs.inc("dcsc.samples", int(round2.size))
                self.obs.emit(
                    "cit.sample",
                    int(fault_ts_ns[in_round2].max()),
                    pid=process.pid,
                    vpns=round2,
                    cit_ns=max_cit,
                    tiers=process.pages.tier[round2],
                )

    def state(self, process) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(round, round-one CIT, probe time)`` per page: the CIT and
        time only where they are live (zero elsewhere)."""
        rounds, first_cit, probe_ts = self._arrays(process)
        return (
            rounds.copy(),
            np.where(rounds == 2, first_cit, 0),
            np.where(rounds > 0, probe_ts, 0),
        )


@dataclass
class FilterResult:
    ready_vpns: np.ndarray
    new_candidates: int
    rejected: int


class CandidateFilter:
    """The n-round filter with per-process pass and running-max arrays."""

    def __init__(self, n_rounds: int = 2, granularity_pages: int = 1) -> None:
        self.n_rounds = int(n_rounds)
        self.granularity_pages = int(granularity_pages)
        self._passes: Dict[int, np.ndarray] = {}
        self._max_cit: Dict[int, np.ndarray] = {}

    def _tracks_pages(self) -> bool:
        return self.granularity_pages == 1

    def _arrays(self, process):
        if process.pid not in self._passes:
            slots = -(-process.n_pages // self.granularity_pages)
            self._passes[process.pid] = np.zeros(slots, dtype=np.int8)
            self._max_cit[process.pid] = np.zeros(slots, dtype=np.int64)
        return self._passes[process.pid], self._max_cit[process.pid]

    def observe(self, process, vpns, cit_ns, threshold_ns) -> FilterResult:
        vpns = np.asarray(vpns, dtype=np.int64)
        cit_ns = np.asarray(cit_ns, dtype=np.int64)
        passes, max_cit = self._arrays(process)
        pages = process.pages
        below = cit_ns < threshold_ns
        passing = vpns[below]
        failing = vpns[~below]
        new_candidates = int(np.count_nonzero(passes[passing] == 0))
        rejected = int(np.count_nonzero(passes[failing] > 0))
        passes[failing] = 0
        max_cit[failing] = 0
        if self._tracks_pages():
            pages.candidate[failing] = 0
        passes[passing] += 1
        np.maximum.at(max_cit, passing, cit_ns[below])
        if self._tracks_pages():
            pages.candidate[passing] = 1
            pages.candidate_cit_ns[passing] = max_cit[passing]
        done = passing[passes[passing] >= self.n_rounds]
        passes[done] = 0
        max_cit[done] = 0
        if self._tracks_pages():
            pages.candidate[done] = 0
        return FilterResult(done, new_candidates, rejected)

    def candidate_count(self, process) -> int:
        passes, _ = self._arrays(process)
        return int(np.count_nonzero(passes))

    def state(self, process) -> Tuple[np.ndarray, np.ndarray]:
        """``(passes, running max)`` per slot."""
        passes, max_cit = self._arrays(process)
        return passes.copy(), max_cit.copy()


class PromotionQueue:
    """The FIFO promotion queue as an ``OrderedDict`` keyed per page."""

    def __init__(self, rate_limit_pages_per_sec: float) -> None:
        self.rate_limit_pages_per_sec = float(rate_limit_pages_per_sec)
        self._queue: "OrderedDict[Tuple[int, int], object]" = OrderedDict()
        self.enqueued_total = 0
        self.dequeued_total = 0
        self._enqueued_window = 0
        self._budget_carry = 0.0

    def __len__(self) -> int:
        return len(self._queue)

    def set_rate_limit(self, pages_per_sec: float) -> None:
        self.rate_limit_pages_per_sec = float(pages_per_sec)

    def enqueue(self, process, vpns) -> int:
        vpns = np.asarray(vpns, dtype=np.int64)
        added = 0
        for vpn in vpns:
            key = (process.pid, int(vpn))
            if key in self._queue:
                continue
            self._queue[key] = process
            added += 1
        self.enqueued_total += added
        self._enqueued_window += int(vpns.size)
        return added

    def drain(self, elapsed_ns: int):
        budget = (
            self.rate_limit_pages_per_sec * (elapsed_ns / 1e9)
            + self._budget_carry
        )
        take = min(int(budget), len(self._queue))
        self._budget_carry = budget - take if take < len(self._queue) else 0.0
        batches: Dict[int, Tuple[object, List[int]]] = {}
        order: List[int] = []
        for _ in range(take):
            (pid, vpn), process = self._queue.popitem(last=False)
            if pid not in batches:
                batches[pid] = (process, [])
                order.append(pid)
            batches[pid][1].append(vpn)
        self.dequeued_total += take
        return [
            (batches[pid][0], np.array(batches[pid][1], dtype=np.int64))
            for pid in order
        ]

    def enqueue_rate_per_sec(self, window_ns: int) -> float:
        rate = self._enqueued_window / (window_ns / 1e9)
        self._enqueued_window = 0
        return rate

    def contents(self) -> List[Tuple[int, int]]:
        """The queued ``(pid, vpn)`` pairs, oldest first."""
        return list(self._queue)


# ---------------------------------------------------------------------------
# The hooks, one process at a time
# ---------------------------------------------------------------------------
def on_faults(policy, faults) -> None:
    """Each faulting process's batch to :func:`chrono_on_fault`, in
    segment order."""
    for process, batch in faults.batches():
        chrono_on_fault(policy, process, batch)


def chrono_on_fault(policy, process, batch) -> None:
    kernel = policy._require_kernel()
    pages = process.pages
    vpns = batch.vpns
    cits = batch.cit_ns
    probed = pages.probed[vpns] != 0
    if probed.any():
        if policy.dcsc is not None:
            policy.dcsc.on_probed_fault(
                process,
                vpns[probed],
                cits[probed],
                batch.fault_ts_ns[probed],
                kernel.quantum_ns,
            )
        regular = ~probed
        vpns = vpns[regular]
        cits = cits[regular]
    slow_sel = pages.tier[vpns] == SLOW_TIER
    vpns = vpns[slow_sel]
    cits = cits[slow_sel]
    if vpns.size == 0:
        return
    now = kernel.clock.now
    thrashing = (
        pages.demoted[vpns]
        & (now - pages.demote_ts_ns[vpns] < policy.scan_period_ns)
        & (cits >= 0)
        & (cits < policy.cit_threshold_ns)
    )
    n_thrash = int(np.count_nonzero(thrashing))
    if n_thrash:
        policy.monitor.record_thrash(n_thrash)
        kernel.stats.thrash_events += n_thrash
        process.stats.thrash_events += n_thrash
        if kernel.obs is not None:
            kernel.obs.inc("thrash.events", n_thrash)
            kernel.obs.emit(
                "thrash.detect",
                now,
                pid=process.pid,
                n_pages=n_thrash,
                vpns=vpns[thrashing],
            )
        pages.demoted[vpns[thrashing]] = False
    if policy.page_granularity == "huge":
        observe_huge(policy, process, vpns, cits)
    else:
        result = policy.filter.observe(
            process, vpns, cits, int(policy.cit_threshold_ns)
        )
        submit(policy, process, result.ready_vpns)


def observe_huge(policy, process, vpns, cits) -> None:
    groups = vpns // policy.hp_pages
    order = np.argsort(cits)
    unique_groups, first_idx = np.unique(groups[order], return_index=True)
    group_cits = cits[order][first_idx]
    threshold = scaled_threshold_ns(policy.cit_threshold_ns, policy.hp_pages)
    result = policy.filter.observe(
        process, unique_groups, group_cits, max(int(threshold), 1)
    )
    if result.ready_vpns.size == 0:
        return
    base = base_vpns_of(result.ready_vpns, process.n_pages, policy.hp_pages)
    base = base[process.pages.tier[base] == SLOW_TIER]
    submit(policy, process, base)


def submit(policy, process, ready_vpns) -> None:
    if ready_vpns.size == 0:
        return
    kernel = policy._require_kernel()
    added = policy.queue.enqueue(process, ready_vpns)
    kernel.stats.promotion_enqueued += added
    obs = kernel.obs
    if obs is not None:
        obs.inc("promotion.submitted", int(ready_vpns.size))
        obs.inc("promotion.enqueued", added)
        obs.set_gauge("promotion.queue_depth", len(policy.queue))
        obs.emit(
            "promotion.decision",
            kernel.clock.now,
            pid=process.pid,
            n_submitted=int(ready_vpns.size),
            n_enqueued=added,
            queue_depth=len(policy.queue),
            vpns=ready_vpns,
        )


def probe_tick(policy, now_ns: int) -> None:
    """A DCSC probe tick, one ``probe_process`` per live process."""
    kernel = policy._require_kernel()
    policy.dcsc.decay_maps()
    for process in kernel.processes:
        if process.finished:
            continue
        probed = policy.dcsc.probe_process(process, kernel.clock.now)
        if probed:
            cost = probed * kernel.machine.spec.effective_scan_cost_ns
            process.charge_kernel(cost)
            kernel.stats.kernel_time_ns += cost
            kernel.stats.dcsc_probes += probed
    kernel.scheduler.schedule(
        now_ns + policy.dcsc_config.probe_period_ns,
        policy._probe_tick,
        name="chrono-dcsc",
    )


def _filter_for(policy) -> CandidateFilter:
    huge = policy.page_granularity == "huge"
    return CandidateFilter(
        policy.filter.n_rounds, policy.hp_pages if huge else 1
    )


def install(patch) -> None:
    """Swap the oracle into ``ChronoPolicy`` (``patch`` is a
    ``monkeypatch`` context): policies built afterwards run it."""
    patch.setattr(policy_module, "DcscCollector", DcscCollector)
    patch.setattr(policy_module, "PromotionQueue", PromotionQueue)
    cls = policy_module.ChronoPolicy
    init = cls.__init__

    def oracle_init(policy, *args, **kwargs):
        init(policy, *args, **kwargs)
        policy.filter = _filter_for(policy)

    patch.setattr(cls, "__init__", oracle_init)
    patch.setattr(cls, "on_faults", on_faults)
    patch.setattr(cls, "on_fault", chrono_on_fault)
    patch.setattr(cls, "_probe_tick", probe_tick)


def use_oracle(policy) -> None:
    """Swap the oracle's collector, filter and queue into an attached
    ``policy`` (their state is empty), keeping its DCSC stream: drive it
    with :func:`on_faults` and :func:`probe_tick` from then on."""
    if policy.dcsc is not None:
        fresh = DcscCollector(policy.dcsc.config, policy.dcsc._rng)
        fresh.obs = policy.dcsc.obs
        policy.dcsc = fresh
    policy.filter = _filter_for(policy)
    policy.queue = PromotionQueue(policy.queue.rate_limit_pages_per_sec)
