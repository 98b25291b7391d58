"""Per-subsystem wall-time profile of one run (``--profile``).

While a :class:`Profile` is installed, every entry point of
:data:`SECTIONS` is wrapped to charge its calls to the entry's row, as
*exclusive* time; leaving the ``with`` block puts every original back,
so an unprofiled run executes no profiling code at all.  Install it
after ``kernel.set_policy`` and around ``engine.run`` only: the
``policy`` row wraps the attached policy's hooks, and ``Kernel.start``
(inside ``run``) schedules the timers it times.  ``docs/HARNESS.md`` §5
describes the rows and their boundaries.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.sim.events import EventScheduler

#: row -> entry points, as ``module.Class.method`` paths.  ``policy`` is
#: resolved per run: the attached policy's overridden :data:`POLICY_HOOKS`,
#: the scanner's ``on_scan`` and every timer the policy schedules.
SECTIONS: Dict[str, Tuple[str, ...]] = {
    "engine": ("repro.harness.engine.QuantumEngine.run",),
    "arena_build": ("repro.harness.arena.ProcessArena._gather",),
    "segment_fold": ("repro.harness.arena.ProcessArena.step",),
    "fault_partition": ("repro.harness.arena.FaultPlan.draw",),
    "fault": ("repro.kernel.kernel.Kernel.deliver_faults",),
    "aging": ("repro.kernel.kernel.Kernel._aging_tick",),
    "scan_pass": ("repro.kernel.scanner.TickingScanner._scan",),
    "migrate": ("repro.kernel.migration.MigrationEngine.migrate_many",),
    "reclaim_select": ("repro.kernel.lru.LruLists.coldest_pages_two_phase",),
    "accounting": ("repro.vm.page_state.PageState.flush_accounting",),
    "dcsc_fold": ("repro.core.dcsc.DcscCollector.on_probed_fault",),
    "policy": (),
}

#: the policy hooks the ``policy`` row wraps where a policy overrides them
POLICY_HOOKS = ("on_faults", "on_fault", "on_lru_age", "on_quantum")

#: the profile's time source, read on every section entry and exit
clock = time.perf_counter_ns


def resolve(path: str) -> Tuple[type, str]:
    """``(class, method)`` of a ``module.Class.method`` entry point;
    raises unless the class itself still defines the method."""
    module, owner, attr = path.rsplit(".", 2)
    cls = getattr(importlib.import_module(module), owner)
    if attr not in vars(cls):
        raise AttributeError(f"profile entry point {path} is not defined")
    return cls, attr


def policy_hooks(policy_cls: type) -> List[Tuple[type, str]]:
    """The hooks ``policy_cls`` overrides, as ``(defining class, hook)``.

    A base-class no-op is never wrapped: the arena skips its per-row
    ``on_quantum`` loop while the hook is still the base method.
    """
    from repro.policies.base import TieringPolicy

    return [
        (next(c for c in policy_cls.__mro__ if hook in vars(c)), hook)
        for hook in POLICY_HOOKS
        if getattr(policy_cls, hook, None)
        not in (None, getattr(TieringPolicy, hook))
    ]


class Profile:
    """``with Profile(kernel): engine.run(...)``, then :meth:`report`."""

    def __init__(self, kernel: Any) -> None:
        """Profile the run of ``kernel`` (its policy already attached)."""
        self.kernel = kernel
        self.exclusive_ns: Dict[str, float] = {}
        #: section stack: [name, time of last entry/resume]
        self._stack: List[List] = []
        #: ``(owner, attribute, original)`` per installed wrapper
        self._patches: List[Tuple[Any, str, Any]] = []

    def push(self, name: str) -> None:
        """Enter a section, pausing the enclosing one."""
        now = clock()
        if self._stack:
            top = self._stack[-1]
            self.exclusive_ns[top[0]] = (
                self.exclusive_ns.get(top[0], 0.0) + (now - top[1])
            )
        self._stack.append([name, now])

    def pop(self) -> None:
        """Leave the current section, resuming the enclosing one."""
        now = clock()
        name, resumed = self._stack.pop()
        self.exclusive_ns[name] = (
            self.exclusive_ns.get(name, 0.0) + (now - resumed)
        )
        if self._stack:
            self._stack[-1][1] = now

    def report(self) -> Dict[str, Dict[str, float]]:
        """``{section: {"seconds": ..., "share": ...}}``, largest first."""
        total = sum(self.exclusive_ns.values())
        items = sorted(
            self.exclusive_ns.items(), key=lambda kv: -kv[1]
        )
        return {
            name: {
                "seconds": ns / 1e9,
                "share": ns / total if total else 0.0,
            }
            for name, ns in items
        }

    def __enter__(self) -> "Profile":
        """Install the wrappers (none when an entry point is gone)."""
        targets = [
            (*resolve(path), row)
            for row, paths in SECTIONS.items()
            for path in paths
        ]
        policy = self.kernel.policy
        if policy is not None:
            targets += [
                (owner, hook, "policy")
                for owner, hook in policy_hooks(type(policy))
            ]
            scanner = self.kernel.scanner
            if scanner is not None and scanner.on_scan is not None:
                targets.append((scanner, "on_scan", "policy"))
            schedule, timed = EventScheduler.schedule, self._timed

            def schedule_timed(scheduler, when_ns, callback, *args, **kw):
                """Schedule; time the attached policy's own timers."""
                if getattr(callback, "__self__", None) is policy:
                    callback = timed("policy", callback)
                return schedule(scheduler, when_ns, callback, *args, **kw)

            self._patch(EventScheduler, "schedule", schedule_timed)
        for owner, attr, row in targets:
            self._patch(owner, attr, self._timed(row, getattr(owner, attr)))
        return self

    def __exit__(self, *exc: Any) -> None:
        """Put every original back, also when the run raised."""
        while self._patches:
            setattr(*self._patches.pop())

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        # Targets are defined on their owners (never inherited): the
        # original goes back with one ``setattr``.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _timed(self, row: str, fn: Callable) -> Callable:
        push, pop = self.push, self.pop

        def timed(*args: Any, **kwargs: Any) -> Any:
            """Run the wrapped call as section ``row``."""
            push(row)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return timed
