"""Host-speed probe: how fast the host runs a fixed mix of work right now.

On a shared VM the same computation's time moves with the host's load:
the level drifts by 20-55% over minutes, and faster than that by about
+-20%.  A run's host timings therefore carry the host's level along with
the program's speed.  :func:`sample` times one fixed piece of work built
from the kinds of work the simulator does -- interpreted Python with
dict and attribute traffic over many small objects (the engine's and
kernel's per-process code), NumPy on
small rows (the arena's per-class rows), NumPy passes over a million
elements (per-page passes) and batched binomial and Poisson draws (the
fault draw).  It uses only NumPy and the interpreter, never the program,
so a change to the program cannot change it.

Interleaved with the program's runs, a quarter as long as them, the
samples measure the level the runs met; :class:`HostSpeed` turns them
into a slowdown against :data:`NOMINAL_S`, by which the host timings
are divided.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

#: one sample's CPU time, in seconds, on a calm stretch of the 2-vCPU
#: Intel Xeon VM the benchmark was written on; it only sets the scale
NOMINAL_S = 0.2

#: probe time as a share of the measured work it keeps up with: the
#: faster swings average out over the probe's own time as well as over
#: the program's, so a probe far shorter than the runs adds its noise
SHARE = 0.25


class _Entry:
    __slots__ = ("count", "weight")

    def __init__(self, key: int) -> None:
        self.count = 0
        self.weight = float(key)


def _python(rng: np.random.Generator) -> None:
    keys = rng.permutation(40_000).tolist()
    table = {key: _Entry(key) for key in range(40_000)}
    total = 0.0
    for _ in range(2):
        for key in keys:
            entry = table[key]
            entry.count += 1
            total += entry.weight * 0.5


def _small_rows(rng: np.random.Generator) -> None:
    row = rng.random(512)
    index = rng.integers(0, 512, 128)
    total = 0.0
    for _ in range(8_000):
        priced = row[index] * 1.5 + 0.25
        row[index] = np.minimum(priced, 2.0)
        total += float(priced.sum()) + int(np.count_nonzero(row > 1.0))


def _page_passes(rng: np.random.Generator) -> None:
    pages = rng.random(1 << 20)
    for _ in range(2):
        draw = rng.random(pages.size)
        mass = pages * draw + 0.5
        np.argpartition(mass, 1_000)
        np.bincount((draw * 4_096).astype(np.int64), minlength=4_096)
        np.cumsum(mass)


def _fault_draws(rng: np.random.Generator) -> None:
    rates = rng.random(65_536) * 0.1
    for _ in range(6):
        rng.binomial(100, rates).sum()
        rng.poisson(rates * 50).sum()


def sample() -> Tuple[float, float]:
    """Run the fixed work once; ``(wall seconds, thread CPU seconds)``."""
    rng = np.random.default_rng(0)
    wall = time.perf_counter()
    cpu = time.thread_time()
    for work in (_python, _small_rows, _page_passes, _fault_draws):
        work(rng)
    return time.perf_counter() - wall, time.thread_time() - cpu


@dataclass
class HostSpeed:
    """Samples taken between a benchmark's runs, and the slowdown they
    read against :data:`NOMINAL_S` on each clock (1.0: nominal speed)."""

    samples: List[Tuple[float, float]] = field(default_factory=list)
    measured_s: float = 0.0

    def keep_up(self, seconds: float) -> None:
        """Count ``seconds`` of measured work, then sample until the
        samples' wall time reaches :data:`SHARE` of all work counted."""
        self.measured_s += seconds
        while sum(wall for wall, _ in self.samples) < SHARE * self.measured_s:
            self.samples.append(sample())

    def slowdown(self) -> Tuple[float, float]:
        """``(wall, cpu)`` slowdown: the samples' mean time / nominal."""
        n = len(self.samples) * NOMINAL_S
        return (
            sum(wall for wall, _ in self.samples) / n,
            sum(cpu for _, cpu in self.samples) / n,
        )
