"""How fast is this machine right now?

The benchmark runs on a few cores of a shared host whose speed swings by
a quarter from one minute to the next, in CPU time as much as in wall
time, for minutes on end — no statistic taken inside a 20-second run
removes that.  What does: a fixed piece of pure-Python work (the
*kernel*: a few milliseconds of calls, attribute updates and short-lived
tuples, lists and objects, touching no code of the program under test)
is timed a few times before and after every algorithm run, and a round's
clock readings are divided by how much slower than :data:`REFERENCE_S`
the kernel ran during it.  Timed end-to-end metrics are therefore in
seconds *at reference speed*: the speed of the box the benchmark was
written on when nothing disturbs it.

How well the kernel follows the program was measured in 20-second
windows of alternating kernel readings and fixed pieces of work (a
serial, a staged and a live run), 27 windows: the work's median moved
10-12 % from window to window as measured and 4-5 % once divided by the
kernel's trimmed mean.  The kernel keeps nothing alive and runs with the
garbage collector off, because its time must not depend on the heap the
workload has built: a collection pass walks that whole heap, and a
kernel that held on to 20k tuples ran 1.9 times slower next to a large
fragmented heap (this one: 0.99 times).
"""

from __future__ import annotations

import gc
import time

from .stats import trimmed_mean

clock = time.perf_counter

#: The kernel's trimmed-mean time on the reference box when undisturbed.
REFERENCE_S = 0.0036

#: Kernel readings per stop (there is one stop before every algorithm
#: run and one after the last).
READINGS_PER_STOP = 6


class _Cell:
    __slots__ = ("value", "hits")

    def __init__(self) -> None:
        self.value = 0
        self.hits = 0

    def bump(self, by: int) -> int:
        self.value += by
        self.hits += 1
        return self.value


def kernel() -> int:
    total = 0
    for i in range(12000):
        pair = (i, i & 15)
        box = [pair, total]
        cell = _Cell()
        cell.bump(len(box))
        total += cell.value + pair[1]
    return total


def read_kernel(times: int = READINGS_PER_STOP) -> list[float]:
    """Time the kernel ``times`` times, collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        readings = []
        for _ in range(times):
            started = clock()
            kernel()
            readings.append(clock() - started)
        return readings
    finally:
        if collecting:
            gc.enable()


def slowdown(readings: list[float]) -> float:
    """How many times slower than the reference the box ran while
    ``readings`` were taken (1.0 = reference speed).  The mean follows
    the share of time the box spends disturbed, which is what a longer
    piece of work feels; trimming keeps one stall from moving it."""
    return trimmed_mean(readings, 0.1) / REFERENCE_S
