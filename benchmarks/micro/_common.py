"""Tiny shared timing harness for the micro-benchmarks.

Each micro-benchmark measures one hot path in isolation (the paths the
optimization pass in DESIGN.md targets): best-of-``repeats`` wall time
over ``loops`` iterations, reported as nanoseconds per operation.  Best
(not mean) is the standard choice for micro-benchmarks — noise is
strictly additive, so the minimum is the closest observable to the true
cost.

These are *relative* instruments: compare two commits on one machine.
Absolute numbers move with hardware and Python version, which is why CI
gates on the committed expdb rows (``python -m repro.expdb gate``), not
on these.
"""

from __future__ import annotations

import time
from typing import Callable


def best_of(fn: Callable[[], None], *, loops: int, repeats: int = 3) -> float:
    """Best wall time of ``repeats`` runs of ``loops`` calls, in ns/op."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best / loops * 1e9


def report(name: str, ns_per_op: float, **extra) -> dict:
    """A uniform result row for ``run_all`` aggregation."""
    row = {"benchmark": name, "ns_per_op": round(ns_per_op, 1)}
    row.update(extra)
    return row
