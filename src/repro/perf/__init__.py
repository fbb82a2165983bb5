"""Opt-in performance instrumentation: named counters and wall timers.

The simulator's hot paths (hashing, routing, table maintenance, query
rewriting) are exactly the places where ``print``-style ad-hoc probing
distorts what it measures.  This module gives them a shared, very cheap
alternative:

* ``PERF.count("vlqt.evicted", n)`` — bump a named counter;
* ``with PERF.timer("evict"): ...`` — accumulate wall time and calls;
* ``PERF.snapshot()`` — a plain dict for reports / JSON.

Instrumentation is **disabled by default** and enabled with the
``REPRO_PERF=1`` environment variable (read at import; flip at runtime
with :meth:`PerfRegistry.enable`).  Disabled, the cost at an
instrumented site is one attribute load and a branch
(``if PERF.enabled:``) — no allocation, no dict access, no timestamps —
so permanent probes in hot loops are fine.

An enabled registry also accounts for the cycle collector — one
``gc.callbacks`` hook, installed by :meth:`PerfRegistry.enable` and
removed by :meth:`PerfRegistry.disable`, feeds ``gc.collections.gen0|
gen1|gen2`` and ``gc.unreachable`` counters and a ``gc.pause`` timer —
because no span or profiler can: a collection pause is booked to
whichever frame happens to be open.

The registry is deliberately process-local.  Sweep workers
(:mod:`repro.expdb.worker`) and forked shards (:mod:`repro.sim.shard`)
each own their registry; aggregate in the parent from the row payloads,
not from globals.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Iterator

ENV_VAR = "REPRO_PERF"

__all__ = ["PERF", "PerfRegistry", "ENV_VAR"]


class _Timer:
    """Context manager accumulating wall time into one timer slot."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "PerfRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry._add_time(self._name, time.perf_counter() - self._start)


class _NullTimer:
    """No-op stand-in handed out while instrumentation is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_TIMER = _NullTimer()

#: Counter per collector generation (the hook runs inside a collection:
#: no string building there).
_GC_COUNTERS = ("gc.collections.gen0", "gc.collections.gen1", "gc.collections.gen2")


class PerfRegistry:
    """A bag of named counters and timers (see module docstring)."""

    __slots__ = ("enabled", "_counters", "_timers", "_gc_started")

    def __init__(self, enabled: bool = False):
        #: Presets the recording flag only: the collector is
        #: process-wide, so its hook follows :meth:`enable` /
        #: :meth:`disable` and a registry built switched-on (the
        #: isolated ones tests make) records just what it is handed.
        self.enabled = enabled
        self._counters: dict[str, int] = {}
        self._timers: dict[str, list] = {}  # name -> [seconds, calls]
        self._gc_started = 0.0

    # -- control ------------------------------------------------------
    def enable(self) -> None:
        """Start recording, collector accounting included."""
        self.enabled = True
        if self._on_collection not in gc.callbacks:
            gc.callbacks.append(self._on_collection)

    def disable(self) -> None:
        """Stop recording and leave nothing registered with ``gc``."""
        self.enabled = False
        if self._on_collection in gc.callbacks:
            gc.callbacks.remove(self._on_collection)

    def _on_collection(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: count and time every collection."""
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self._add_time("gc.pause", time.perf_counter() - self._gc_started)
        self.count(_GC_COUNTERS[info["generation"]])
        self.count("gc.unreachable", info["collected"] + info["uncollectable"])

    def reset(self) -> None:
        """Drop all recorded values (the enabled flag is untouched)."""
        self._counters.clear()
        self._timers.clear()

    # -- recording ----------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        counters = self._counters
        counters[name] = counters.get(name, 0) + n

    def _add_time(self, name: str, elapsed: float) -> None:
        slot = self._timers.get(name)
        if slot is None:
            self._timers[name] = [elapsed, 1]
        else:
            slot[0] += elapsed
            slot[1] += 1

    def timer(self, name: str):
        """Context manager timing its body into slot ``name``.

        Call sites that run *very* hot should still guard with
        ``if PERF.enabled:`` to skip the timestamp syscalls entirely.
        """
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self, name)

    # -- reading ------------------------------------------------------
    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def seconds(self, name: str) -> float:
        slot = self._timers.get(name)
        return slot[0] if slot else 0.0

    def calls(self, name: str) -> int:
        slot = self._timers.get(name)
        return slot[1] if slot else 0

    def snapshot(self) -> dict:
        """Everything recorded so far, as JSON-ready plain data."""
        return {
            "enabled": self.enabled,
            "counters": dict(sorted(self._counters.items())),
            "timers": {
                name: {"seconds": slot[0], "calls": slot[1]}
                for name, slot in sorted(self._timers.items())
            },
        }

    def names(self) -> Iterator[str]:
        yield from self._counters
        yield from self._timers


#: The process-wide registry every instrumented site shares.
PERF = PerfRegistry()
if os.environ.get(ENV_VAR, "").strip() not in ("", "0"):
    PERF.enable()
