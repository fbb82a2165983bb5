"""Collector policy of the synchronous replay loops (DESIGN.md §17).

A replay allocates millions of short-lived messages, records and tuples
and keeps a large heap alive under them (every ``ChordNode``, its lists
and dicts, every stored cohort).  None of that garbage is cyclic —
reference counting frees it, and ``tests/sim/test_collector.py`` pins
the invariant: a full collection after a run finds nothing — yet the
automatic cycle collector re-walks the live heap again and again to
prove so (25–40 % of a simulator run on a 20k-node ring).

:class:`CollectorPause` is the whole policy, used by exactly
:func:`repro.bench.harness.run_workload` and
:func:`repro.sim.shard.run_sharded`: automatic collection is off inside
the loop, and each barrier the loop already has runs one *young*
collection, so every surviving object is examined once, when it leaves
the young generation, and memory stays bounded should a future path
create young cycles.
"""

from __future__ import annotations

import gc


class CollectorPause:
    """``with CollectorPause() as pause:`` — no automatic collection inside.

    A class rather than a ``@contextmanager`` generator: leaving the
    block must not allocate, or the first thing the re-enabled collector
    sees is a threshold crossing inside the caller's timed window.
    Nests, and leaves a collector that was already disabled disabled.
    """

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> "CollectorPause":
        self._was_enabled = gc.isenabled()
        gc.disable()
        return self

    def young(self) -> None:
        """The barrier step: one young-generation collection.

        Generation 0 only — an older generation at every barrier pushes
        the full-collection counter over its threshold, and the full
        pass then runs the moment the collector is re-enabled.
        """
        gc.collect(0)

    def __exit__(self, *exc_info) -> None:
        try:
            gc.collect(0)
        finally:
            if self._was_enabled:
                gc.enable()
