"""Collector policy of the synchronous replay loops (DESIGN.md §17).

A replay allocates millions of short-lived messages, records and tuples
and keeps a large heap alive under them (every ``ChordNode``, its lists
and dicts, every stored cohort).  None of that garbage is cyclic —
reference counting frees it, and ``tests/sim/test_collector.py`` pins
the invariant: a full collection after a run finds nothing — yet the
cycle collector re-walks the live heap again and again to prove so.

:class:`CollectorPause` is the whole policy, used by exactly
:func:`repro.bench.harness.run_workload` and
:func:`repro.sim.shard.run_sharded`: collection is off inside the loop,
entry freezes the heap (ring, engine, workload) into the permanent
generation no pass walks, and each barrier the loop already has freezes
that epoch's survivors — an O(1) splice, not an O(survivors) walk.  The
pause owns the permanent generation while inside; exit unfreezes it
all into the oldest generation.

A finished ring is cyclic garbage only a full pass frees, and the
automatic collector does not count what an unfreeze hands it, so after
a pause it may never run one.  Entry therefore runs the full pass
itself when none has run since the previous pause exited: replays run
back to back keep one dead ring at most, and a caller that collects
between replays is never collected for twice.
"""

from __future__ import annotations

import gc


def _full_passes() -> int:
    return gc.get_stats()[-1]["collections"]


class CollectorPause:
    """``with CollectorPause() as pause:`` — no collection inside.

    A class rather than a ``@contextmanager`` generator: leaving the
    block must not allocate, or the first thing the re-enabled collector
    sees is a threshold crossing inside the caller's timed window.
    Nests, and leaves a collector that was already disabled disabled.
    """

    __slots__ = ("_was_enabled",)

    #: The full-pass count when the last pause exited; ``None`` before.
    _passes_at_exit = None

    def __enter__(self) -> "CollectorPause":
        if CollectorPause._passes_at_exit == _full_passes():
            gc.collect()  # whatever the previous pause left, before the freeze
        self._was_enabled = gc.isenabled()
        gc.disable()
        gc.freeze()
        return self

    def freeze_survivors(self) -> None:
        """The barrier step: keep this epoch's survivors without a walk
        (a replay makes no cycles: a walk would find nothing)."""
        gc.freeze()

    def __exit__(self, *exc_info) -> None:
        CollectorPause._passes_at_exit = _full_passes()
        gc.freeze()  # the tail too: hand back a zero young count
        gc.unfreeze()
        if self._was_enabled:
            gc.enable()
