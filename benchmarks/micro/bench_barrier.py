"""Hot path 9: the sharded barrier exchange (DESIGN.md §15).

Two costs recur at every epoch barrier of a full-feature sharded run:

* **eviction replay** — the driver sweeps every adopted node against
  the serial cutoff.  Almost all nodes hold nothing expired, so the
  number that matters is the per-idle-node cost of the
  ``pending_before`` heap peek, measured here against a population
  where only a small fraction of nodes have pending expirations.
* **cross-shard record resolution** — staged ``(ts, time, owner,
  message)`` records are partitioned by owner segment before the
  scatter.  :class:`~repro.chord.snapshot.SegmentMap` resolves owners
  by bisect over the shared sorted-ident array; the dict it replaced
  is timed alongside to keep the trade visible (the dict wins per
  lookup but costs an O(n) build and ~80 bytes/member, which is what
  capped ring size before §15).
* **collector barrier** — the replay loops' collector pause
  (DESIGN.md §17) keeps each epoch's survivors by freezing them.  One
  barrier over 100k young survivors shaped like the successor lists a
  ring build leaves behind, timed against the ``gc.collect(0)`` walk
  it replaced.
"""

from __future__ import annotations

import gc
import random
import time

from repro.chord.snapshot import SegmentMap
from repro.core.base import NodeState
from repro.core.tables import ValueLevelTupleTable
from repro.sim.collector import CollectorPause

from _common import best_of, report


class _Node:
    """Stand-in carrying just the ident NodeState needs here."""

    __slots__ = ("ident",)

    def __init__(self, ident: int):
        self.ident = ident


def _loaded_state(ident: int, n_items: int, rng: random.Random) -> NodeState:
    state = NodeState(_Node(ident), 0)
    table = state.vltt

    class _Tuple:
        __slots__ = ("pub_time", "_value")

        class _Rel:
            name = "R"

        relation = _Rel()  # shared class attribute, not a slot

        def __init__(self, value, pub_time):
            self._value = value
            self.pub_time = pub_time

        def value(self, attribute):
            return self._value

    class _Stored:
        __slots__ = ("tuple", "index_attribute")

        def __init__(self, tup):
            self.tuple = tup
            self.index_attribute = "A"

        @property
        def time(self) -> float:  # what the store's eviction heap keys on
            return self.tuple.pub_time

    for i in range(n_items):
        table.add(_Stored(_Tuple(rng.randrange(64), float(i))))
    return state


def _barrier_ns(barrier, n_survivors: int, repeats: int = 3) -> float:
    """Best wall time of one ``barrier(pause)`` over ``n_survivors``
    young one-entry lists, each pointing at a node, in ns."""
    best = float("inf")
    for _ in range(repeats):
        with CollectorPause() as pause:
            successor_lists = [[_Node(i)] for i in range(n_survivors)]
            start = time.perf_counter()
            barrier(pause)
            best = min(best, time.perf_counter() - start)
        del successor_lists
    return best * 1e9


def run(
    n_nodes: int = 20_000,
    hot_fraction: float = 0.01,
    n_records: int = 50_000,
    shards: int = 4,
) -> list[dict]:
    rng = random.Random(23)
    rows = []

    # ------------------------------------------------------------------
    # Eviction replay sweep: mostly idle nodes, a few holding state.
    # ------------------------------------------------------------------
    hot_every = max(1, int(1 / hot_fraction))
    states = [
        _loaded_state(i, 32 if i % hot_every == 0 else 0, rng)
        for i in range(n_nodes)
    ]
    cutoff = [0.0]

    def sweep() -> None:
        # Advancing the cutoff each sweep keeps a trickle of real
        # evictions in the loop, like a live window replay.
        cutoff[0] += 0.25
        c = cutoff[0]
        total = 0
        for state in states:
            total += state.evict_expired(c)

    start = time.perf_counter()
    loops = 20
    for _ in range(loops):
        sweep()
    elapsed = time.perf_counter() - start
    rows.append(
        report(
            "barrier.eviction_replay_sweep",
            elapsed / loops / n_nodes * 1e9,
            n_nodes=n_nodes,
            hot_fraction=hot_fraction,
        )
    )

    # ------------------------------------------------------------------
    # Cross-shard record partitioning: SegmentMap bisect vs dict.
    # ------------------------------------------------------------------
    idents = sorted(rng.sample(range(1 << 32), n_nodes))
    segment = SegmentMap(idents, shards)
    targets = [idents[rng.randrange(n_nodes)] for _ in range(n_records)]

    def partition_bisect() -> None:
        partitions = [[] for _ in range(shards)]
        shard_of = segment.shard_of
        for ident in targets:
            partitions[shard_of(ident)].append(ident)

    build_start = time.perf_counter()
    by_ident = {ident: pos * shards // n_nodes for pos, ident in enumerate(idents)}
    dict_build = time.perf_counter() - build_start

    def partition_dict() -> None:
        partitions = [[] for _ in range(shards)]
        for ident in targets:
            partitions[by_ident[ident]].append(ident)

    rows.append(
        report(
            "barrier.partition_segment_map",
            best_of(partition_bisect, loops=5) / n_records,
            n_records=n_records,
            n_nodes=n_nodes,
            shards=shards,
        )
    )
    rows.append(
        report(
            "barrier.partition_dict_reference",
            best_of(partition_dict, loops=5) / n_records,
            n_records=n_records,
            build_ms=round(dict_build * 1e3, 2),
        )
    )

    # ------------------------------------------------------------------
    # Collector barrier: freeze the epoch's survivors vs walk them.
    # ------------------------------------------------------------------
    n_survivors = 100_000
    rows.append(
        report(
            "barrier.freeze_survivors",
            _barrier_ns(CollectorPause.freeze_survivors, n_survivors),
            n_survivors=n_survivors,
            young_collect_ns=round(
                _barrier_ns(lambda pause: gc.collect(0), n_survivors), 1
            ),
        )
    )
    return rows
