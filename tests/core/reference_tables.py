"""The per-member value-level query table, kept as a reference oracle.

Until cohort storage (DESIGN.md §2) the VLQT held one
``StoredRewritten`` — a 13-field flat ``RewrittenQuery``, a dict slot
under its key string and a heap record — per *member* of every group
record.  That table is gone from ``src/``; this module is its body,
moved here unchanged in behaviour, so ``test_tables_equivalence`` can
drive it and the shipped cohort table through the same operations, and
``reference_rewriter`` can run the per-member evaluators on it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.sql.query import RewrittenGroup


@dataclass(slots=True)
class StoredRewritten:
    """A rewritten query at an evaluator, with its trigger-time memory.

    When a rewritten query with a key that is already present arrives,
    "only pubT(t) is stored along with q'" (Section 4.3.3) — hence the
    ``latest_trigger_time`` update instead of a second copy.
    """

    rewritten: RewrittenQuery
    routing_ident: int
    latest_trigger_time: float

    def refresh(self, trigger_time: float) -> None:
        if trigger_time > self.latest_trigger_time:
            self.latest_trigger_time = trigger_time

    def __len__(self) -> int:
        """One member — what ``NodeState.transfer_to`` counts per moved item."""
        return 1


class FlatValueLevelQueryTable:
    """The per-member VLQT: level 1 = load-distributing attribute,
    level 2 = value, then one entry per rewritten key."""

    def __init__(self):
        self._buckets: dict[tuple[str, str], dict[Any, dict[str, StoredRewritten]]] = {}
        self._count = 0
        #: Lazy eviction queue: ``(trigger_time, seq, level1, value, entry)``
        #: records; see :mod:`repro.core.tables`.
        self._evict_heap: list[tuple[float, int, tuple[str, str], Any, StoredRewritten]] = []
        self._evict_seq = 0

    def _arm(self, time: float, level1, value, entry: StoredRewritten) -> None:
        self._evict_seq += 1
        heapq.heappush(self._evict_heap, (time, self._evict_seq, level1, value, entry))

    def pending_before(self, cutoff: float) -> bool:
        """True when :meth:`evict_older_than` could evict anything.

        One heap peek — the barrier-aligned eviction replay calls this
        on every adopted node per round, so it must cost O(1) on the
        (overwhelmingly common) idle nodes.
        """
        heap = self._evict_heap
        return bool(heap) and heap[0][0] < cutoff

    def add(
        self,
        record: RewrittenGroup,
        routing_ident: int,
        window: Optional[float] = None,
    ) -> list[RewrittenQuery]:
        """Store (or time-refresh) one entry per member of ``record``.

        The level-2 key is ``dis_value`` — the attribute value a
        matching tuple carries, even when the dis side is a linear
        expression; the group shares it, so the bucket is resolved once.

        Returns the members still to be evaluated against stored
        tuples, expanded: those whose key was not stored yet and, given
        a ``window``, those whose stored entry had already slid out of
        it (their pairs with recently stored tuples were never made).
        """
        level1 = (record.shape.relation, record.shape.dis_attribute or "")
        value = record.dis_value
        by_key = self._buckets.setdefault(level1, {}).setdefault(value, {})
        trigger_time = record.trigger_pub_time
        unevaluated = []
        from .reference_rewriter import expand, member_keys  # it imports us

        for member, key in zip(record.shape.members, member_keys(record)):
            existing = by_key.get(key)
            if existing is None:
                rewritten = expand(record, member)
                self._store(level1, value, by_key, rewritten, routing_ident, trigger_time)
                unevaluated.append(rewritten)
                continue
            if window is not None and trigger_time - existing.latest_trigger_time > window:
                unevaluated.append(expand(record, member))
            existing.refresh(trigger_time)
        return unevaluated

    def _store(self, level1, value, by_key, rewritten, routing_ident, time) -> None:
        entry = by_key[rewritten.key] = StoredRewritten(rewritten, routing_ident, time)
        self._count += 1
        self._arm(time, level1, value, entry)

    def peek(self, rewritten: RewrittenQuery) -> Optional[StoredRewritten]:
        """The stored entry with this rewritten query's key, if any."""
        level2 = self._buckets.get((rewritten.relation, rewritten.dis_attribute or ""))
        if not level2:
            return None
        by_key = level2.get(rewritten.dis_value)
        return by_key.get(rewritten.key) if by_key else None

    def insert_entry(self, entry: StoredRewritten) -> None:
        """Re-insert a previously stored entry (responsibility handoff;
        ``NodeState.transfer_to`` reaches it as ``insert_cohort``)."""
        rewritten = entry.rewritten
        stored = self.peek(rewritten)
        if stored is not None:
            stored.refresh(entry.latest_trigger_time)
            stored.routing_ident = entry.routing_ident
            return
        level1 = (rewritten.relation, rewritten.dis_attribute or "")
        value = rewritten.dis_value
        by_key = self._buckets.setdefault(level1, {}).setdefault(value, {})
        self._store(
            level1, value, by_key, rewritten, entry.routing_ident, entry.latest_trigger_time
        )

    insert_cohort = insert_entry

    def candidates(
        self, relation: str, attribute: str, value: Any
    ) -> list[StoredRewritten]:
        """Rewritten queries a ``vl-index`` tuple can possibly trigger."""
        level2 = self._buckets.get((relation, attribute))
        if not level2:
            return []
        by_key = level2.get(value)
        return list(by_key.values()) if by_key else []

    def evict_older_than(self, cutoff: float) -> int:
        """Drop entries whose latest trigger is before ``cutoff``
        (sliding-window semantics); returns evictions.

        Pops the lazy heap instead of scanning every bucket: a record
        whose entry is gone or replaced is discarded; one whose entry
        was refreshed past the cutoff is re-armed at its current time;
        only records that still describe an expired live entry evict.
        """
        heap = self._evict_heap
        buckets = self._buckets
        evicted = 0
        while heap and heap[0][0] < cutoff:
            _, _, level1, value, entry = heapq.heappop(heap)
            level2 = buckets.get(level1)
            by_key = level2.get(value) if level2 is not None else None
            if by_key is None or by_key.get(entry.rewritten.key) is not entry:
                continue  # stale record: entry was handed off or replaced
            current_time = entry.latest_trigger_time
            if current_time >= cutoff:
                self._arm(current_time, level1, value, entry)
                continue
            del by_key[entry.rewritten.key]
            evicted += 1
            if not by_key:
                del level2[value]
                if not level2:
                    del buckets[level1]
        self._count -= evicted
        return evicted

    def pop_matching(self, should_move: Callable[[int], bool]) -> list[StoredRewritten]:
        moved: list[StoredRewritten] = []
        for level1 in list(self._buckets):
            level2 = self._buckets[level1]
            for value in list(level2):
                by_key = level2[value]
                for key in list(by_key):
                    if should_move(by_key[key].routing_ident):
                        moved.append(by_key.pop(key))
                if not by_key:
                    del level2[value]
            if not level2:
                del self._buckets[level1]
        self._count -= len(moved)
        return moved

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StoredRewritten]:
        for level2 in self._buckets.values():
            for by_key in level2.values():
                yield from by_key.values()
