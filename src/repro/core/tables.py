"""Local two-level hash tables: ALQT, VLQT, VLTT (Section 4.3.5).

Rewriter nodes keep queries in the **attribute-level query table**
(ALQT); evaluator nodes keep rewritten queries in the **value-level
query table** (VLQT) and tuples in the **value-level tuple table**
(VLTT).  All three are two-level hash tables, so every incoming message
reaches its match candidates in two dictionary steps — the number of
candidates actually examined is what the filtering-load metric counts.

Every stored item remembers the routing identifier it was addressed to,
so responsibility handoff on node join/leave is a filter over the
tables (Chord transfers "all data related to Id(n)").

Sliding-window eviction (``evict_older_than``) is driven by per-table
lazy min-heaps of ``(time, seq, locator...)`` records instead of
rescanning every bucket each window round: eviction pops only records
older than the cutoff, validates each against the live entry (records
go stale when an entry was handed off, replaced, or had its time
refreshed) and re-arms refreshed entries with their current time.  The
set of entries evicted for a given cutoff is exactly the full-scan set —
every live entry older than the cutoff has at least one heap record at
or below its current time — only the work is proportional to the number
of expirations, not the table size.  ``pop_matching`` (responsibility
handoff) stays a scan: it filters by routing identifier, which no
time-ordered structure helps with, and runs only on churn events.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from ..perf import PERF
from ..sql.query import JoinQuery, RewritePlan, RewrittenGroup, RewrittenQuery
from ..sql.tuples import DataTuple, ProjectedTuple


# ----------------------------------------------------------------------
# Attribute level: queries waiting at rewriters
# ----------------------------------------------------------------------

@dataclass(slots=True)
class StoredQuery:
    """A query resident at a rewriter, with its indexing side."""

    query: JoinQuery
    index_label: str
    routing_ident: int


class QueryGroup:
    """Queries sharing an equivalent join condition (Section 4.3.5).

    "Similar queries are triggered in a single step.  In addition,
    reindexing can also be done with only one message for multiple
    queries since for the same incoming tuple all similar queries will
    require the same evaluator."

    All entries share one index side (the level-1 bucket fixes the
    relation, the signature the side it sits on).

    ``sent_rewritten_keys`` is the DAI-T rewriter-side memory: "a
    rewriter does not need to reindex the same rewritten query more
    than once at the value level" (Section 4.4.3).
    """

    def __init__(self, signature: str, index_label: str):
        self.signature = signature
        self.index_label = index_label
        self.entries: list[StoredQuery] = []
        self.sent_rewritten_keys: set[str] = set()
        #: ``(query key, index side, routing identifier)`` of every entry.
        self._entry_ids: set[tuple[str, str, int]] = set()
        #: Member snapshot of ``entries``; dropped on every change.
        self._plan: Optional[RewritePlan] = None

    def add(self, stored: StoredQuery) -> bool:
        """Append ``stored`` unless an identical copy is present."""
        entry_id = (stored.query.key, stored.index_label, stored.routing_ident)
        if entry_id in self._entry_ids:
            return False
        self._entry_ids.add(entry_id)
        self.entries.append(stored)
        self._plan = None
        return True

    def drop(self, should_drop: Callable[[StoredQuery], bool]) -> list[StoredQuery]:
        """Remove and return the entries satisfying ``should_drop``."""
        kept: list[StoredQuery] = []
        dropped: list[StoredQuery] = []
        for entry in self.entries:
            (dropped if should_drop(entry) else kept).append(entry)
        if dropped:
            self.entries = kept
            self._entry_ids = {
                (entry.query.key, entry.index_label, entry.routing_ident)
                for entry in kept
            }
            self._plan = None
        return dropped

    def rewrite_plan(self, index_label: str) -> RewritePlan:
        """The members' rewrite skeleton, rebuilt after a change."""
        plan = self._plan
        if plan is None:
            plan = self._plan = RewritePlan(
                [entry.query for entry in self.entries], index_label
            )
        return plan

    def __len__(self) -> int:
        return len(self.entries)


class AttributeLevelQueryTable:
    """ALQT: level 1 = index attribute, level 2 = join condition."""

    def __init__(self):
        self._buckets: dict[tuple[str, str], dict[str, QueryGroup]] = {}
        self._count = 0

    def add(self, stored: StoredQuery) -> tuple[QueryGroup, bool]:
        """Index a query under its (relation, index attribute) bucket.

        Returns ``(group, is_new)``.  A copy with the same
        ``(query key, index side, routing identifier)`` is already
        present exactly when a soft-state lease renewal reaches a
        rewriter that never lost the query — the renewal is then a
        no-op, which is what makes periodic re-installation idempotent.
        """
        query = stored.query
        side = query.side(stored.index_label)
        level1 = (side.relation, query.index_attribute(stored.index_label))
        groups = self._buckets.setdefault(level1, {})
        signature = query.join_signature()
        group = groups.get(signature)
        if group is None:
            group = groups[signature] = QueryGroup(signature, stored.index_label)
        is_new = group.add(stored)
        if is_new:
            self._count += 1
        return group, is_new

    def groups_for(self, relation: str, attribute: str) -> list[QueryGroup]:
        """All groups a tuple indexed by ``(relation, attribute)`` can hit."""
        return list(self._buckets.get((relation, attribute), {}).values())

    def _drop(self, should_drop: Callable[[StoredQuery], bool]) -> list[StoredQuery]:
        dropped: list[StoredQuery] = []
        for level1 in list(self._buckets):
            groups = self._buckets[level1]
            for signature in list(groups):
                group = groups[signature]
                dropped.extend(group.drop(should_drop))
                if not group.entries:
                    del groups[signature]
            if not groups:
                del self._buckets[level1]
        self._count -= len(dropped)
        return dropped

    def remove(self, query_key: str) -> int:
        """Unsubscribe: drop every copy of the query; returns removals."""
        return len(self._drop(lambda entry: entry.query.key == query_key))

    def pop_matching(self, should_move: Callable[[int], bool]) -> list[StoredQuery]:
        """Remove and return entries whose routing ident satisfies the
        predicate (responsibility handoff)."""
        return self._drop(lambda entry: should_move(entry.routing_ident))

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StoredQuery]:
        for groups in self._buckets.values():
            for group in groups.values():
                yield from group.entries


# ----------------------------------------------------------------------
# Value level: rewritten queries at evaluators
# ----------------------------------------------------------------------

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


class ValueLevelQueryTable:
    """VLQT: level 1 = load-distributing attribute, level 2 = value."""

    def __init__(self):
        self._buckets: dict[tuple[str, str], dict[Any, dict[str, StoredRewritten]]] = {}
        self._count = 0
        #: Lazy eviction queue: ``(trigger_time, seq, level1, value, entry)``
        #: records; see the module docstring.
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
        level1 = (record.relation, record.dis_attribute or "")
        value = record.dis_value
        by_key = self._buckets.setdefault(level1, {}).setdefault(value, {})
        trigger_time = record.trigger_pub_time
        unevaluated = []
        for member, key in zip(record.members, record.member_keys()):
            existing = by_key.get(key)
            if existing is None:
                rewritten = record.expand(member, key)
                self._store(level1, value, by_key, rewritten, routing_ident, trigger_time)
                unevaluated.append(rewritten)
                continue
            if window is not None and trigger_time - existing.latest_trigger_time > window:
                unevaluated.append(record.expand(member, key))
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
        """Re-insert a previously stored entry (responsibility handoff)."""
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
        if PERF.enabled:
            PERF.count("vlqt.evicted", evicted)
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


# ----------------------------------------------------------------------
# Value level: tuples at evaluators
# ----------------------------------------------------------------------

@dataclass(slots=True)
class StoredTuple:
    """A tuple at an evaluator, remembered under its index attribute."""

    tuple: DataTuple
    index_attribute: str
    routing_ident: int


class ValueLevelTupleTable:
    """VLTT: level 1 = tuple's index attribute, level 2 = its value."""

    def __init__(self):
        self._buckets: dict[tuple[str, str], dict[Any, list[StoredTuple]]] = {}
        self._count = 0
        #: Lazy eviction queue; tuple publication times never change, so
        #: records only go stale when an entry is handed off on churn.
        self._evict_heap: list[tuple[float, int, tuple[str, str], Any, StoredTuple]] = []
        self._evict_seq = 0

    def add(self, stored: StoredTuple) -> None:
        level1 = (stored.tuple.relation.name, stored.index_attribute)
        value = stored.tuple.value(stored.index_attribute)
        self._buckets.setdefault(level1, {}).setdefault(value, []).append(stored)
        self._count += 1
        self._evict_seq += 1
        heapq.heappush(
            self._evict_heap,
            (stored.tuple.pub_time, self._evict_seq, level1, value, stored),
        )

    def candidates(self, relation: str, attribute: str, value: Any) -> list[StoredTuple]:
        """Tuples a rewritten query over ``relation.attribute = value``
        can possibly match."""
        level2 = self._buckets.get((relation, attribute))
        if not level2:
            return []
        return list(level2.get(value, ()))

    def contains(self, tup: DataTuple, attribute: str) -> bool:
        """True when this exact tuple is already stored under
        ``attribute`` (used to deduplicate crash-recovery republication)."""
        level2 = self._buckets.get((tup.relation.name, attribute))
        if not level2:
            return False
        return any(
            stored.tuple == tup for stored in level2.get(tup.value(attribute), ())
        )

    def pending_before(self, cutoff: float) -> bool:
        """True when :meth:`evict_older_than` could evict anything."""
        heap = self._evict_heap
        return bool(heap) and heap[0][0] < cutoff

    def evict_older_than(self, cutoff: float) -> int:
        heap = self._evict_heap
        buckets = self._buckets
        evicted = 0
        while heap and heap[0][0] < cutoff:
            _, _, level1, value, stored = heapq.heappop(heap)
            level2 = buckets.get(level1)
            bucket = level2.get(value) if level2 is not None else None
            if not bucket:
                continue  # stale record: bucket drained by handoff
            for index, candidate in enumerate(bucket):
                if candidate is stored:
                    del bucket[index]
                    evicted += 1
                    if not bucket:
                        del level2[value]
                        if not level2:
                            del buckets[level1]
                    break
        self._count -= evicted
        if PERF.enabled:
            PERF.count("vltt.evicted", evicted)
        return evicted

    def pop_matching(self, should_move: Callable[[int], bool]) -> list[StoredTuple]:
        moved: list[StoredTuple] = []
        for level1 in list(self._buckets):
            level2 = self._buckets[level1]
            for value in list(level2):
                keep = []
                for stored in level2[value]:
                    if should_move(stored.routing_ident):
                        moved.append(stored)
                    else:
                        keep.append(stored)
                if keep:
                    level2[value] = keep
                else:
                    del level2[value]
            if not level2:
                del self._buckets[level1]
        self._count -= len(moved)
        return moved

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StoredTuple]:
        for level2 in self._buckets.values():
            for stored_list in level2.values():
                yield from stored_list


# ----------------------------------------------------------------------
# DAI-V: projected tuples at value-indexed evaluators (Section 4.5)
# ----------------------------------------------------------------------

@dataclass(slots=True)
class StoredProjection:
    """A projected trigger tuple stored by a DAI-V evaluator."""

    projection: ProjectedTuple
    group_signature: str
    value: Any
    routing_ident: int


class ProjectionStore:
    """DAI-V storage: level 1 = (group, relation), level 2 = join value.

    The join value is re-checked on match, so identifier collisions
    between different values (``Hash(str(value))`` shares one ring) can
    never create false notifications.
    """

    def __init__(self):
        self._buckets: dict[tuple[str, str], dict[Any, list[StoredProjection]]] = {}
        self._count = 0
        #: Lazy eviction queue.  A duplicate ``add`` can replace an
        #: entry's projection with a *newer* publication time, so
        #: eviction re-arms records whose entry has outlived them.
        self._evict_heap: list[tuple[float, int, tuple[str, str], Any, StoredProjection]] = []
        self._evict_seq = 0

    def _arm(self, time: float, level1, value, stored: StoredProjection) -> None:
        self._evict_seq += 1
        heapq.heappush(self._evict_heap, (time, self._evict_seq, level1, value, stored))

    def add(self, stored: StoredProjection) -> bool:
        """Store a projection; duplicates (same content) are collapsed."""
        level1 = (stored.group_signature, stored.projection.relation_name)
        bucket = self._buckets.setdefault(level1, {}).setdefault(stored.value, [])
        for existing in bucket:
            if existing.projection.items == stored.projection.items:
                if stored.projection.pub_time > existing.projection.pub_time:
                    existing.projection = stored.projection
                return False
        bucket.append(stored)
        self._count += 1
        self._arm(stored.projection.pub_time, level1, stored.value, stored)
        return True

    def candidates(
        self, group_signature: str, relation: str, value: Any
    ) -> list[StoredProjection]:
        level2 = self._buckets.get((group_signature, relation))
        if not level2:
            return []
        return list(level2.get(value, ()))

    def pending_before(self, cutoff: float) -> bool:
        """True when :meth:`evict_older_than` could evict anything."""
        heap = self._evict_heap
        return bool(heap) and heap[0][0] < cutoff

    def evict_older_than(self, cutoff: float) -> int:
        heap = self._evict_heap
        buckets = self._buckets
        evicted = 0
        while heap and heap[0][0] < cutoff:
            _, _, level1, value, stored = heapq.heappop(heap)
            level2 = buckets.get(level1)
            bucket = level2.get(value) if level2 is not None else None
            if not bucket:
                continue
            for index, candidate in enumerate(bucket):
                if candidate is stored:
                    current_time = stored.projection.pub_time
                    if current_time >= cutoff:
                        # Replaced by a newer duplicate since this
                        # record was armed: keep it, re-arm.
                        self._arm(current_time, level1, value, stored)
                        break
                    del bucket[index]
                    evicted += 1
                    if not bucket:
                        del level2[value]
                        if not level2:
                            del buckets[level1]
                    break
        self._count -= evicted
        if PERF.enabled:
            PERF.count("projections.evicted", evicted)
        return evicted

    def pop_matching(self, should_move: Callable[[int], bool]) -> list[StoredProjection]:
        moved: list[StoredProjection] = []
        for level1 in list(self._buckets):
            level2 = self._buckets[level1]
            for value in list(level2):
                keep = []
                for stored in level2[value]:
                    if should_move(stored.routing_ident):
                        moved.append(stored)
                    else:
                        keep.append(stored)
                if keep:
                    level2[value] = keep
                else:
                    del level2[value]
            if not level2:
                del self._buckets[level1]
        self._count -= len(moved)
        return moved

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StoredProjection]:
        for level2 in self._buckets.values():
            for stored_list in level2.values():
                yield from stored_list
