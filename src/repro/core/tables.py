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

The VLQT's stored item is the *cohort* — the members of one group record
that were stored together (see :class:`StoredCohort`) — so a record of N
similar queries costs one object and one heap record, while ``len()``,
eviction counts and the filtering load keep counting members.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from ..perf import PERF
from ..sql.query import JoinQuery, RewritePlan, RewrittenGroup
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

    ``sent`` is the DAI-T rewriter-side memory: "a rewriter does not
    need to reindex the same rewritten query more than once at the value
    level" (Section 4.4.3), as suffix -> query keys shipped with it.
    """

    def __init__(self, signature: str, index_label: str):
        self.signature = signature
        self.index_label = index_label
        self.entries: list[StoredQuery] = []
        self.sent: dict[str, set[str]] = {}
        #: ``(query key, index side, routing identifier)`` of every entry.
        self._entry_ids: set[tuple[str, str, int]] = set()
        #: Member snapshot of ``entries``; dropped on every change.
        self._plan: Optional[RewritePlan] = None
        #: ``_by_binding()`` of ``_plan``, built on first use.
        self._bindings: Optional[list[tuple[int, list[int], set[str]]]] = None

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
            self._bindings = None
        return plan

    def _by_binding(self) -> list[tuple[int, list[int], set[str]]]:
        """Per binding of ``_plan``: a list with it, its members' positions, keys."""
        if self._bindings is None:
            shape = self._plan.shape
            run_of = shape.layout.select_binding
            bindings: dict[int, tuple[int, list[int], set[str]]] = {}
            for i, member in enumerate(shape.members):
                select = member.select_index
                _, at, keys = bindings.setdefault(run_of[select], (select, [], set()))
                at.append(i)
                keys.add(member.query_key)
            self._bindings = list(bindings.values())
        return self._bindings

    def unsent(self, record: RewrittenGroup) -> Optional[RewrittenGroup]:
        """The members of ``record`` — this group's latest rewrite — whose
        rewritten key was never shipped, or ``None``; per binding, one
        subset test when its suffix went out to all of its members."""
        members = record.shape.members
        suffixes = record.suffixes
        sent = self.sent
        if record.shape is self._plan.shape:
            keep = []
            for select, at, keys in self._by_binding():
                shipped = sent.get(suffixes[select])
                if shipped is None:
                    keep += at
                elif not keys <= shipped:
                    keep += [i for i in at if members[i].query_key not in shipped]
            keep.sort()
        else:  # a replay older than some members
            keep = [i for i, m in enumerate(members)
                    if m.query_key not in sent.get(suffixes[m.select_index], ())]
        if len(keep) == len(members):
            return record
        return record.restrict(keep) if keep else None

    def remember(self, record: RewrittenGroup) -> None:
        """Note every member of ``record`` as shipped."""
        suffixes = record.suffixes
        if self._plan is not None and record.shape is self._plan.shape:
            for select, _, keys in self._by_binding():
                self.sent.setdefault(suffixes[select], set()).update(keys)
        else:
            for m in record.shape.members:
                self.sent.setdefault(suffixes[m.select_index], set()).add(m.query_key)

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

class _ValueBucket:
    """The cohorts stored under one ``(level-1 key, value)``.

    ``cohorts`` keeps them in insertion order (the order a ``vl-index``
    probe visits them).  ``slots`` finds the holder of a member key
    without building it: a key is ``query_key + suffix``, so under one
    ``(group signature, suffix)`` the query key alone tells members
    apart.  A slot is the cohort itself while it is the only one using
    that suffix, and a ``query key -> cohort`` index once several do.
    """

    __slots__ = ("level1", "value", "cohorts", "slots")

    def __init__(self, level1: tuple[str, str], value: Any):
        self.level1 = level1
        self.value = value
        self.cohorts: dict[StoredCohort, None] = {}
        self.slots: dict[tuple[str, str], Any] = {}


@dataclass(slots=True, eq=False)
class StoredCohort:
    """Members of one group record that an evaluator stored together.

    They share the record's join condition and select lists, one
    routing identifier and one trigger time, so they are refreshed,
    window-checked, evicted and handed off as a unit; ``record.members``
    is exactly the cohort.  When a rewritten query with a key that is
    already present arrives, "only pubT(t) is stored along with q'"
    (Section 4.3.3) — hence the ``latest_trigger_time`` update instead
    of a second copy.  Identity-hashed: a cohort is a dict key in its
    bucket.
    """

    record: RewrittenGroup
    routing_ident: int
    latest_trigger_time: float
    #: Where it is stored; ``None`` once evicted or popped for handoff.
    bucket: Optional[_ValueBucket] = None

    def __len__(self) -> int:
        return len(self.record.shape.members)


def _by_member(cohort: StoredCohort, suffix: str) -> dict[str, StoredCohort]:
    """The ``query key -> cohort`` index of one cohort's ``suffix`` members."""
    suffixes = cohort.record.suffixes
    return {
        member.query_key: cohort
        for member in cohort.record.shape.members
        if suffixes[member.select_index] == suffix
    }


def _same_keys(stored: RewrittenGroup, record: RewrittenGroup) -> bool:
    """Do two records rewrite to the same member keys, position by
    position?  Decided without building a key; ``False`` only sends the
    caller to the exact per-member path."""
    if stored.suffixes != record.suffixes:
        return False
    ours, theirs = stored.shape.members, record.shape.members
    if ours is theirs:
        return True
    if len(ours) != len(theirs):
        return False
    for mine, other in zip(ours, theirs):
        if mine.query_key != other.query_key or mine.select_index != other.select_index:
            return False
    return True


class ValueLevelQueryTable:
    """VLQT: level 1 = load-distributing attribute, level 2 = value.

    The stored unit is the :class:`StoredCohort`, not the member: one
    object and one eviction record per stored group record, however many
    queries it covers.  ``len()`` still counts members (the paper's
    storage load).
    """

    def __init__(self):
        self._buckets: dict[tuple[str, str], dict[Any, _ValueBucket]] = {}
        self._count = 0
        #: Lazy eviction queue: ``(trigger_time, seq, cohort)`` records;
        #: see the module docstring.
        self._evict_heap: list[tuple[float, int, StoredCohort]] = []
        self._evict_seq = 0

    def _arm(self, cohort: StoredCohort) -> None:
        self._evict_seq += 1
        heapq.heappush(
            self._evict_heap, (cohort.latest_trigger_time, self._evict_seq, cohort)
        )

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
    ) -> Optional[RewrittenGroup]:
        """Store (or time-refresh) the members of ``record``.

        The level-2 key is ``dis_value`` — the attribute value a
        matching tuple carries, even when the dis side is a linear
        expression; the group shares it, so the bucket is resolved once.

        Returns the part of ``record`` still to be evaluated against
        stored tuples — the members whose key was not stored yet and,
        given a ``window``, those whose stored copy had already slid out
        of it (their pairs with recently stored tuples were never made):
        ``record`` itself when that is every member, ``None`` when none.
        """
        return self._add(record, routing_ident, window, record.trigger_pub_time, False)

    def insert_cohort(self, cohort: StoredCohort) -> None:
        """Re-insert a cohort popped from another table (responsibility
        handoff): members already stored take its routing identifier
        and, if newer, its time; the rest are stored with both."""
        self._add(
            cohort.record, cohort.routing_ident, None, cohort.latest_trigger_time, True
        )

    def _add(self, record, routing_ident, window, time, handoff):
        """:meth:`add`, storing ``time`` as the trigger time; on
        ``handoff`` stored copies also take over ``routing_ident``."""
        buckets = self._buckets
        shape = record.shape
        level1 = (shape.relation, shape.dis_attribute or "")
        level2 = buckets.get(level1)
        if level2 is None:
            level2 = buckets[level1] = {}
        value = record.dis_value
        bucket = level2.get(value)
        if bucket is None:
            bucket = level2[value] = _ValueBucket(level1, value)
        slots = bucket.slots
        signature = shape.group_signature
        suffixes = record.suffixes
        found = []
        for suffix in suffixes:
            found.append(slots.get((signature, suffix)))
        first = found[0]
        uniform = found.count(first) == len(found)
        if uniform and first is None:
            # All of it is new: one cohort, no member touched.
            if PERF.enabled:
                PERF.count("vlqt.add.examined", len(found))
            pending = record
            cohort = StoredCohort(record, routing_ident, time, bucket)
            for suffix in suffixes:
                slots[(signature, suffix)] = cohort
        elif (
            uniform
            and type(first) is StoredCohort
            and _same_keys(first.record, record)
        ):
            # All of it is a refresh of one cohort: no member touched.
            if PERF.enabled:
                PERF.count("vlqt.add.examined", len(found))
            expired = window is not None and time - first.latest_trigger_time > window
            if time > first.latest_trigger_time:
                first.latest_trigger_time = time
            if handoff:
                first.routing_ident = routing_ident
            return record if expired else None
        else:
            if not (uniform and type(first) is dict):  # else: indexes already
                self._index_shared_slots(slots, signature, suffixes, found)
            pending, cohort = self._settle_members(
                record, routing_ident, window, time, handoff, bucket, found
            )
            if cohort is None:
                return pending
        # Enter the new cohort into its bucket, the count and the heap.
        bucket.cohorts[cohort] = None
        self._count += len(cohort.record.shape.members)
        self._arm(cohort)
        return pending

    def _index_shared_slots(self, slots, signature, suffixes, found) -> None:
        """Turn every single-cohort slot in ``found`` into a ``query key
        -> cohort`` index, in ``slots`` and in ``found``."""
        for position, slot in enumerate(found):
            if type(slot) is StoredCohort:
                key = (signature, suffixes[position])
                index = slots[key]
                if index is slot:  # not yet replaced through an equal suffix
                    if PERF.enabled:
                        PERF.count("vlqt.add.examined", len(slot.record.shape.members))
                    index = slots[key] = _by_member(slot, key[1])
                found[position] = index

    def _settle_members(
        self, record, routing_ident, window, time, handoff, bucket, found
    ):
        """The per-member path of :meth:`_add`: ``record`` covers part
        of what is stored, or shares a suffix with other cohorts.

        ``found`` holds, per select list, ``None`` or the index of its
        slot.  Members stored nowhere form one new cohort (indexed here,
        entered into the bucket by the caller); a cohort the record
        covers wholly is refreshed in place, one it covers partly is
        split first.  Returns ``(still to evaluate, new cohort or None)``.
        """
        members = record.shape.members
        if PERF.enabled:
            PERF.count("vlqt.add.examined", len(found) + len(members))
        cohort = None
        fresh: list[int] = []
        expired: list[int] = []
        #: Stored cohort -> query keys of its members the record covers;
        #: built on the first hit (most per-member adds store new keys only).
        held: Optional[dict[StoredCohort, list[str]]] = None
        for position, member in enumerate(members):
            slot = found[member.select_index]
            if slot is not None:
                query_key = member.query_key
                holder = slot.get(query_key)
                if holder is not None:
                    if held is None:
                        held = {holder: [query_key]}
                    elif holder in held:
                        held[holder].append(query_key)
                    else:
                        held[holder] = [query_key]
                    if window is not None and time - holder.latest_trigger_time > window:
                        expired.append(position)
                    continue
                if cohort is None:
                    cohort = StoredCohort(record, routing_ident, time, bucket)
                slot[query_key] = cohort
            fresh.append(position)
        for holder, keys in held.items() if held is not None else ():
            newer = time > holder.latest_trigger_time
            takeover = handoff and holder.routing_ident != routing_ident
            if newer or takeover:
                if len(keys) < len(holder.record.shape.members):
                    # Only these members change: they leave the cohort.
                    holder = self._split_off(holder, keys)
                if newer:
                    holder.latest_trigger_time = time
                if takeover:
                    holder.routing_ident = routing_ident
        if fresh:
            if cohort is None:
                cohort = StoredCohort(record, routing_ident, time, bucket)
            if len(fresh) < len(members):
                cohort.record = record.restrict(fresh)
            if None in found:
                slots = bucket.slots
                signature = record.shape.group_signature
                for suffix, slot in zip(record.suffixes, found):
                    if slot is None:
                        slots[(signature, suffix)] = cohort
        pending = sorted(fresh + expired) if expired else fresh
        if len(pending) == len(members):
            return record, cohort
        return (record.restrict(pending) if pending else None), cohort

    def _split_off(self, holder: StoredCohort, query_keys: list[str]) -> StoredCohort:
        """Move the members named by ``query_keys`` out of ``holder``
        into a cohort of their own (same record fields, time and
        routing identifier) and return it."""
        stored = holder.record
        leaving = set(query_keys)
        taken: list[int] = []
        kept: list[int] = []
        for position, member in enumerate(stored.shape.members):
            (taken if member.query_key in leaving else kept).append(position)
        holder.record = stored.restrict(kept)
        bucket = holder.bucket
        part = StoredCohort(
            stored.restrict(taken),
            holder.routing_ident,
            holder.latest_trigger_time,
            bucket,
        )
        bucket.cohorts[part] = None
        # A member reached through a single-cohort slot would have taken
        # the whole-record path, so every slot of a leaving member is an index.
        slots = bucket.slots
        signature = stored.shape.group_signature
        suffixes = stored.suffixes
        for member in part.record.shape.members:
            slots[(signature, suffixes[member.select_index])][member.query_key] = part
        # ``holder`` keeps its eviction record; the part needs its own.
        self._arm(part)
        if PERF.enabled:
            PERF.count("vlqt.cohorts.split")
        return part

    def _remove(self, cohorts: list[StoredCohort]) -> int:
        """Take ``cohorts`` out of their buckets (eviction, handoff);
        returns how many members that were."""
        buckets = self._buckets
        removed = 0
        for cohort in cohorts:
            bucket = cohort.bucket
            cohort.bucket = None
            del bucket.cohorts[cohort]
            record = cohort.record
            shape = record.shape
            members = shape.members
            removed += len(members)
            slots = bucket.slots
            signature = shape.group_signature
            suffixes = record.suffixes
            for suffix in suffixes:
                key = (signature, suffix)
                slot = slots.get(key)
                if slot is cohort:
                    del slots[key]
                elif type(slot) is dict:
                    # An index holds every member stored under its suffix.
                    for member in members:
                        if suffixes[member.select_index] == suffix:
                            slot.pop(member.query_key, None)
                    if not slot:
                        del slots[key]
            if not bucket.cohorts:
                level2 = buckets[bucket.level1]
                del level2[bucket.value]
                if not level2:
                    del buckets[bucket.level1]
        self._count -= removed
        return removed

    def candidates(
        self, relation: str, attribute: str, value: Any
    ) -> list[StoredCohort]:
        """Cohorts of rewritten queries a ``vl-index`` tuple can
        possibly trigger, in the order they were stored."""
        level2 = self._buckets.get((relation, attribute))
        if not level2:
            return []
        bucket = level2.get(value)
        return list(bucket.cohorts) if bucket is not None else []

    def evict_older_than(self, cutoff: float) -> int:
        """Drop cohorts whose latest trigger is before ``cutoff``
        (sliding-window semantics); returns evicted *members*.

        Pops the lazy heap instead of scanning every bucket: a record
        whose cohort is gone is discarded; one whose cohort was
        refreshed past the cutoff is re-armed at its current time; only
        records that still describe an expired live cohort evict.
        """
        heap = self._evict_heap
        expired = []
        while heap and heap[0][0] < cutoff:
            cohort = heapq.heappop(heap)[2]
            if cohort.bucket is None:
                continue  # stale record: cohort was evicted or handed off
            if cohort.latest_trigger_time >= cutoff:
                self._arm(cohort)
            else:
                expired.append(cohort)
        evicted = self._remove(expired)
        if PERF.enabled:
            PERF.count("vlqt.evicted", evicted)
        return evicted

    def pop_matching(self, should_move: Callable[[int], bool]) -> list[StoredCohort]:
        moved = [cohort for cohort in self if should_move(cohort.routing_ident)]
        self._remove(moved)
        return moved

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StoredCohort]:
        for level2 in self._buckets.values():
            for bucket in level2.values():
                yield from bucket.cohorts


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
