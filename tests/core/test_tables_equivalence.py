"""Property-based equivalence: heap-evicting tables vs. naive scans.

The optimized tables in :mod:`repro.core.tables` replace full-bucket
eviction scans with lazy min-heaps.  Each test here drives the real
table and a deliberately naive reference model (a flat store whose
eviction rescans everything — the seed implementation's semantics)
through the same random add/evict/pop/candidates sequences and asserts
the observable state never diverges: same resident entries, same
trigger times, same eviction counts, same candidate sets, same handoff
results.  The ALQT test does the same for the per-group duplicate set
and member snapshot against a list that is rescanned on every install.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tables import (
    AttributeLevelQueryTable,
    ProjectionStore,
    StoredProjection,
    StoredQuery,
    StoredTuple,
    ValueLevelQueryTable,
    ValueLevelTupleTable,
)
from repro.sql.parser import parse_query
from repro.sql.query import (
    LEFT,
    GroupMember,
    RewrittenGroup,
    RewrittenQuery,
    Subscriber,
)
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple, ProjectedTuple

SUB = Subscriber("prop", 1, "10.0.0.1")
R = Relation("R", ("A", "B"))

# Small pools keep collisions (duplicate keys, shared values) frequent.
times = st.integers(min_value=0, max_value=50).map(float)
keys = st.integers(min_value=0, max_value=9)
values = st.integers(min_value=0, max_value=4)
idents = st.integers(min_value=0, max_value=3)


def _record(key_indexes, value: int, trigger_time: float) -> RewrittenGroup:
    """A group record whose members rewrite to the keys ``q<i>+<value>``."""
    return RewrittenGroup(
        group_signature="sig",
        relation="R",
        expr=None,
        required_value=value,
        dis_attribute="A",
        dis_value=value,
        filters=(),
        trigger_pub_time=trigger_time,
        selects=((),),
        suffixes=(f"+{value}",),
        members=tuple(GroupMember(f"q{i}", SUB, 0.0, 0) for i in key_indexes),
    )


# ----------------------------------------------------------------------
# ALQT
# ----------------------------------------------------------------------

ALQT_QUERIES = [
    parse_query(f"SELECT {select} FROM R, S WHERE R.A = S.D").with_subscription(
        f"q{i}", float(i), SUB
    )
    for i, select in enumerate(["R.A, S.E", "R.B, S.E", "R.A, S.E", "S.E"])
]

alqt_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 3), idents),
        st.tuples(st.just("remove"), st.integers(0, 3)),
        st.tuples(st.just("pop"), idents),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(alqt_ops)
def test_alqt_matches_naive_reference(ops):
    """One group (all four queries share the join condition): the table
    against a flat list scanned for duplicates on every install."""
    table = AttributeLevelQueryTable()
    naive: list[StoredQuery] = []
    for op in ops:
        if op[0] == "add":
            stored = StoredQuery(ALQT_QUERIES[op[1]], LEFT, op[2])
            duplicate = any(
                e.query.key == stored.query.key and e.routing_ident == op[2]
                for e in naive
            )
            assert table.add(stored)[1] == (not duplicate)
            if not duplicate:
                naive.append(stored)
        elif op[0] == "remove":
            key = ALQT_QUERIES[op[1]].key
            assert table.remove(key) == sum(e.query.key == key for e in naive)
            naive = [e for e in naive if e.query.key != key]
        else:
            moved = table.pop_matching(lambda ident: ident <= op[1])
            assert moved == [e for e in naive if e.routing_ident <= op[1]]
            naive = [e for e in naive if e.routing_ident > op[1]]
        groups = table.groups_for("R", "A")
        assert len(table) == len(naive) and bool(groups) == bool(naive)
        if not naive:
            continue
        (group,) = groups
        assert group.entries == naive
        # The member snapshot: one member per query key, install order.
        plan = group.rewrite_plan(LEFT)
        assert [m.query_key for m in plan.members] == list(
            dict.fromkeys(e.query.key for e in naive)
        )
        assert plan.newest_insertion == max(e.query.insertion_time for e in naive)
        for member in plan.members:
            query = ALQT_QUERIES[int(member.query_key[1:])]
            bound = [ref.attribute for ref in query.select if ref.relation == "R"]
            assert [
                attribute for attribute, _ in plan.select_specs[member.select_index]
                if attribute is not None
            ] == bound


# ----------------------------------------------------------------------
# VLQT
# ----------------------------------------------------------------------

vlqt_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.lists(keys, min_size=1, max_size=3, unique=True),
            values,
            times,
            idents,
        ),
        st.tuples(st.just("evict"), times),
        st.tuples(st.just("pop"), idents),
        st.tuples(st.just("candidates"), values),
    ),
    max_size=60,
)


class NaiveVLQT:
    """Reference model: one flat dict, eviction rescans every entry."""

    def __init__(self):
        self.entries: dict[str, list] = {}  # key -> [ident, latest_time, value]

    def add(self, rewritten: RewrittenQuery, ident: int) -> None:
        entry = self.entries.get(rewritten.key)
        if entry is not None:
            if rewritten.trigger_pub_time > entry[1]:
                entry[1] = rewritten.trigger_pub_time
            return
        self.entries[rewritten.key] = [ident, rewritten.trigger_pub_time, rewritten.dis_value]

    def evict_older_than(self, cutoff: float) -> int:
        dead = [key for key, entry in self.entries.items() if entry[1] < cutoff]
        for key in dead:
            del self.entries[key]
        return len(dead)

    def pop_matching(self, should_move) -> list[str]:
        moved = [key for key, entry in self.entries.items() if should_move(entry[0])]
        for key in moved:
            del self.entries[key]
        return sorted(moved)

    def candidates(self, value: int) -> list[str]:
        return sorted(key for key, entry in self.entries.items() if entry[2] == value)

    def state(self) -> dict:
        return {key: (entry[0], entry[1]) for key, entry in self.entries.items()}


@settings(max_examples=80, deadline=None)
@given(vlqt_ops)
def test_vlqt_matches_naive_reference(ops):
    table = ValueLevelQueryTable()
    naive = NaiveVLQT()
    for op in ops:
        if op[0] == "add":
            _, key_indexes, value, time, ident = op
            record = _record(key_indexes, value, time)
            new = table.add(record, ident)
            assert [rq.key for rq in new] == [
                key for key in record.member_keys() if key not in naive.entries
            ]
            for member in record.members:
                naive.add(record.expand(member), ident)
        elif op[0] == "evict":
            assert table.evict_older_than(op[1]) == naive.evict_older_than(op[1])
        elif op[0] == "pop":
            threshold = op[1]
            moved = table.pop_matching(lambda ident: ident <= threshold)
            assert sorted(e.rewritten.key for e in moved) == naive.pop_matching(
                lambda ident: ident <= threshold
            )
        else:
            got = table.candidates("R", "A", op[1])
            assert sorted(e.rewritten.key for e in got) == naive.candidates(op[1])
        assert len(table) == len(naive.entries)
        assert {
            e.rewritten.key: (e.routing_ident, e.latest_trigger_time) for e in table
        } == naive.state()


# ----------------------------------------------------------------------
# VLTT
# ----------------------------------------------------------------------

vltt_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), values, values, times, idents),
        st.tuples(st.just("evict"), times),
        st.tuples(st.just("pop"), idents),
        st.tuples(st.just("candidates"), values),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(vltt_ops)
def test_vltt_matches_naive_reference(ops):
    table = ValueLevelTupleTable()
    naive: list[StoredTuple] = []  # reference: flat list, full-scan evict
    for op in ops:
        if op[0] == "add":
            _, a, b, time, ident = op
            stored = StoredTuple(DataTuple(R, (a, b), time), "A", ident)
            table.add(stored)
            naive.append(stored)
        elif op[0] == "evict":
            cutoff = op[1]
            expected = sum(1 for s in naive if s.tuple.pub_time < cutoff)
            naive = [s for s in naive if s.tuple.pub_time >= cutoff]
            assert table.evict_older_than(cutoff) == expected
        elif op[0] == "pop":
            threshold = op[1]
            moved = table.pop_matching(lambda ident: ident <= threshold)
            expected_moved = [s for s in naive if s.routing_ident <= threshold]
            naive = [s for s in naive if s.routing_ident > threshold]
            assert sorted(id(s) for s in moved) == sorted(id(s) for s in expected_moved)
        else:
            got = table.candidates("R", "A", op[1])
            expected = [s for s in naive if s.tuple.value("A") == op[1]]
            assert sorted(id(s) for s in got) == sorted(id(s) for s in expected)
        assert len(table) == len(naive)
        assert sorted(id(s) for s in table) == sorted(id(s) for s in naive)


# ----------------------------------------------------------------------
# ProjectionStore
# ----------------------------------------------------------------------

projection_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), values, values, times, idents),
        st.tuples(st.just("evict"), times),
        st.tuples(st.just("candidates"), values),
    ),
    max_size=60,
)


class NaiveProjections:
    """Reference: flat list, duplicate items collapse to the newer copy."""

    def __init__(self):
        self.entries: list[StoredProjection] = []

    def add(self, stored: StoredProjection) -> bool:
        for existing in self.entries:
            if (
                existing.group_signature == stored.group_signature
                and existing.projection.relation_name == stored.projection.relation_name
                and existing.value == stored.value
                and existing.projection.items == stored.projection.items
            ):
                if stored.projection.pub_time > existing.projection.pub_time:
                    existing.projection = stored.projection
                return False
        self.entries.append(stored)
        return True

    def evict_older_than(self, cutoff: float) -> int:
        dead = [s for s in self.entries if s.projection.pub_time < cutoff]
        self.entries = [s for s in self.entries if s.projection.pub_time >= cutoff]
        return len(dead)

    def candidates(self, value: int) -> list:
        return [s for s in self.entries if s.value == value]

    def state(self) -> list:
        return sorted(
            (s.value, s.projection.items, s.projection.pub_time) for s in self.entries
        )


@settings(max_examples=80, deadline=None)
@given(projection_ops)
def test_projection_store_matches_naive_reference(ops):
    store = ProjectionStore()
    naive = NaiveProjections()
    for op in ops:
        if op[0] == "add":
            _, a, value, time, ident = op
            projection = ProjectedTuple("R", (("A", a),), time)

            def make(p=projection, v=value, i=ident):
                return StoredProjection(
                    projection=p, group_signature="sig", value=v, routing_ident=i
                )

            # Separate instances: the store may mutate its own copy on a
            # duplicate with a newer pub_time.
            assert store.add(make()) == naive.add(make())
        elif op[0] == "evict":
            assert store.evict_older_than(op[1]) == naive.evict_older_than(op[1])
        else:
            got = store.candidates("sig", "R", op[1])
            expected = naive.candidates(op[1])
            assert sorted(
                (s.value, s.projection.items, s.projection.pub_time) for s in got
            ) == sorted(
                (s.value, s.projection.items, s.projection.pub_time) for s in expected
            )
        assert len(store) == len(naive.entries)
        assert (
            sorted((s.value, s.projection.items, s.projection.pub_time) for s in store)
            == naive.state()
        )
