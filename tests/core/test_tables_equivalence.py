"""Property-based equivalence: heap-evicting tables vs. naive scans.

The optimized tables in :mod:`repro.core.tables` replace full-bucket
eviction scans with lazy min-heaps.  Each test here drives the real
table and a deliberately naive reference model (a flat store whose
eviction rescans everything — the seed implementation's semantics; for
the VLQT the per-member table that cohort storage replaced)
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
from repro.perf import PERF
from repro.sql.query import (
    LEFT,
    GroupMember,
    GroupShape,
    PendingAttr,
    Subscriber,
    bind,
)
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple, ProjectedTuple

from .reference_rewriter import member_keys
from .reference_tables import FlatValueLevelQueryTable

SUB = Subscriber("prop", 1, "10.0.0.1")
R = Relation("R", ("A", "B"))

# Small pools keep collisions (duplicate keys, shared values) frequent.
times = st.integers(min_value=0, max_value=50).map(float)
values = st.integers(min_value=0, max_value=4)
idents = st.integers(min_value=0, max_value=3)


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
        shape = plan.shape
        assert [m.query_key for m in shape.members] == list(
            dict.fromkeys(e.query.key for e in naive)
        )
        assert plan.newest_insertion == max(e.query.insertion_time for e in naive)
        # One bound attribute per distinct one the lists read; each list
        # reads its run of them by position.
        assert len(set(plan.bound_attributes)) == len(plan.bound_attributes)
        bound_by_list = [
            [plan.bound_attributes[item] for item in spec if type(item) is int]
            for spec in shape.select_specs
        ]
        assert set(plan.bound_attributes) == {
            attribute for run in bound_by_list for attribute in run
        }
        for member in shape.members:
            query = ALQT_QUERIES[int(member.query_key[1:])]
            bound = [ref.attribute for ref in query.select if ref.relation == "R"]
            assert bound_by_list[member.select_index] == bound


# ----------------------------------------------------------------------
# VLQT
# ----------------------------------------------------------------------

#: Eight queries in two groups; within a group three select lists.  List
#: 0 and 1 each bind one trigger value, list 2 binds none, so two lists
#: of one record can share a suffix and two triggers can agree on one
#: list's suffix while differing on another's.
VLQT_QUERIES = [
    (f"q{i}", "sigX" if i < 6 else "sigY", i % 3, float(i % 4)) for i in range(8)
]
#: Per select list: which of the trigger's two bound values each item
#: binds (an int), or the attribute it leaves pending.
VLQT_SELECTS = [(0, "B"), ("A", 1), ("A", "B")]


def _group_record(signature, query_indexes, list_order, bound, value, time):
    """What ``rewrite()`` would ship for one trigger of one group.

    ``list_order`` fixes how the record numbers its select lists (plans
    renumber them as queries come and go); lists no member uses still
    get a slot, as after ``restrict``.
    """
    members = tuple(
        GroupMember(key, SUB, inserted, list_order.index(select_list))
        for key, sig, select_list, inserted in (VLQT_QUERIES[i] for i in query_indexes)
        if sig == signature
    )
    if not members:
        return None
    lists = [VLQT_SELECTS[select_list] for select_list in list_order]
    shape = GroupShape(
        group_signature=signature,
        relation="R",
        expr=None,
        dis_attribute="A",
        filters=(),
        members=members,
        select_specs=tuple(
            tuple(item if type(item) is int else PendingAttr(item) for item in items)
            for items in lists
        ),
    )
    return bind(shape, value, value, time, tuple(bound))


vlqt_values = st.integers(min_value=0, max_value=2)
vlqt_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(["sigX", "sigY"]),
            st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
            st.permutations([0, 1, 2]),
            st.tuples(st.integers(0, 1), st.integers(0, 1)),
            vlqt_values,
            times,
            idents,
        ),
        # The previous record's keys again (a member subset, any list
        # numbering) under a new time and identifier: refreshes, partial
        # covers and, across a "pop", handoff onto a stored copy.
        st.tuples(
            st.just("again"),
            st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
            st.permutations([0, 1, 2]),
            times,
            idents,
        ),
        st.tuples(st.just("evict"), times),
        st.tuples(st.just("pop"), idents, st.booleans()),
        st.tuples(st.just("candidates"), vlqt_values),
    ),
    max_size=60,
)


def _cohort_views(cohorts) -> list[tuple]:
    """What a probe sees per member: key, select items, TS fields."""
    return [
        (key, cohort.record.selects[member.select_index],
         cohort.routing_ident, cohort.latest_trigger_time)
        for cohort in cohorts
        for member, key in zip(cohort.record.shape.members, member_keys(cohort.record))
    ]


def _flat_views(entries) -> list[tuple]:
    return [
        (e.rewritten.key, e.rewritten.select, e.routing_ident, e.latest_trigger_time)
        for e in entries
    ]


@settings(max_examples=300, deadline=None)
@given(vlqt_ops, st.sampled_from([None, 4.0, 15.0]))
def test_vlqt_matches_naive_reference(ops, window):
    """The cohort table against the per-member table it replaced
    (``reference_tables``), driven with group records: the same suffix
    under different ``suffixes`` tuples, member subsets, members that
    joined between triggers, refresh times older than the stored one,
    window expiry, eviction interleaved with adds, and handoff into a
    second table (and back).  Routing identifiers are drawn per step, so
    one bucket mixes them: a refresh keeps the stored one, a handoff onto
    a stored copy hands its own over (splitting a cohort it covers in
    part).

    After every step both agree on ``len``, eviction counts, what
    ``add`` reports as still to evaluate (in record order) and, per
    member, on key, select items, routing identifier and trigger time.
    A probe visits members in the per-member table's order until a
    cohort is split; from then on the refreshed part of a split cohort
    comes after its remainder (the per-member table kept them
    interleaved), so only the visited *set* is compared — a probe's
    notifications are a set, the order only arranges the batch.
    """
    tables = (ValueLevelQueryTable(), ValueLevelQueryTable())
    flats = (FlatValueLevelQueryTable(), FlatValueLevelQueryTable())
    PERF.reset()
    PERF.enable()
    last_add = None
    try:
        for op in ops:
            if op[0] == "again":
                if last_add is None:
                    continue
                _, signature, _, _, bound, value, _, _ = last_add
                op = ("add", signature, op[1], op[2], bound, value, op[3], op[4])
            if op[0] == "add":
                last_add = op
                _, signature, query_indexes, list_order, bound, value, time, ident = op
                record = _group_record(
                    signature, query_indexes, list_order, bound, value, time
                )
                if record is None:
                    continue
                pending = tables[0].add(record, ident, window)
                expected = flats[0].add(record, ident, window)
                assert (
                    [] if pending is None else list(member_keys(pending))
                ) == [rq.key for rq in expected]
                if pending is not None and len(expected) == len(record.shape.members):
                    assert pending is record
            elif op[0] == "evict":
                for table, flat in zip(tables, flats):
                    assert table.evict_older_than(op[1]) == flat.evict_older_than(op[1])
            elif op[0] == "pop":
                _, threshold, backwards = op
                source, target = (1, 0) if backwards else (0, 1)
                moved = tables[source].pop_matching(lambda ident: ident <= threshold)
                flat_moved = flats[source].pop_matching(lambda ident: ident <= threshold)
                assert sorted(_cohort_views(moved)) == sorted(_flat_views(flat_moved))
                for cohort in moved:
                    tables[target].insert_cohort(cohort)
                for entry in flat_moved:
                    flats[target].insert_entry(entry)
            else:
                for table, flat in zip(tables, flats):
                    seen = _cohort_views(table.candidates("R", "A", op[1]))
                    expected = _flat_views(flat.candidates("R", "A", op[1]))
                    assert len(seen) == len(expected)  # TF of the probe
                    if not PERF.counter("vlqt.cohorts.split"):
                        assert seen == expected
                    assert sorted(seen) == sorted(expected)
            for table, flat in zip(tables, flats):
                assert len(table) == len(flat)
                assert sorted(_cohort_views(table)) == sorted(_flat_views(flat))
                assert sum(len(cohort) for cohort in table) == len(table)
    finally:
        PERF.disable()
        PERF.reset()


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
