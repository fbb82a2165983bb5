"""Tests for the two-level hash tables (ALQT, VLQT, VLTT, projections)."""

import pytest

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
from repro.sql.query import LEFT, RIGHT, Subscriber, rewrite
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

R = Relation("R", ("A", "B"))
S = Relation("S", ("D", "E"))
SUB = Subscriber("n", 1, "ip")


def bound_query(sql="SELECT R.A, S.D FROM R, S WHERE R.B = S.E", key="q0", t=0.0):
    return parse_query(sql).with_subscription(key, t, SUB)


def rewritten(key="q0", b=7, a=10, pub=1.0):
    query = bound_query(key=key)
    return rewrite(query, LEFT, DataTuple(R, (a, b), pub))


class TestALQT:
    def test_add_and_lookup_by_index_attribute(self):
        table = AttributeLevelQueryTable()
        stored = StoredQuery(bound_query(), LEFT, routing_ident=5)
        table.add(stored)
        groups = table.groups_for("R", "B")
        assert len(groups) == 1
        assert groups[0].entries == [stored]
        assert table.groups_for("S", "E") == []
        assert len(table) == 1

    def test_groups_by_join_signature(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(key="q1"), LEFT, 0))
        table.add(
            StoredQuery(
                bound_query("SELECT R.B, S.D FROM R, S WHERE R.B = S.E", key="q2"),
                LEFT,
                0,
            )
        )
        table.add(
            StoredQuery(
                bound_query("SELECT R.A, S.D FROM R, S WHERE R.A = S.E", key="q3"),
                LEFT,
                0,
            )
        )
        groups_b = table.groups_for("R", "B")
        assert len(groups_b) == 1 and len(groups_b[0]) == 2
        groups_a = table.groups_for("R", "A")
        assert len(groups_a) == 1 and len(groups_a[0]) == 1

    def test_right_side_indexed_under_right_attribute(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(), RIGHT, 0))
        assert len(table.groups_for("S", "E")) == 1
        assert table.groups_for("R", "B") == []

    def test_remove_by_key(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(key="q1"), LEFT, 0))
        table.add(StoredQuery(bound_query(key="q2"), LEFT, 0))
        assert table.remove("q1") == 1
        assert len(table) == 1
        remaining = table.groups_for("R", "B")[0]
        assert remaining.entries[0].query.key == "q2"

    def test_remove_clears_empty_group(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(key="q1"), LEFT, 0))
        table.remove("q1")
        assert table.groups_for("R", "B") == []

    def test_pop_matching_moves_by_routing_ident(self):
        table = AttributeLevelQueryTable()
        keep = StoredQuery(bound_query(key="q1"), LEFT, routing_ident=1)
        move = StoredQuery(bound_query(key="q2"), LEFT, routing_ident=2)
        table.add(keep)
        table.add(move)
        moved = table.pop_matching(lambda ident: ident == 2)
        assert moved == [move]
        assert len(table) == 1

    def test_iteration(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(key="q1"), LEFT, 0))
        table.add(StoredQuery(bound_query(key="q2"), RIGHT, 0))
        assert {entry.query.key for entry in table} == {"q1", "q2"}


class TestVLQT:
    def test_add_new(self):
        table = ValueLevelQueryTable()
        record = rewritten()
        assert table.add(record, routing_ident=9) is record  # all of it is new
        (cohort,) = table
        assert cohort.record is record and record.member_keys() == ("q0+10+7",)
        assert cohort.routing_ident == 9
        assert cohort.latest_trigger_time == 1.0
        assert len(table) == 1

    def test_duplicate_key_refreshes_time(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(pub=1.0), 9)
        assert table.add(rewritten(pub=5.0), 9) is None
        (entry,) = table
        assert entry.latest_trigger_time == 5.0
        assert len(table) == 1

    def test_refresh_never_moves_backwards(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(pub=5.0), 9)
        table.add(rewritten(pub=1.0), 9)
        (entry,) = table
        assert entry.latest_trigger_time == 5.0

    def test_window_expired_entry_is_returned_for_evaluation(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(pub=1.0), 9, window=3.0)
        assert table.add(rewritten(pub=3.0), 9, window=3.0) is None
        late = rewritten(pub=9.0)
        assert table.add(late, 9, window=3.0) is late
        (entry,) = table
        assert entry.latest_trigger_time == 9.0 and len(table) == 1

    def group_record(self, keys=("q1", "q2", "q3"), a=10, pub=1.0):
        alqt = AttributeLevelQueryTable()
        for key in keys:
            alqt.add(StoredQuery(bound_query(key=key), LEFT, 0))
        (group,) = alqt.groups_for("R", "B")
        return rewrite(group, LEFT, DataTuple(R, (a, 7), pub))

    def test_one_entry_per_group_member(self):
        """TS counts members: a group record is stored as one cohort
        that counts as three entries."""
        record = self.group_record()
        table = ValueLevelQueryTable()
        assert table.add(record, 0) is record
        assert record.member_keys() == ("q1+10+7", "q2+10+7", "q3+10+7")
        (cohort,) = table.candidates("S", "E", 7)
        assert cohort.record is record and len(cohort) == len(table) == 3
        # The same keys from a second rewrite (other members tuple) refresh.
        assert table.add(self.group_record(pub=2.0), 0) is None
        assert len(table) == 3 and cohort.latest_trigger_time == 2.0

    def test_partial_refresh_splits_the_cohort(self):
        """A record covering part of a cohort refreshes exactly that
        part; only its unseen members are reported for evaluation."""
        table = ValueLevelQueryTable()
        table.add(self.group_record(), 0, window=3.0)
        later = self.group_record(keys=("q2", "q4"), pub=2.0)
        pending = table.add(later, 0, window=3.0)
        assert pending.member_keys() == ("q4+10+7",)
        assert len(table) == 4
        times = {
            key: cohort.latest_trigger_time
            for cohort in table.candidates("S", "E", 7)
            for key in cohort.record.member_keys()
        }
        assert times == {
            "q1+10+7": 1.0, "q3+10+7": 1.0, "q2+10+7": 2.0, "q4+10+7": 2.0
        }
        assert table.evict_older_than(1.5) == 2 and len(table) == 2

    def test_candidates_by_attribute_and_value(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(b=7), 0)
        table.add(rewritten(key="q1", b=8), 0)
        assert len(table.candidates("S", "E", 7)) == 1
        assert len(table.candidates("S", "E", 8)) == 1
        assert table.candidates("S", "E", 9) == []
        assert table.candidates("S", "D", 7) == []

    def test_evict_older_than(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(key="old", pub=1.0), 0)
        table.add(rewritten(key="new", pub=10.0), 0)
        assert table.evict_older_than(5.0) == 1
        assert len(table) == 1

    def test_pop_matching(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(key="a"), routing_ident=1)
        table.add(rewritten(key="b"), routing_ident=2)
        moved = table.pop_matching(lambda ident: ident == 1)
        assert len(moved) == 1 and len(table) == 1

    def test_insert_cohort_preserves_time(self):
        source = ValueLevelQueryTable()
        source.add(rewritten(pub=7.0), 3)
        (cohort,) = source.pop_matching(lambda ident: True)
        target = ValueLevelQueryTable()
        target.add(rewritten(pub=2.0), 5)  # already there, older, other ident
        target.add(rewritten(key="q1", pub=9.0), 5)  # unrelated, newer
        target.insert_cohort(cohort)
        assert len(target) == 2 and len(source) == 0
        # The stored copy takes the moved cohort's time and identifier.
        assert {
            c.record.member_keys(): (c.latest_trigger_time, c.routing_ident)
            for c in target
        } == {("q0+10+7",): (7.0, 3), ("q1+10+7",): (9.0, 5)}

    def test_insert_cohort_hands_its_ident_to_the_part_it_covers(self):
        """Handoff onto a cohort it covers in part: those members take
        the moved identifier (and keep their newer time), so they leave
        the cohort; the uncovered one keeps everything."""
        source = ValueLevelQueryTable()
        source.add(self.group_record(keys=("q2", "q3", "q4"), pub=1.0), 3)
        (cohort,) = source.pop_matching(lambda ident: True)
        target = ValueLevelQueryTable()
        target.add(self.group_record(pub=2.0), 5)  # q1, q2, q3
        target.insert_cohort(cohort)
        assert len(target) == 4
        assert {
            key: (c.latest_trigger_time, c.routing_ident)
            for c in target
            for key in c.record.member_keys()
        } == {
            "q1+10+7": (2.0, 5),
            "q2+10+7": (2.0, 3),
            "q3+10+7": (2.0, 3),
            "q4+10+7": (1.0, 3),
        }
        assert len(target.pop_matching(lambda ident: ident == 3)) == 2
        assert len(target) == 1


class TestVLTT:
    def s_stored(self, e=7, d=1, pub=1.0, ident=0):
        return StoredTuple(DataTuple(S, (d, e), pub), "E", ident)

    def test_add_and_candidates(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored(e=7))
        assert len(table.candidates("S", "E", 7)) == 1
        assert table.candidates("S", "E", 8) == []
        assert table.candidates("R", "E", 7) == []

    def test_duplicates_kept(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored())
        table.add(self.s_stored())
        assert len(table) == 2

    def test_evict_older_than(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored(pub=1.0))
        table.add(self.s_stored(pub=9.0))
        assert table.evict_older_than(5.0) == 1
        assert len(table) == 1

    def test_pop_matching(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored(ident=1))
        table.add(self.s_stored(ident=2))
        moved = table.pop_matching(lambda ident: ident == 2)
        assert len(moved) == 1 and len(table) == 1

    def test_iteration(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored(e=1))
        table.add(self.s_stored(e=2))
        assert len(list(table)) == 2


class TestProjectionStore:
    def projection(self, value=7, pub=1.0, a=10):
        tup = DataTuple(R, (a, value), pub)
        return StoredProjection(
            projection=tup.project(("A", "B")),
            group_signature="sig",
            value=value,
            routing_ident=0,
        )

    def test_add_and_candidates(self):
        store = ProjectionStore()
        assert store.add(self.projection())
        assert len(store.candidates("sig", "R", 7)) == 1
        assert store.candidates("sig", "R", 8) == []
        assert store.candidates("other", "R", 7) == []
        assert store.candidates("sig", "S", 7) == []

    def test_identical_content_collapsed(self):
        store = ProjectionStore()
        assert store.add(self.projection(pub=1.0))
        assert not store.add(self.projection(pub=2.0))
        assert len(store) == 1
        # The surviving copy carries the fresher publication time.
        assert store.candidates("sig", "R", 7)[0].projection.pub_time == 2.0

    def test_distinct_content_kept(self):
        store = ProjectionStore()
        store.add(self.projection(a=10))
        store.add(self.projection(a=11))
        assert len(store) == 2

    def test_evict_older_than(self):
        store = ProjectionStore()
        store.add(self.projection(pub=1.0, a=1))
        store.add(self.projection(pub=9.0, a=2))
        assert store.evict_older_than(5.0) == 1
        assert len(store) == 1

    def test_pop_matching(self):
        store = ProjectionStore()
        first = self.projection(a=1)
        second = self.projection(a=2)
        second.routing_ident = 5
        store.add(first)
        store.add(second)
        moved = store.pop_matching(lambda ident: ident == 5)
        assert len(moved) == 1 and len(store) == 1
