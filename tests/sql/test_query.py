"""Tests for query objects, rewriting and rewritten-query semantics."""

import pytest

from repro.errors import QueryError
from repro.sql.expr import AttrRef, BinaryOp, Const
from repro.sql.parser import parse_query
from repro.sql.query import (
    LEFT,
    RIGHT,
    BoundValue,
    JoinQuery,
    LocalFilter,
    PendingAttr,
    QuerySide,
    Subscriber,
)
from repro.sql.query import rewrite as rewrite_group
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

R = Relation("R", ("A", "B", "C"))
S = Relation("S", ("D", "E", "F"))
SUB = Subscriber("n1", 42, "10.0.0.1")


def simple_query(**kwargs):
    query = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
    return query.with_subscription(
        kwargs.get("key", "n1#0"), kwargs.get("insertion_time", 1.0), SUB
    )


def rewrite(query, label, trigger):
    """A lone query is a group of one: its only member, expanded."""
    record = rewrite_group(query, label, trigger)
    (member,) = record.members
    return record.expand(member)


def r_tuple(a, b, c, pub=5.0):
    return DataTuple(R, (a, b, c), pub)


def s_tuple(d, e, f, pub=5.0):
    return DataTuple(S, (d, e, f), pub)


class TestQuerySide:
    def test_rejects_foreign_relation_in_expr(self):
        with pytest.raises(QueryError):
            QuerySide("R", AttrRef("S", "D"))

    def test_rejects_constant_expr(self):
        with pytest.raises(QueryError):
            QuerySide("R", Const(1))

    def test_join_attributes_sorted(self):
        side = QuerySide("R", BinaryOp("+", AttrRef("R", "C"), AttrRef("R", "A")))
        assert side.join_attributes == ("A", "C")

    def test_single_attribute(self):
        assert QuerySide("R", AttrRef("R", "B")).single_attribute == "B"
        assert QuerySide("R", BinaryOp("+", AttrRef("R", "B"), Const(1))).single_attribute is None

    def test_accepts_checks_filters(self):
        side = QuerySide("R", AttrRef("R", "B"), (LocalFilter("C", 9),))
        assert side.accepts(r_tuple(1, 2, 9))
        assert not side.accepts(r_tuple(1, 2, 8))

    def test_signature_includes_filters(self):
        bare = QuerySide("R", AttrRef("R", "B"))
        filtered = QuerySide("R", AttrRef("R", "B"), (LocalFilter("C", 9),))
        assert bare.signature() != filtered.signature()


class TestJoinQuery:
    def test_type_classification(self):
        assert simple_query().query_type == "T1"
        # Linear single-attribute sides keep the unique-solution
        # property, so they are T1 too (paper Section 3.2).
        linear = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B + 1 = S.E")
        assert linear.query_type == "T1"
        t2 = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B + R.C = S.E")
        assert t2.query_type == "T2"

    def test_self_join_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery(
                select=(AttrRef("R", "A"),),
                left=QuerySide("R", AttrRef("R", "A")),
                right=QuerySide("R", AttrRef("R", "B")),
            )

    def test_select_outside_from_rejected(self):
        with pytest.raises(QueryError):
            JoinQuery(
                select=(AttrRef("T", "X"),),
                left=QuerySide("R", AttrRef("R", "A")),
                right=QuerySide("S", AttrRef("S", "D")),
            )

    def test_side_access(self):
        query = simple_query()
        assert query.side(LEFT).relation == "R"
        assert query.side(RIGHT).relation == "S"
        assert query.other_label(LEFT) == RIGHT
        with pytest.raises(QueryError):
            query.side("middle")

    def test_side_for_relation(self):
        query = simple_query()
        assert query.side_for_relation("R") == LEFT
        assert query.side_for_relation("S") == RIGHT
        with pytest.raises(QueryError):
            query.side_for_relation("T")

    def test_index_attribute_t1(self):
        query = simple_query()
        assert query.index_attribute(LEFT) == "B"
        assert query.index_attribute(RIGHT) == "E"

    def test_index_attribute_t2_deterministic(self):
        query = parse_query(
            "SELECT R.A, S.D FROM R, S WHERE R.C + R.B = S.E + S.F"
        )
        assert query.index_attribute(LEFT) == "B"  # first in sorted order
        assert query.index_attribute(RIGHT) == "E"

    def test_join_signature_groups_equivalent_queries(self):
        first = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        second = parse_query("SELECT R.C, S.F FROM R, S WHERE R.B = S.E")
        assert first.join_signature() == second.join_signature()

    def test_join_signature_distinguishes_conditions(self):
        first = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.E")
        second = parse_query("SELECT R.A, S.D FROM R, S WHERE R.C = S.E")
        assert first.join_signature() != second.join_signature()

    def test_with_subscription_binds(self):
        query = simple_query(key="k", insertion_time=3.0)
        assert query.key == "k"
        assert query.insertion_time == 3.0
        assert query.subscriber == SUB


class TestRewrite:
    def test_rewrite_left_trigger(self):
        query = simple_query()
        rewritten = rewrite(query, LEFT, r_tuple(10, 7, 0))
        assert rewritten.relation == "S"
        assert rewritten.dis_attribute == "E"
        assert rewritten.required_value == 7
        assert rewritten.select == (BoundValue(10), PendingAttr("D"))
        assert rewritten.trigger_pub_time == 5.0
        assert rewritten.original_key == query.key

    def test_rewrite_right_trigger(self):
        query = simple_query()
        rewritten = rewrite(query, RIGHT, s_tuple(20, 7, 0))
        assert rewritten.relation == "R"
        assert rewritten.dis_attribute == "B"
        assert rewritten.select == (PendingAttr("A"), BoundValue(20))

    def test_rewrite_wrong_relation_rejected(self):
        with pytest.raises(QueryError):
            rewrite(simple_query(), LEFT, s_tuple(1, 2, 3))

    def test_key_formula(self):
        """Key(q') = Key(q) + select values + valDA (Section 4.3.3)."""
        query = simple_query(key="Q")
        rewritten = rewrite(query, LEFT, r_tuple(10, 7, 0))
        assert rewritten.key == "Q+10+7"

    def test_keys_collide_for_equivalent_triggers(self):
        query = simple_query()
        first = rewrite(query, LEFT, r_tuple(10, 7, 0))
        second = rewrite(query, LEFT, r_tuple(10, 7, 99))  # differs only on C
        assert first.key == second.key

    def test_keys_differ_for_different_select_values(self):
        query = simple_query()
        first = rewrite(query, LEFT, r_tuple(10, 7, 0))
        second = rewrite(query, LEFT, r_tuple(11, 7, 0))
        assert first.key != second.key

    def test_keys_differ_for_different_join_values(self):
        query = simple_query()
        first = rewrite(query, LEFT, r_tuple(10, 7, 0))
        second = rewrite(query, LEFT, r_tuple(10, 8, 0))
        assert first.key != second.key

    def test_t2_value_computed(self):
        query = parse_query(
            "SELECT R.A, S.D FROM R, S WHERE 4 * R.B + R.C + 8 = 5 * S.E + S.D - S.F"
        ).with_subscription("k", 0.0, SUB)
        rewritten = rewrite(query, LEFT, r_tuple(1, 4, 9))
        assert rewritten.required_value == 4 * 4 + 9 + 8
        assert rewritten.dis_attribute is None  # T2 side is an expression

    def test_division_value_canonicalized(self):
        query = parse_query(
            "SELECT R.A, S.D FROM R, S WHERE R.B / 2 = S.E"
        ).with_subscription("k", 0.0, SUB)
        rewritten = rewrite(query, LEFT, r_tuple(1, 8, 0))
        assert rewritten.required_value == 4
        assert isinstance(rewritten.required_value, int)


class TestRewrittenQueryMatching:
    def test_matches_checks_value(self):
        rewritten = rewrite(simple_query(), LEFT, r_tuple(10, 7, 0))
        assert rewritten.matches(s_tuple(1, 7, 0))
        assert not rewritten.matches(s_tuple(1, 8, 0))

    def test_matches_skip_value_check(self):
        rewritten = rewrite(simple_query(), LEFT, r_tuple(10, 7, 0))
        assert rewritten.matches(s_tuple(1, 8, 0), check_value=False)

    def test_matches_enforces_time_semantics(self):
        query = simple_query(insertion_time=10.0)
        rewritten = rewrite(query, LEFT, r_tuple(10, 7, 0, pub=11.0))
        assert not rewritten.matches(s_tuple(1, 7, 0, pub=9.0))
        assert rewritten.matches(s_tuple(1, 7, 0, pub=10.0))

    def test_matches_enforces_filters(self):
        query = parse_query(
            "SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.F = 1"
        ).with_subscription("k", 0.0, SUB)
        rewritten = rewrite(query, LEFT, r_tuple(10, 7, 0))
        assert rewritten.matches(s_tuple(1, 7, 1))
        assert not rewritten.matches(s_tuple(1, 7, 2))

    def test_result_row_combines_bound_and_pending(self):
        rewritten = rewrite(simple_query(), LEFT, r_tuple(10, 7, 0))
        assert rewritten.result_row(s_tuple(33, 7, 0)) == (10, 33)

    def test_needed_attributes(self):
        query = parse_query(
            "SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.F = 1"
        ).with_subscription("k", 0.0, SUB)
        rewritten = rewrite(query, LEFT, r_tuple(10, 7, 0))
        assert rewritten.needed_attributes == ("D", "E", "F")


class TestRewrittenGroup:
    """One rewrite covers every query of a group (Section 4.3.5)."""

    class Group:
        """The least a rewrite source is: something with a plan."""

        def __init__(self, *queries):
            from repro.sql.query import RewritePlan

            self.plan = RewritePlan(queries, LEFT)

        def rewrite_plan(self, index_label):
            return self.plan

    def query(self, key, select="R.A, S.D", insertion_time=1.0):
        sql = f"SELECT {select} FROM R, S WHERE R.B = S.E"
        return parse_query(sql).with_subscription(key, insertion_time, SUB)

    def test_shared_fields_once_and_one_suffix_per_select_list(self):
        group = self.Group(
            self.query("q1"), self.query("q2", "R.C, S.D"), self.query("q3")
        )
        record = rewrite_group(group, LEFT, r_tuple(10, 7, 3))
        assert record.required_value == record.dis_value == 7
        assert record.suffixes == ("+10+7", "+3+7")
        assert [m.select_index for m in record.members] == [0, 1, 0]
        assert record.member_keys() == ("q1+10+7", "q2+3+7", "q3+10+7")
        flat = record.expand(record.members[1])
        assert flat.key == "q2+3+7" and flat.original_key == "q2"
        assert flat.select == (BoundValue(3), PendingAttr("D"))

    def test_replica_copies_of_a_query_are_one_member(self):
        query = self.query("q1")
        record = rewrite_group(self.Group(query, query), LEFT, r_tuple(10, 7, 0))
        assert len(record.members) == 1

    def test_members_younger_than_the_trigger_are_left_out(self):
        group = self.Group(self.query("old"), self.query("new", insertion_time=9.0))
        record = rewrite_group(group, LEFT, r_tuple(10, 7, 0, pub=5.0))
        assert [m.query_key for m in record.members] == ["old"]
        assert rewrite_group(group, LEFT, r_tuple(10, 7, 0, pub=0.5)) is None

    def test_index_side_filter_rejects_the_whole_group(self):
        query = parse_query(
            "SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND R.C = 1"
        ).with_subscription("k", 0.0, SUB)
        assert rewrite_group(query, LEFT, r_tuple(10, 7, 2)) is None
        assert rewrite_group(query, LEFT, r_tuple(10, 7, 1)) is not None

    def test_restrict_keeps_the_chosen_members(self):
        group = self.Group(self.query("q1"), self.query("q2"), self.query("q3"))
        record = rewrite_group(group, LEFT, r_tuple(10, 7, 0))
        record.member_keys()
        kept = record.restrict((0, 2))
        assert [m.query_key for m in kept.members] == ["q1", "q3"]
        assert kept.member_keys() == ("q1+10+7", "q3+10+7")
