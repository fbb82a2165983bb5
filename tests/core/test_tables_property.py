"""Hypothesis property tests on the two-level hash tables.

Random operation sequences against simple reference models: the tables
must agree with a flat list implementation on membership, counts,
eviction and handoff filtering.
"""

from hypothesis import given, settings, strategies as st

from repro.core.tables import (
    StoredTuple,
    ValueLevelQueryTable,
    ValueLevelTupleTable,
)
from repro.sql.parser import parse_query
from repro.sql.query import LEFT, Subscriber, rewrite
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

from .reference_rewriter import member_keys

R = Relation("R", ("A", "B"))
S = Relation("S", ("D", "E"))
SUB = Subscriber("n", 1, "ip")
BASE_QUERY = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.E")


def make_rewritten(key_index, a, b, pub):
    query = BASE_QUERY.with_subscription(f"q{key_index}", 0.0, SUB)
    return rewrite(query, LEFT, DataTuple(R, (a, b), pub))


value = st.integers(min_value=0, max_value=3)


class TestVLTTProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(value, value, st.floats(min_value=0, max_value=100)),
            max_size=30,
        ),
        st.floats(min_value=0, max_value=100),
    )
    def test_matches_flat_model(self, tuples, cutoff):
        table = ValueLevelTupleTable()
        model = []
        for d, e, pub in tuples:
            stored = StoredTuple(DataTuple(S, (d, e), pub), "E", routing_ident=d)
            table.add(stored)
            model.append(stored)
        assert len(table) == len(model)

        # Candidate lookups agree with a linear scan.
        for probe in range(4):
            got = {id(s) for s in table.candidates("S", "E", probe)}
            want = {
                id(s) for s in model if s.tuple.value("E") == probe
            }
            assert got == want

        # Eviction agrees with the model.
        evicted = table.evict_older_than(cutoff)
        survivors = [s for s in model if s.tuple.pub_time >= cutoff]
        assert evicted == len(model) - len(survivors)
        assert len(table) == len(survivors)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(value, value), min_size=1, max_size=20),
        value,
    )
    def test_pop_matching_partitions(self, tuples, moved_ident):
        table = ValueLevelTupleTable()
        for d, e in tuples:
            table.add(StoredTuple(DataTuple(S, (d, e), 0.0), "E", routing_ident=d))
        total = len(table)
        moved = table.pop_matching(lambda ident: ident == moved_ident)
        assert len(moved) + len(table) == total
        assert all(s.routing_ident == moved_ident for s in moved)
        assert all(s.routing_ident != moved_ident for s in table)


class TestVLQTProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # query id
                value,  # A (bound select value)
                value,  # B (join value)
                st.floats(min_value=0, max_value=50),  # trigger time
            ),
            max_size=25,
        )
    )
    def test_key_collapsing_matches_model(self, inserts):
        table = ValueLevelQueryTable()
        model = {}
        for query_index, a, b, pub in inserts:
            rewritten = make_rewritten(query_index, a, b, pub)
            table.add(rewritten, routing_ident=0)
            (key,) = member_keys(rewritten)
            model[key] = max(model.get(key, -1.0), pub)
        assert len(table) == len(model)
        for entry in table:
            (key,) = member_keys(entry.record)
            assert entry.latest_trigger_time == model[key]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), value, value, st.floats(0, 50)),
            max_size=25,
        ),
        st.floats(min_value=0, max_value=50),
    )
    def test_eviction_by_latest_trigger(self, inserts, cutoff):
        table = ValueLevelQueryTable()
        model = {}
        for query_index, a, b, pub in inserts:
            rewritten = make_rewritten(query_index, a, b, pub)
            table.add(rewritten, 0)
            (key,) = member_keys(rewritten)
            model[key] = max(model.get(key, -1.0), pub)
        table.evict_older_than(cutoff)
        survivors = {k for k, t in model.items() if t >= cutoff}
        assert {key for e in table for key in member_keys(e.record)} == survivors
