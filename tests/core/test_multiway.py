"""Tests for the multiway-join pipeline (extension, DESIGN.md)."""

import random

import pytest

from multiway import brute_force_rows, parse_multiway_query, subscribe_multiway
from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema
from repro.errors import QueryError

SCHEMA = Schema.from_dict(
    {
        "R": ["A", "B"],
        "S": ["E", "F"],
        "T": ["Y", "Z"],
        "U": ["P", "Q"],
    }
)

THREE_WAY = "SELECT R.A, S.F, T.Z FROM R, S, T WHERE R.B = S.E AND S.F = T.Y"


def make_engine(algorithm="dai-t", n_nodes=48, **kwargs):
    network = ChordNetwork.build(n_nodes)
    return ContinuousQueryEngine(
        network, EngineConfig(algorithm=algorithm, index_choice="random", **kwargs)
    )


def publish_all(engine, specs):
    """Publish (relation_name, values) pairs, advancing the clock."""
    published = []
    for name, values in specs:
        engine.clock.advance(1)
        relation = SCHEMA.relation(name)
        published.append(
            engine.publish(engine.network.nodes[1], relation, values)
        )
    return published


class TestMultiwayQueryModel:
    def test_chain_ordering_from_shuffled_from(self):
        query = parse_multiway_query(
            "SELECT R.A, T.Z FROM S, T, R WHERE S.F = T.Y AND R.B = S.E", SCHEMA
        )
        assert query.relations in (("R", "S", "T"), ("T", "S", "R"))

    def test_four_way_chain(self):
        query = parse_multiway_query(
            "SELECT R.A, U.Q FROM R, S, T, U "
            "WHERE R.B = S.E AND S.F = T.Y AND T.Z = U.P",
            SCHEMA,
        )
        assert len(query.relations) == 4
        assert len(query.conditions) == 3

    def test_star_graph_rejected(self):
        with pytest.raises(QueryError):
            parse_multiway_query(
                "SELECT R.A, U.Q FROM R, S, T, U "
                "WHERE R.B = S.E AND R.B = T.Y AND R.A = U.P",
                SCHEMA,
            )

    def test_disconnected_graph_rejected(self):
        with pytest.raises(QueryError):
            parse_multiway_query(
                "SELECT R.A, U.Q FROM R, S, T, U "
                "WHERE R.B = S.E AND T.Z = U.P AND R.B = S.F",
                SCHEMA,
            )

    def test_wrong_condition_count_rejected(self):
        with pytest.raises(QueryError):
            parse_multiway_query(
                "SELECT R.A, T.Z FROM R, S, T WHERE R.B = S.E", SCHEMA
            )

    def test_expression_conditions_rejected(self):
        with pytest.raises(QueryError):
            parse_multiway_query(
                "SELECT R.A, T.Z FROM R, S, T "
                "WHERE R.B + 1 = S.E AND S.F = T.Y",
                SCHEMA,
            )

    def test_filters_attached_to_relations(self):
        query = parse_multiway_query(THREE_WAY + " AND T.Z = 5", SCHEMA)
        assert query.filters_for("T")[0].value == 5
        assert query.filters_for("R") == ()


class TestBruteForceOracle:
    def test_hand_computed_three_way(self):
        query = parse_multiway_query(THREE_WAY, SCHEMA)
        R, S, T = (SCHEMA.relation(n) for n in "RST")
        from repro.sql.tuples import DataTuple

        tuples = [
            DataTuple(R, (1, 7), 1.0),
            DataTuple(S, (7, 3), 2.0),
            DataTuple(T, (3, 9), 3.0),
            DataTuple(T, (4, 8), 4.0),  # no S.F = 4
        ]
        assert brute_force_rows(query, tuples) == {(1, 3, 9)}

    def test_respects_insertion_time(self):
        query = parse_multiway_query(THREE_WAY, SCHEMA)
        from repro.sql.tuples import DataTuple

        R, S, T = (SCHEMA.relation(n) for n in "RST")
        tuples = [
            DataTuple(R, (1, 7), 1.0),  # before insT
            DataTuple(S, (7, 3), 6.0),
            DataTuple(T, (3, 9), 7.0),
        ]
        assert brute_force_rows(query, tuples, insertion_time=5.0) == set()


@pytest.mark.parametrize("algorithm", ["sai", "dai-q", "dai-t", "dai-v"])
class TestPipelineEndToEnd:
    def test_three_way_join(self, algorithm):
        engine = make_engine(algorithm)
        subscription = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        publish_all(
            engine,
            [
                ("R", {"A": 1, "B": 7}),
                ("S", {"E": 7, "F": 3}),
                ("T", {"Y": 3, "Z": 9}),
                ("T", {"Y": 4, "Z": 8}),  # dead end
            ],
        )
        assert subscription.results == {(1, 3, 9)}

    def test_arrival_order_irrelevant(self, algorithm):
        engine = make_engine(algorithm)
        subscription = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        publish_all(
            engine,
            [
                ("T", {"Y": 3, "Z": 9}),
                ("S", {"E": 7, "F": 3}),
                ("R", {"A": 1, "B": 7}),
            ],
        )
        assert subscription.results == {(1, 3, 9)}

    def test_four_way_join(self, algorithm):
        engine = make_engine(algorithm)
        subscription = subscribe_multiway(
            engine,
            engine.network.nodes[0],
            "SELECT R.A, U.Q FROM R, S, T, U "
            "WHERE R.B = S.E AND S.F = T.Y AND T.Z = U.P",
            SCHEMA,
        )
        publish_all(
            engine,
            [
                ("U", {"P": 9, "Q": 100}),
                ("R", {"A": 1, "B": 7}),
                ("S", {"E": 7, "F": 3}),
                ("T", {"Y": 3, "Z": 9}),
            ],
        )
        assert subscription.results == {(1, 100)}

    def test_filters_enforced(self, algorithm):
        engine = make_engine(algorithm)
        subscription = subscribe_multiway(
            engine,
            engine.network.nodes[0],
            THREE_WAY + " AND T.Z = 9",
            SCHEMA,
        )
        publish_all(
            engine,
            [
                ("R", {"A": 1, "B": 7}),
                ("S", {"E": 7, "F": 3}),
                ("T", {"Y": 3, "Z": 9}),
                ("T", {"Y": 3, "Z": 8}),  # fails the filter
            ],
        )
        assert subscription.results == {(1, 3, 9)}

    def test_tuples_before_subscription_ignored(self, algorithm):
        engine = make_engine(algorithm)
        R = SCHEMA.relation("R")
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7})
        engine.clock.advance(1)
        subscription = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        publish_all(
            engine,
            [("S", {"E": 7, "F": 3}), ("T", {"Y": 3, "Z": 9})],
        )
        assert subscription.results == set()

    def test_randomized_against_brute_force(self, algorithm):
        rng = random.Random(5)
        engine = make_engine(algorithm)
        subscription = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        query = parse_multiway_query(THREE_WAY, SCHEMA)
        inserted = []
        for _ in range(60):
            engine.clock.advance(1)
            name = rng.choice(["R", "S", "T"])
            relation = SCHEMA.relation(name)
            values = {attr: rng.randrange(4) for attr in relation.attributes}
            inserted.append(
                engine.publish(engine.network.random_node(rng), relation, values)
            )
        expected = brute_force_rows(query, inserted, insertion_time=0.0)
        assert subscription.results == expected
        assert expected, "vacuous workload"


class TestPipelineMechanics:
    def test_two_way_degenerates_to_single_stage(self):
        engine = make_engine("sai")
        subscription = subscribe_multiway(
            engine,
            engine.network.nodes[0],
            "SELECT R.A, S.F FROM R, S WHERE R.B = S.E",
            SCHEMA,
        )
        assert len(subscription.stage_queries) == 1
        assert subscription.intermediate_relations == []
        publish_all(engine, [("R", {"A": 1, "B": 7}), ("S", {"E": 7, "F": 3})])
        assert subscription.results == {(1, 3)}

    def test_intermediates_republished(self):
        engine = make_engine("dai-t")
        subscription = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        publish_all(
            engine,
            [
                ("R", {"A": 1, "B": 7}),
                ("S", {"E": 7, "F": 3}),
                ("T", {"Y": 3, "Z": 9}),
            ],
        )
        assert subscription.republished == [1]

    def test_duplicate_rows_republished_once(self):
        engine = make_engine("dai-t")
        subscription = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        publish_all(
            engine,
            [
                ("R", {"A": 1, "B": 7}),
                ("S", {"E": 7, "F": 3}),
                ("S", {"E": 7, "F": 3}),  # identical S tuple
                ("T", {"Y": 3, "Z": 9}),
            ],
        )
        assert subscription.republished == [1]
        assert subscription.results == {(1, 3, 9)}

    def test_concurrent_pipelines_do_not_interfere(self):
        engine = make_engine("sai")
        first = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        second = subscribe_multiway(
            engine,
            engine.network.nodes[2],
            "SELECT R.A, T.Z FROM R, S, T WHERE R.B = S.E AND S.F = T.Y",
            SCHEMA,
        )
        publish_all(
            engine,
            [
                ("R", {"A": 1, "B": 7}),
                ("S", {"E": 7, "F": 3}),
                ("T", {"Y": 3, "Z": 9}),
            ],
        )
        assert first.results == {(1, 3, 9)}
        assert second.results == {(1, 9)}

    def test_window_rejected(self):
        engine = make_engine("sai", window=10.0)
        with pytest.raises(QueryError):
            subscribe_multiway(
                engine, engine.network.nodes[0], THREE_WAY, SCHEMA
            )

    def test_cancel_stops_answers(self):
        engine = make_engine("sai")
        subscription = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        subscription.cancel()
        publish_all(
            engine,
            [
                ("R", {"A": 1, "B": 7}),
                ("S", {"E": 7, "F": 3}),
                ("T", {"Y": 3, "Z": 9}),
            ],
        )
        assert subscription.results == set()

    def test_traffic_repeats_across_live_engines(self):
        # Both engines stay alive, so nothing about one pipeline's
        # identity can be recycled into the other's intermediate names.
        runs = []
        for _ in range(2):
            engine = make_engine("dai-t")
            rng = random.Random(11)
            subscription = subscribe_multiway(
                engine, engine.network.nodes[0], THREE_WAY, SCHEMA
            )
            for _ in range(80):
                engine.clock.advance(1)
                relation = SCHEMA.relation(rng.choice("RST"))
                values = {attr: rng.randrange(4) for attr in relation.attributes}
                engine.publish(engine.network.random_node(rng), relation, values)
            runs.append((engine, subscription))
        (first, first_sub), (second, second_sub) = runs
        assert first.traffic.hops == second.traffic.hops
        assert first_sub.results == second_sub.results

    def test_resubscribing_after_cancel_gets_fresh_names(self):
        engine = make_engine("sai")
        first = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        first.cancel()
        second = subscribe_multiway(
            engine, engine.network.nodes[0], THREE_WAY, SCHEMA
        )
        assert {r.name for r in first.intermediate_relations}.isdisjoint(
            r.name for r in second.intermediate_relations
        )
        publish_all(
            engine,
            [
                ("R", {"A": 1, "B": 7}),
                ("S", {"E": 7, "F": 3}),
                ("T", {"Y": 3, "Z": 9}),
            ],
        )
        assert first.results == set()
        assert second.results == {(1, 3, 9)}
