"""Tests for load snapshots and the metric split by indexing level."""

import pytest

from repro.core.metrics import snapshot


def fire_small_workload(engine, schema):
    R, S = schema.relation("R"), schema.relation("S")
    engine.subscribe(
        engine.network.nodes[0],
        "SELECT R.A, S.D FROM R, S WHERE R.B = S.E",
        schema,
    )
    for index in range(5):
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": index, "B": index % 2, "C": 0})
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[2], S, {"D": index, "E": index % 2, "F": 0})


class TestSnapshot:
    def test_covers_all_nodes(self, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm="sai")
        fire_small_workload(engine, two_relation_schema)
        load = snapshot(engine)
        assert set(load.filtering) == {node.ident for node in engine.network}

    def test_snapshots_of_disjoint_nodes_union_back(
        self, engine_factory, two_relation_schema
    ):
        """A forked run rebuilds the load from each shard's own nodes."""
        engine = engine_factory(algorithm="sai")
        fire_small_workload(engine, two_relation_schema)
        load = snapshot(engine)
        idents = engine.network._sorted_idents
        parts = [snapshot(engine, idents[r::3]) for r in range(3)]
        assert sum(len(part.filtering) for part in parts) == len(load.filtering)
        assert type(load).union(parts) == load

    def test_levels_sum_to_total(self, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm="sai")
        fire_small_workload(engine, two_relation_schema)
        load = snapshot(engine)
        for ident in load.filtering:
            assert (
                load.filtering[ident]
                == load.attribute_level_filtering[ident]
                + load.value_level_filtering[ident]
            )
            assert (
                load.storage[ident]
                == load.attribute_level_storage[ident]
                + load.value_level_storage[ident]
                + load.parked_notifications[ident]
            )

    def test_totals(self, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm="sai")
        fire_small_workload(engine, two_relation_schema)
        load = snapshot(engine)
        assert load.total_filtering == sum(load.filtering.values())
        assert load.total_storage == sum(load.storage.values())
        assert load.total_evaluator_filtering == sum(
            load.value_level_filtering.values()
        )

    def test_storage_reflects_algorithm(self, engine_factory, two_relation_schema):
        """DAI-Q stores no rewritten queries; DAI-T stores no tuples.

        Every tuple has 3 attributes, so SAI/DAI-Q store 3 value-level
        copies per tuple; DAI-T's value level holds rewritten queries
        only.
        """
        sai = engine_factory(algorithm="sai")
        fire_small_workload(sai, two_relation_schema)
        dai_q = engine_factory(algorithm="dai-q")
        fire_small_workload(dai_q, two_relation_schema)
        dai_t = engine_factory(algorithm="dai-t")
        fire_small_workload(dai_t, two_relation_schema)

        tuples_stored = 10 * 3  # 10 tuples x 3 attributes
        assert snapshot(dai_q).total_evaluator_storage == tuples_stored
        assert snapshot(sai).total_evaluator_storage > tuples_stored  # + rewritten
        dai_t_load = snapshot(dai_t)
        # DAI-T stores only rewritten queries at the value level.
        vltt_total = sum(
            len(dai_t.state(node).vltt) for node in dai_t.network
        )
        assert vltt_total == 0
        assert dai_t_load.total_evaluator_storage > 0

    def test_notifications_created_counted(self, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm="sai")
        fire_small_workload(engine, two_relation_schema)
        load = snapshot(engine)
        assert sum(load.notifications_created.values()) > 0

    def test_distribution_helpers(self, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm="sai")
        fire_small_workload(engine, two_relation_schema)
        load = snapshot(engine)
        assert 0.0 <= load.filtering_gini() < 1.0
        assert 0.0 < load.filtering_top_share(0.1) <= 1.0
        assert 0.0 < load.filtering_participation() <= 1.0
        sorted_loads = load.sorted_filtering()
        assert list(sorted_loads) == sorted(sorted_loads, reverse=True)

    def test_idle_network_all_zero(self, engine_factory):
        engine = engine_factory(algorithm="sai")
        load = snapshot(engine)
        assert load.total_filtering == 0
        assert load.total_storage == 0
        assert load.filtering_participation() == 0.0
