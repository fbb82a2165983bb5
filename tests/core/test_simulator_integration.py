"""Integration: engine + the serial replay + scheduled churn."""

import random

import pytest

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema
from repro.bench.harness import run_workload
from repro.faults import DelaySpec, FaultInjector, FaultPlan

from .scripted import oracle_of, scripted

SCHEMA = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
QUERY = "SELECT R.A, S.D FROM R, S WHERE R.B = S.E"


@pytest.fixture
def engine():
    return ContinuousQueryEngine(
        ChordNetwork.build(32), EngineConfig(algorithm="dai-t", index_choice="random")
    )


def random_tuples(seed, count, values, domain):
    rng = random.Random(seed)
    return [
        ("R", {"A": rng.randrange(values), "B": rng.randrange(domain)})
        if rng.random() < 0.5
        else ("S", {"D": rng.randrange(values), "E": rng.randrange(domain)})
        for _ in range(count)
    ]


class TestScheduledWorkloads:
    def test_scheduled_publishes_share_the_clock(self, engine):
        tuples = [("R", {"A": 0, "B": 0})] * 3
        run_workload(engine, scripted(SCHEMA, [], tuples, start=1.0, interval=1.5))
        assert [tup.pub_time for tup in engine._publications] == [1.0, 2.5, 4.0]
        assert engine.clock.now == 4.0

    def test_delays_land_between_publishes(self):
        # Every delivery is 0.5 late: the first publish's deferral is due
        # at 1.5 and lands before the publish at 2.0, advancing the clock.
        plan = FaultPlan(delay=DelaySpec(probability=1.0, minimum=0.5, maximum=0.5))
        injector = FaultInjector(plan)
        engine = ContinuousQueryEngine(
            ChordNetwork.build(16, injector=injector), EngineConfig(algorithm="sai")
        )
        seen = []
        schedule = {1: [lambda: seen.append(engine.clock.now)]}
        tuples = [("R", {"A": 1, "B": 0}), ("S", {"D": 2, "E": 0})]
        run_workload(engine, scripted(SCHEMA, [QUERY], tuples), schedule=schedule)
        assert seen == [1.5]
        assert injector.pending_deliveries == 0
        (key,) = engine.queries
        assert engine.delivered_rows(key) == {("0", (1, 2))}

    def test_full_scenario_with_periodic_stabilization(self, engine):
        network = engine.network
        workload = scripted(SCHEMA, [QUERY], random_tuples(8, 120, 9, 4))
        # Tuple i is published at time 1 + i; churn happens while the
        # stream runs, and stabilization is periodic (every 5 units).
        schedule = {i: [lambda: network.run_stabilization(1)] for i in range(4, 120, 5)}
        schedule[29].append(lambda: engine.adopt(network.join("mid-joiner-1")))
        schedule[59].append(lambda: network.leave(network.nodes[len(network) // 2]))
        schedule[89].append(lambda: engine.adopt(network.join("mid-joiner-2")))
        run_workload(engine, workload, seed=8, schedule=schedule)
        assert len(network) == 33
        (key,) = engine.queries
        assert engine.delivered_rows(key) == oracle_of(engine).rows_for(key)
        assert engine.delivered_rows(key), "vacuous scenario"

    def test_windowed_scenario_with_scheduled_eviction(self, engine):
        engine.config.window = 10.0
        workload = scripted(SCHEMA, [QUERY], random_tuples(9, 80, 5, 3))
        schedule = {i: [engine.evict_expired] for i in range(6, 80, 7)}
        run_workload(engine, workload, seed=9, evict_every=10**6, schedule=schedule)
        (key,) = engine.queries
        assert engine.delivered_rows(key) == oracle_of(engine, 10.0).rows_for(key)
        # Storage is bounded by the window after the final eviction.
        load = engine.load_snapshot()
        assert load.total_evaluator_storage < 200
