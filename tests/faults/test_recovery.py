"""ChaosHarness and soft-state lease recovery."""

import random

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema
from repro.core.oracle import CentralizedOracle
from repro.bench.harness import run_workload
from repro.faults import ChaosHarness, FaultInjector, FaultPlan, churn_schedule

from ..core.scripted import oracle_of, scripted


def _setup(algorithm="dai-t", n_nodes=64, **config):
    schema = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
    injector = FaultInjector(FaultPlan(seed=21))
    network = ChordNetwork.build(n_nodes, injector=injector)
    engine = ContinuousQueryEngine(
        network, EngineConfig(algorithm=algorithm, seed=5, **config)
    )
    return schema, network, engine, injector


class TestHarnessChurn:
    def test_crash_removes_and_counts(self):
        _, network, engine, injector = _setup()
        harness = ChaosHarness(engine, injector)
        before = len(network)
        victim = harness.crash()
        assert victim is not None and not victim.alive
        assert len(network) == before - 1
        assert injector.crashes == 1
        assert network.ring_is_consistent()

    def test_protected_nodes_never_chosen(self):
        _, network, engine, injector = _setup(n_nodes=4)
        harness = ChaosHarness(engine, injector)
        protected = network.nodes[0]
        harness.protect(protected)
        for _ in range(3):
            harness.crash()
        assert protected.alive
        assert len(network) == 1

    def test_restart_rejoins_under_old_key(self):
        _, network, engine, injector = _setup()
        harness = ChaosHarness(engine, injector)
        victim = harness.crash()
        node = harness.restart()
        assert node.key == victim.key
        assert node.ident == victim.ident
        assert injector.restarts == 1
        assert network.ring_is_consistent()

    def test_crash_refuses_to_empty_the_ring(self):
        _, network, engine, injector = _setup(n_nodes=2)
        harness = ChaosHarness(engine, injector)
        assert harness.crash() is not None
        assert harness.crash() is None  # one node left: never crashed
        assert len(network) == 1


class TestLeaseRecovery:
    def test_refresh_is_idempotent_on_healthy_ring(self):
        def vltt_items(engine):
            return sum(len(engine.state(node).vltt) for node in engine.network)

        for algorithm in ("dai-t", "sai", "dai-q"):
            schema, network, engine, injector = _setup(algorithm)
            subscriber = network.nodes[0]
            engine.subscribe(
                subscriber, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", schema
            )
            R, S = schema.relation("R"), schema.relation("S")
            for k in range(4):
                engine.clock.advance(1.0)
                engine.publish(network.nodes[1 + k], R, {"A": k, "B": k % 2})
                engine.clock.advance(1.0)
                engine.publish(network.nodes[5 + k], S, {"D": k, "E": k % 2})
            assert engine.delivered  # the tuples met the query
            storage_before = engine.load_snapshot().total_storage
            vltt_before = vltt_items(engine)
            # A join moves keys but loses nothing: the refresh it triggers
            # (membership changed) must change nothing either.
            network.join("late")
            refreshed = engine.refresh_leases()
            assert refreshed == {"queries": 1, "tuples": 8}, algorithm
            assert vltt_items(engine) == vltt_before, algorithm
            assert engine.load_snapshot().total_storage == storage_before, algorithm
            assert engine.load_snapshot().total_lease_reinstalls == 0, algorithm
        assert vltt_before > 0  # DAI-Q stores tuples at the value level

    def test_crashed_rewriter_state_reinstalled(self):
        schema, network, engine, injector = _setup()
        subscriber = network.nodes[0]
        query = engine.subscribe(
            subscriber, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", schema
        )
        harness = ChaosHarness(engine, injector)
        harness.protect(subscriber)
        # Crash the rewriters holding the query's attribute-level copies.
        holders = {
            node
            for node in network.nodes
            if any(
                stored.query.key == query.key for stored in engine.state(node).alqt
            )
        }
        assert holders
        for holder in holders:
            if holder is not subscriber:
                harness.crash(holder)
        harness.settle()
        assert engine.load_snapshot().total_lease_reinstalls >= 1
        # The query works again: a matching pair still notifies.
        R, S = schema.relation("R"), schema.relation("S")
        engine.clock.advance(1.0)
        engine.publish(network.nodes[1], R, {"A": 1, "B": 7})
        engine.clock.advance(1.0)
        engine.publish(network.nodes[2], S, {"D": 2, "E": 7})
        assert engine.delivered_rows(query.key) == {("7", (1, 2))}

    def test_republication_rebuilds_evaluator_state(self):
        schema, network, engine, injector = _setup(algorithm="sai")
        subscriber = network.nodes[0]
        query = engine.subscribe(
            subscriber, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", schema
        )
        R, S = schema.relation("R"), schema.relation("S")
        engine.clock.advance(1.0)
        engine.publish(network.nodes[1], R, {"A": 1, "B": 7})
        harness = ChaosHarness(engine, injector)
        harness.protect(subscriber)
        # Crash every node holding value-level state (the stored tuple /
        # rewritten query for join value 7).
        holders = [
            node
            for node in network.nodes
            if node is not subscriber
            and (len(engine.state(node).vltt) or len(engine.state(node).vlqt))
        ]
        assert holders
        for holder in holders:
            harness.crash(holder)
        harness.settle()
        # The republished tuple must pair with the late arrival.
        engine.clock.advance(1.0)
        engine.publish(network.nodes[2], S, {"D": 2, "E": 7})
        assert engine.delivered_rows(query.key) == {("7", (1, 2))}

    def test_windowed_refresh_skips_expired_tuples(self):
        schema, network, engine, injector = _setup(window=10.0)
        subscriber = network.nodes[0]
        engine.subscribe(
            subscriber, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", schema
        )
        R = schema.relation("R")
        engine.publish(network.nodes[1], R, {"A": 1, "B": 7})
        engine.clock.advance(100.0)
        engine.publish(network.nodes[1], R, {"A": 2, "B": 7})
        network.join("late")  # the refresh replays only after a membership change
        refreshed = engine.refresh_leases()
        assert refreshed["tuples"] == 1  # only the in-window tuple replays


class TestScheduledFaults:
    PLAN = FaultPlan(
        crash_every=10.0,
        crash_count=3,
        restart_after=5.0,
        lease_refresh_every=25.0,
        seed=13,
    )

    def _run(self, plan):
        schema = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
        injector = FaultInjector(plan)
        network = ChordNetwork.build(64, injector=injector)
        engine = ContinuousQueryEngine(network, EngineConfig(algorithm="dai-q"))
        rng = random.Random(4)
        tuples = [
            ("R", {"A": i, "B": rng.randrange(5)}) if i % 2 else ("S", {"D": i, "E": rng.randrange(5)})
            for i in range(100)
        ]
        workload = scripted(schema, ["SELECT R.A, S.D FROM R, S WHERE R.B = S.E"], tuples)
        harness = ChaosHarness(engine, injector)
        schedule = churn_schedule(plan, harness, workload)
        run_workload(engine, workload, schedule=schedule)
        return engine, harness, schedule

    def test_churn_schedule_times_crashes_restarts_and_refreshes(self):
        engine, harness, schedule = self._run(self.PLAN)
        # Tuple i is published at time 1 + i: an action due at time T
        # runs just before publish T - 1.
        refresh = engine.refresh_leases
        assert {i: len(actions) for i, actions in schedule.items()} == {
            9: 1, 19: 1, 29: 1, 14: 1, 24: 2, 34: 1, 49: 1, 74: 1, 99: 1
        }
        assert all(refresh in schedule[i] for i in (24, 49, 74, 99))
        injector, network = harness.injector, engine.network
        assert injector.crashes == 3  # crash_count respected
        assert injector.restarts == 3
        assert len(network) == 64  # everyone came back
        assert network.ring_is_consistent()
        (query,) = engine.queries.values()
        assert query.subscriber.ident in harness.protected  # never a victim
        harness.settle()
        assert engine.delivered_rows(query.key) == oracle_of(engine).rows_for(query.key)

    def test_a_plan_without_churn_schedules_nothing(self):
        engine, harness, schedule = self._run(FaultPlan(restart_after=5.0, seed=2))
        assert schedule == {}
        assert harness.injector.crashes == 0
