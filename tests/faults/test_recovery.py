"""ChaosHarness and soft-state lease recovery."""

import random

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema
from repro.core.oracle import CentralizedOracle
from repro.faults import ChaosHarness, FaultInjector, FaultPlan, install_fault_plan
from repro.sim.simulator import Simulator


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
        schema, network, engine, injector = _setup()
        subscriber = network.nodes[0]
        engine.subscribe(
            subscriber, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", schema
        )
        storage_before = engine.load_snapshot().total_storage
        # A join moves keys but loses nothing: the refresh it triggers
        # (membership changed) must change nothing either.
        network.join("late")
        refreshed = engine.refresh_leases()
        assert refreshed["queries"] == 1
        assert engine.load_snapshot().total_storage == storage_before
        assert engine.load_snapshot().total_lease_reinstalls == 0

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
    def test_install_fault_plan_drives_churn_and_refresh(self):
        schema = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
        plan = FaultPlan(
            crash_every=10.0,
            crash_count=3,
            restart_after=5.0,
            lease_refresh_every=25.0,
            seed=13,
        )
        injector = FaultInjector(plan)
        network = ChordNetwork.build(64, injector=injector)
        engine = ContinuousQueryEngine(network, EngineConfig(algorithm="dai-q"))
        simulator = Simulator(network, clock=engine.clock)
        subscriber = network.nodes[0]
        engine.subscribe(
            subscriber, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", schema
        )
        harness = simulator.attach_faults(
            injector, engine, protect=(subscriber.ident,), until=100.0
        )
        assert isinstance(harness, ChaosHarness)
        simulator.run_until(100.0)
        assert injector.crashes == 3  # crash_count respected
        assert injector.restarts == 3
        assert len(network) == 64  # everyone came back
        assert network.ring_is_consistent()

    def test_attach_faults_without_engine_skips_churn(self):
        plan = FaultPlan(crash_every=10.0, seed=2)
        injector = FaultInjector(plan)
        network = ChordNetwork.build(16, injector=injector)
        simulator = Simulator(network)
        harness = install_fault_plan(simulator, injector)
        assert harness is None
        simulator.run_until(50.0)
        assert injector.crashes == 0  # churn needs an engine to recover
