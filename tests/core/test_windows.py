"""Sliding-window semantics: matching, eviction, the window cutoff on
each transport, DAI-T resend mode."""

import pytest

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig
from repro.faults import DelaySpec, FaultInjector, FaultPlan
from repro.net.cluster import ClusterConfig, LiveCluster

ALGORITHMS = ["sai", "dai-q", "dai-t", "dai-v"]


def setup(engine, schema):
    subscriber = engine.network.nodes[0]
    query = engine.subscribe(
        subscriber, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", schema
    )
    return schema.relation("R"), schema.relation("S"), query


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestWindowMatching:
    def test_pair_within_window_matches(self, algorithm, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm=algorithm, window=10.0)
        R, S, query = setup(engine, two_relation_schema)
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        engine.clock.advance(5)
        engine.publish(engine.network.nodes[2], S, {"D": 2, "E": 7, "F": 0})
        assert engine.delivered_rows(query.key) == {("7", (1, 2))}

    def test_pair_outside_window_silent(self, algorithm, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm=algorithm, window=10.0)
        R, S, query = setup(engine, two_relation_schema)
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        engine.clock.advance(11)
        engine.publish(engine.network.nodes[2], S, {"D": 2, "E": 7, "F": 0})
        assert engine.delivered_rows(query.key) == set()

    def test_boundary_is_inclusive(self, algorithm, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm=algorithm, window=10.0)
        R, S, query = setup(engine, two_relation_schema)
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        engine.clock.advance(10)
        engine.publish(engine.network.nodes[2], S, {"D": 2, "E": 7, "F": 0})
        assert engine.delivered_rows(query.key) == {("7", (1, 2))}

    def test_fresh_tuple_revives_old_row(self, algorithm, engine_factory, two_relation_schema):
        """An expired pairing recurs when a fresh tuple re-creates it."""
        engine = engine_factory(algorithm=algorithm, window=5.0)
        R, S, query = setup(engine, two_relation_schema)
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        engine.clock.advance(20)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[2], S, {"D": 2, "E": 7, "F": 0})
        assert engine.delivered_rows(query.key) == {("7", (1, 2))}


class TestEviction:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_evict_expired_prunes_storage(self, algorithm, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm=algorithm, window=5.0)
        R, S, _query = setup(engine, two_relation_schema)
        for index in range(6):
            engine.clock.advance(1)
            engine.publish(engine.network.nodes[1], R, {"A": index, "B": 7, "C": 0})
            engine.publish(engine.network.nodes[2], S, {"D": index, "E": 8, "F": 0})
        before = engine.load_snapshot().total_evaluator_storage
        engine.clock.advance(50)
        evicted = engine.evict_expired()
        after = engine.load_snapshot().total_evaluator_storage
        assert evicted > 0
        assert after < before
        assert after == 0

    def test_unbounded_window_evicts_nothing(self, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm="sai")
        R, S, _query = setup(engine, two_relation_schema)
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        engine.clock.advance(1000)
        assert engine.evict_expired() == 0


class TestWindowCutoff:
    """``window_cutoff()`` waits for the oldest publish still in flight."""

    WINDOW = 5.0

    def delayed(self, schema):
        """A windowed SAI engine whose publish at T = 15 is deferred by
        100 time units while the publishes at 1..25 around it land at
        once; the clock ends at 25."""
        delay = DelaySpec(probability=1.0, minimum=100.0, maximum=100.0)
        injector = FaultInjector(FaultPlan(delay=delay, seed=1))
        network = ChordNetwork.build(12, injector=injector)
        engine = ContinuousQueryEngine(network, EngineConfig("sai", window=self.WINDOW))
        R = schema.relation("R")
        for time in range(1, 26):
            engine.clock.advance_to(time)
            if time == 15:
                engine.publish(network.nodes[1], R, {"A": time, "B": 7, "C": 0})
            else:
                with injector.quiesce():
                    engine.publish(network.nodes[1], R, {"A": time, "B": 7, "C": 0})
        return engine, injector

    def test_unbounded_window_has_no_cutoff(self, engine_factory):
        engine = engine_factory(algorithm="sai")
        engine.clock.advance(50)
        assert engine.window_cutoff() is None

    def test_bare_router_cuts_at_the_clock(self, engine_factory):
        engine = engine_factory(algorithm="sai", window=self.WINDOW)
        engine.clock.advance(50)
        assert engine.window_cutoff() == 50 - self.WINDOW

    def test_deferred_publish_holds_the_cutoff(self, two_relation_schema):
        engine, injector = self.delayed(two_relation_schema)
        assert injector.pending_deliveries > 0
        assert engine.window_cutoff() == 15 - self.WINDOW
        injector.flush_deferred()
        assert engine.clock.now > 25
        assert engine.window_cutoff() == engine.clock.now - self.WINDOW

    def test_live_credit_holds_the_cutoff(self):
        cluster = LiveCluster(
            ClusterConfig(n_nodes=4, engine_overrides={"window": self.WINDOW})
        )
        engine = cluster.engine
        cluster.network.use_transport(cluster.transport)
        engine.clock.advance_to(40)
        cluster.in_flight.inc("vl-index", 1, 30.0)
        assert engine.window_cutoff() == 30.0 - self.WINDOW

    def test_refresh_replays_what_an_in_flight_half_can_meet(self, two_relation_schema):
        """The refresh replays the publishes at 10..25, not 20..25: the
        one at 15 is still in flight and pairs with any back to 10."""
        engine, _ = self.delayed(two_relation_schema)
        engine.network.note_loss()
        tuples = [replay for kind, replay in engine.lease_refresh_steps() if kind == "tuple"]
        assert len(tuples) == 16


class TestDAITResendUnderWindows:
    def test_unbounded_window_never_resends(self, engine_factory, two_relation_schema):
        engine = engine_factory(algorithm="dai-t", index_choice="left")
        R, S, query = setup(engine, two_relation_schema)
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        first = engine.traffic.messages_by_type.get("join", 0)
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 1})
        second = engine.traffic.messages_by_type.get("join", 0)
        assert first > 0
        assert second == first  # identical rewritten key: not resent

    def test_windowed_mode_resends_to_refresh_times(
        self, engine_factory, two_relation_schema
    ):
        engine = engine_factory(algorithm="dai-t", index_choice="left", window=5.0)
        R, S, query = setup(engine, two_relation_schema)
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        first = engine.traffic.messages_by_type.get("join", 0)
        engine.clock.advance(4)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 1})
        second = engine.traffic.messages_by_type.get("join", 0)
        assert second > first  # resent so the evaluator's clock advances

        # Correctness payoff: the S tuple pairs with the *second* R
        # tuple (9 - 5 = 4 <= window) even though the first expired.
        engine.clock.advance(4)
        engine.publish(engine.network.nodes[2], S, {"D": 2, "E": 7, "F": 0})
        assert engine.delivered_rows(query.key) == {("7", (1, 2))}
