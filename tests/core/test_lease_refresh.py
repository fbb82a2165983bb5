"""The lease refresh is crash recovery only: it replays after a loss.

``lease_refresh_steps()`` yields the full soft state exactly when the
ring's membership generation moved or a delivery was given up on since
the last refresh *started*, and nothing on an intact run — simulated or
live.  Every loss source counts: a membership change, a simulator
``DeliveryError``, a deferred message with no live recipient, and on a
live cluster a failed, lost or shed frame, a codec fault, a stream
break and credits written off by a tolerant drain.
"""

import asyncio
import logging

import pytest

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema
from repro.bench.harness import run_workload
from repro.errors import CodecError, DeliveryError
from repro.faults import FaultInjector, FaultPlan
from repro.net.cluster import ClusterConfig, LiveCluster
from repro.net.frames import PeerInfo, RouteFrame
from repro.net.peer import NetPeer
from repro.perf import PERF
from repro.sim.messages import JoinMessage
from repro.workload.generator import WorkloadParams, build_workload

WORKLOAD = build_workload(WorkloadParams(n_queries=5, n_tuples=20, domain_size=8, seed=4))
FULL = {"query": 5, "tuple": 20}


def kinds(engine) -> dict:
    """What one refresh re-asserts, by kind (replays nothing)."""
    counts = {"query": 0, "tuple": 0}
    for kind, _ in engine.lease_refresh_steps():
        counts[kind] += 1
    return counts


def replayed():
    """A DAI-T engine that replayed ``WORKLOAD`` on an intact ring."""
    engine = ContinuousQueryEngine(ChordNetwork.build(12), EngineConfig("dai-t", seed=4))
    run_workload(engine, WORKLOAD, seed=4)
    return engine


class TestSimulator:
    def test_intact_run_refreshes_nothing(self):
        engine = replayed()
        PERF.reset()
        PERF.enable()
        try:
            assert kinds(engine) == {"query": 0, "tuple": 0}
            assert engine.refresh_leases() == {"queries": 0, "tuples": 0}
        finally:
            PERF.disable()
        assert PERF.counter("engine.refresh.skipped") == 2
        assert PERF.counter("engine.refresh.full") == 0
        PERF.reset()

    def test_membership_change_replays_everything_once(self, caplog):
        engine = replayed()
        network = engine.network
        generation = network._membership_generation
        network.fail(network.nodes[5])
        network.run_stabilization(2, fix_all_fingers=True)
        with caplog.at_level(logging.INFO, logger="repro.core"):
            assert kinds(engine) == FULL
            assert kinds(engine) == {"query": 0, "tuple": 0}  # nothing lost since
        (record,) = [r for r in caplog.records if r.name == "repro.core"]
        assert record.getMessage() == (
            f"lease refresh: full (membership generation {generation} -> {generation + 1})"
        )

    def test_delivery_error_replays_everything(self, caplog):
        schema = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
        injector = FaultInjector(FaultPlan(loss_probability=0.95, max_attempts=1, seed=3))
        network = ChordNetwork.build(8, injector=injector)
        engine = ContinuousQueryEngine(network, EngineConfig(algorithm="dai-q"))
        R = schema.relation("R")
        with pytest.raises(DeliveryError):
            for value in range(50):
                engine.publish(network.nodes[0], R, {"A": value, "B": value})
        with caplog.at_level(logging.INFO, logger="repro.core"):
            assert kinds(engine)["tuple"] == len(engine._publications)
        assert "deliveries lost" in caplog.records[-1].getMessage()

    def test_deferred_message_without_recipient_replays_everything(self):
        schema = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
        injector = FaultInjector(FaultPlan())
        network = ChordNetwork.build(5, successor_list_size=2, injector=injector)
        engine = ContinuousQueryEngine(network, EngineConfig(algorithm="sai"))
        engine.subscribe(network.nodes[3], "SELECT R.A, S.D FROM R, S WHERE R.B = S.E", schema)
        target = network.nodes[0]
        injector.defer(JoinMessage(), target, 1.0)
        for node in network.nodes[:3]:  # the target and its whole successor list
            network.fail(node)
        network.run_stabilization(2, fix_all_fingers=True)
        assert kinds(engine) == {"query": 1, "tuple": 0}  # the membership change
        injector.flush_deferred()
        assert injector.messages_lost == network.losses == 1
        assert kinds(engine) == {"query": 1, "tuple": 0}
        assert kinds(engine) == {"query": 0, "tuple": 0}

    def test_loss_during_a_paced_refresh_triggers_the_next(self):
        engine = replayed()
        network = engine.network
        network.note_loss()
        steps = engine.lease_refresh_steps()
        for index, (_, replay) in enumerate(steps):
            replay()
            if index == 3:
                network.note_loss()  # while the refresh is paced
        assert kinds(engine) == FULL
        assert kinds(engine) == {"query": 0, "tuple": 0}


async def live_run(algorithm="dai-q"):
    cluster = LiveCluster(ClusterConfig(algorithm=algorithm, n_nodes=6, seed=4))
    await cluster.start()
    try:
        await cluster.run(WORKLOAD)
    finally:
        await cluster.stop()
    return cluster


def test_intact_live_run_refreshes_nothing():
    cluster = asyncio.run(live_run())
    assert kinds(cluster.engine) == {"query": 0, "tuple": 0}


def _frame_failed(cluster):
    cluster.in_flight.inc("join")
    cluster.frame_failed(DeliveryError("join", 1, 3), ("join",))


def _frame_lost(cluster):
    cluster.in_flight.inc("join")
    cluster.frame_lost("queued at crashed node 1", ("join",))


def _codec_fault(cluster):
    cluster.note_codec_fault(CodecError("garbled"))


def _stream_break(cluster):
    cluster.note_stream_break(asyncio.IncompleteReadError(b"", 9))


def _written_off(cluster):
    cluster.config.quiesce_timeout = 0.01
    cluster.in_flight.inc("join")
    asyncio.run(cluster.drain(tolerate_failures=True))
    assert cluster.frames_written_off == 1


def _shed(cluster):
    async def shed():
        cluster.net_config.send_window = 1
        source, target = cluster.network.nodes[:2]
        peer = NetPeer(source, cluster)
        peer.book[target.ident] = PeerInfo(target.ident, "127.0.0.1", 9)
        message = JoinMessage()
        for _ in range(2):
            cluster.in_flight.inc("join")
            peer.post(target.ident, RouteFrame(target.ident, message), weight=1)
        assert peer.frames_shed == 1
        for outbox in peer._outboxes.values():
            outbox.abort()

    asyncio.run(shed())


@pytest.mark.parametrize(
    "lose",
    [_frame_failed, _frame_lost, _codec_fault, _stream_break, _written_off, _shed],
    ids=lambda lose: lose.__name__.strip("_"),
)
def test_every_live_loss_source_replays_everything(lose):
    cluster = LiveCluster(ClusterConfig(algorithm="dai-t", n_nodes=6, seed=4))
    engine = cluster.engine
    run_workload(engine, WORKLOAD, seed=4)  # soft state to replay
    assert kinds(engine) == {"query": 0, "tuple": 0}
    lose(cluster)
    assert kinds(engine) == FULL
