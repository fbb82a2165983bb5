"""Failure-detector tests: suspicion, probing, recovery, routing impact.

Timings are aggressive (tens of milliseconds) because everything runs
against localhost servers inside one event loop; the shipped timings
are the constants of :mod:`repro.net.health`, which the tests
monkeypatch.
"""

import asyncio
import socket
from dataclasses import replace

import pytest

from repro.net import health
from repro.net.cluster import DEFAULT_RETRIES, ClusterConfig, LiveCluster
from repro.net.frames import DirectFrame, PeerInfo
from repro.sim.messages import UnsubscribeMessage


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def make_cluster(n_nodes=3, **retries):
    return LiveCluster(
        ClusterConfig(
            n_nodes=n_nodes,
            quiesce_timeout=5.0,
            fault_plan=replace(DEFAULT_RETRIES, backoff_base=0.01, **retries),
        )
    )


def detector_timings(monkeypatch, **timings):
    """Set :mod:`repro.net.health` constants by lower-case name."""
    for name, value in timings.items():
        monkeypatch.setattr(health, name.upper(), value)


@pytest.fixture
def fast(monkeypatch):
    detector_timings(
        monkeypatch,
        heartbeat_interval=0.02,
        suspicion_timeout=0.12,
        failure_threshold=2,
        probe_backoff_base=0.02,
        probe_backoff_max=0.1,
        probe_timeout=0.5,
    )


@pytest.fixture
def quiet(monkeypatch):
    """No background heartbeats, no silence suspicion, no probe."""
    detector_timings(
        monkeypatch,
        heartbeat_interval=5.0,
        suspicion_timeout=60.0,
        failure_threshold=2,
        probe_backoff_base=60.0,
    )


class TestWriteFailureSuspicion:
    def test_consecutive_write_failures_mark_suspect(self, quiet):
        async def scenario():
            cluster = make_cluster(max_attempts=4)
            await cluster.start()
            try:
                peer = next(iter(cluster.peers.values()))
                detector = peer.enable_health()
                other = next(
                    ident for ident in peer.book if ident != peer.node.ident
                )
                real = peer.book[other]
                peer.book[other] = PeerInfo(real.ident, real.host, closed_port())
                peer._outboxes.pop(other, None)  # drop pooled connection
                cluster.in_flight.inc("unsubscribe")
                peer.post(
                    other,
                    DirectFrame(message=UnsubscribeMessage(query_key="k")),
                    weight=1,
                )
                await cluster.drain(tolerate_failures=True)
                assert detector.is_suspect(other)
                assert detector.suspicions == 1
                # Restore the address and let note_alive clear the state
                # the way a successful write would.
                peer.book[other] = real
                detector.note_alive(other)
                assert not detector.is_suspect(other)
                assert detector.recoveries == 1
            finally:
                cluster.errors.clear()
                await cluster.stop()

        asyncio.run(scenario())


class TestSilenceAndProbe:
    def test_server_outage_is_detected_and_probe_restores(self, fast):
        async def scenario():
            cluster = make_cluster(n_nodes=3)
            await cluster.start()
            try:
                peer = next(iter(cluster.peers.values()))
                detector = peer.enable_health()
                victim_ident = next(
                    ident for ident in peer.book if ident != peer.node.ident
                )
                victim = cluster.peers[victim_ident]
                victim_port = victim.info.port
                await victim.stop_server()
                # Failing heartbeat writes trip the failure threshold.
                deadline = asyncio.get_running_loop().time() + 3.0
                while (
                    not detector.is_suspect(victim_ident)
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.02)
                assert detector.is_suspect(victim_ident)
                # Same address comes back; the probe must notice and
                # restore the peer without any membership traffic.
                await victim.start(cluster.config.host, port=victim_port)
                deadline = asyncio.get_running_loop().time() + 3.0
                while (
                    detector.is_suspect(victim_ident)
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.02)
                assert not detector.is_suspect(victim_ident)
                assert detector.recoveries >= 1
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_pure_silence_trips_the_suspicion_timeout(self, fast):
        async def scenario():
            cluster = make_cluster(n_nodes=3)
            await cluster.start()
            try:
                peer = next(iter(cluster.peers.values()))
                detector = peer.enable_health()
                # Mute this peer's heartbeats: with no writes succeeding
                # (and none failing), the only evidence left is silence.
                peer.post_heartbeat = lambda ident: None
                others = {
                    ident for ident in peer.book if ident != peer.node.ident
                }
                deadline = asyncio.get_running_loop().time() + 3.0
                while (
                    detector.suspicions < len(others)
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.02)
                assert detector.suspicions >= len(others)
                # The probes reach the (healthy) servers and restore.
                deadline = asyncio.get_running_loop().time() + 3.0
                while (
                    detector.suspects
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.02)
                assert not detector.suspects
                assert detector.recoveries >= 1
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_mutual_heartbeats_prevent_suspicion(self, fast):
        async def scenario():
            cluster = make_cluster(n_nodes=3)
            await cluster.start()
            try:
                for peer in cluster.peers.values():
                    peer.enable_health()
                # Every peer heartbeats every other: after several
                # suspicion windows nobody should be suspect.
                await asyncio.sleep(0.5)
                for peer in cluster.peers.values():
                    assert peer.detector is not None
                    assert not peer.detector.suspects
                    assert peer.detector.heartbeats_sent > 0
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestRoutingAroundSuspects:
    def test_next_hop_skips_suspected_finger(self, quiet):
        async def scenario():
            cluster = make_cluster(n_nodes=6)
            await cluster.start()
            try:
                peer = next(iter(cluster.peers.values()))
                node = peer.node
                detector = peer.enable_health()
                # Find a target whose next hop is a finger (not the
                # successor), then suspect that finger.
                successor = node.successor
                for candidate in cluster.network.nodes:
                    target = candidate.ident
                    hop = peer._next_hop(target)
                    if hop is not successor and hop is not node:
                        detector._suspect(hop.ident)
                        rerouted = peer._next_hop(target)
                        assert rerouted is successor
                        break
                else:  # pragma: no cover - ring too small to exercise
                    pytest.skip("no finger hop distinct from successor")
            finally:
                await cluster.stop()

        asyncio.run(scenario())
