"""Socket-layer tests: in-flight accounting, bootstrap, delivery, retries.

These run real asyncio TCP servers on localhost ephemeral ports; each
test spins a small :class:`~repro.net.cluster.LiveCluster` up and tears
it down inside ``asyncio.run``.
"""

import asyncio
import logging
import socket
from dataclasses import replace

import pytest

from repro.errors import DeliveryError, NetworkError
from repro.faults.plan import FaultPlan
from repro.net.cluster import DEFAULT_RETRIES, ClusterConfig, LiveCluster
from repro.net.frames import DirectFrame, PeerInfo
from repro.net.peer import InFlight
from repro.sim.messages import UnsubscribeMessage


def make_cluster(n_nodes=4, **retries):
    return LiveCluster(
        ClusterConfig(
            n_nodes=n_nodes,
            quiesce_timeout=5.0,
            fault_plan=replace(DEFAULT_RETRIES, backoff_base=0.01, **retries),
        )
    )


def closed_port() -> int:
    """A localhost port that nothing is listening on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def recording_handlers(cluster, message_type="unsubscribe"):
    """Replace every node's handler for ``message_type`` with a recorder."""
    received = []
    for node in cluster.network.nodes:
        node.register_handler(
            message_type,
            lambda node, message: received.append((node.ident, message)),
        )
    return received


class TestInFlight:
    def test_starts_at_zero_and_waits_through_cycles(self):
        async def scenario():
            counter = InFlight()
            await counter.wait_zero(0.1)  # immediately zero
            counter.inc("notification", 3)
            assert counter.count == 3
            assert counter.pending() == {"notification": 3}
            with pytest.raises(asyncio.TimeoutError):
                await counter.wait_zero(0.01)
            counter.dec("notification", 2)
            counter.dec("notification")
            await counter.wait_zero(0.1)
            assert counter.peak == 3
            assert counter.pending() == {}

        asyncio.run(scenario())

    def test_negative_count_is_a_bug(self):
        async def scenario():
            counter = InFlight()
            with pytest.raises(RuntimeError):
                counter.dec()

        asyncio.run(scenario())

    def test_timeout_diagnostic_names_the_stragglers(self):
        """Satellite: a quiesce timeout must say *what* is still in
        flight, not just that something is."""

        async def scenario():
            from repro.errors import QuiesceTimeout

            counter = InFlight()
            counter.inc("notification", 2)
            counter.inc("publish_tuple")
            with pytest.raises(QuiesceTimeout) as excinfo:
                await counter.wait_zero(0.01)
            err = excinfo.value
            assert err.pending == {"notification": 2, "publish_tuple": 1}
            assert "notification=2" in str(err)
            assert "publish_tuple=1" in str(err)
            assert "3 deliveries still in flight" in str(err)
            # It is still an asyncio.TimeoutError for wait_for-style
            # callers.
            assert isinstance(err, asyncio.TimeoutError)

        asyncio.run(scenario())

    def test_write_off_forgives_and_arms_debt(self):
        async def scenario():
            counter = InFlight()
            counter.inc("notification", 2)
            written_off = counter.write_off()
            assert written_off == {"notification": 2}
            assert counter.count == 0
            await counter.wait_zero(0.1)
            # A forgiven delivery that settles late is absorbed by the
            # debt instead of crashing the ledger...
            counter.dec("notification", 2)
            assert counter.count == 0
            # ...but the debt is finite: a third settlement is still a
            # real bug in a strict (non-chaos) ledger.
            with pytest.raises(RuntimeError):
                counter.dec("notification")

        asyncio.run(scenario())

    def test_slack_mode_absorbs_crash_double_settlement(self):
        counter = InFlight()
        counter.allow_slack = True
        counter.inc("match")
        counter.dec("match")
        counter.dec("match")  # crash-path double settlement
        assert counter.count == 0
        assert counter.slack_absorbed == 1

    def test_absorbed_double_settlement_leaves_no_negative_label(self):
        """A label settles by at most what it has outstanding, so the
        straggler report and a write-off still see the next delivery."""
        counter = InFlight()
        counter.allow_slack = True
        counter.inc("join")
        counter.dec("join")
        counter.dec("join")  # absorbed as slack
        assert counter.pending() == {}
        counter.inc("join")
        assert counter.count == 1
        assert counter.pending() == {"join": 1}
        assert counter.write_off() == {"join": 1}

    def test_drain_diagnostic_includes_outbox_depths(self):
        """The cluster drain enriches the timeout with per-peer
        outbound queue depths."""

        async def scenario():
            from repro.errors import QuiesceTimeout

            cluster = LiveCluster(
                ClusterConfig(
                    n_nodes=2,
                    quiesce_timeout=0.2,
                    # Retries outlive the deadline.
                    fault_plan=FaultPlan(max_attempts=6, backoff_base=0.5),
                )
            )
            await cluster.start()
            try:
                peer = next(iter(cluster.peers.values()))
                other = next(
                    ident for ident in peer.book if ident != peer.node.ident
                )
                await cluster.peers[other].stop_server()
                peer._outboxes.pop(other, None)
                cluster.in_flight.inc("unsubscribe")
                peer.post(
                    other,
                    DirectFrame(message=UnsubscribeMessage(query_key="x")),
                    weight=1,
                )
                with pytest.raises(QuiesceTimeout) as excinfo:
                    await cluster.drain()
                err = excinfo.value
                assert err.pending == {"unsubscribe": 1}
                assert err.queues  # at least the stuck peer's outbox
                assert "outbound queues" in str(err)
            finally:
                cluster.errors.clear()
                cluster.in_flight.allow_slack = True
                cluster.in_flight.write_off()
                await cluster.stop()

        asyncio.run(scenario())


class TestBootstrap:
    def test_address_books_converge(self):
        async def scenario():
            cluster = make_cluster(n_nodes=5)
            await cluster.start()
            try:
                idents = {node.ident for node in cluster.network.nodes}
                for peer in cluster.peers.values():
                    assert set(peer.book) == idents
                    # Every entry carries a live socket address.
                    for info in peer.book.values():
                        assert info.port > 0
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_transport_swapped_in_and_restored(self):
        async def scenario():
            cluster = make_cluster()
            simulator_transport = cluster.network.transport
            await cluster.start()
            try:
                assert cluster.network.transport is cluster.transport
                assert cluster.engine.transport is cluster.transport
            finally:
                await cluster.stop()
            assert cluster.network.transport is simulator_transport

        asyncio.run(scenario())


class TestDelivery:
    def test_routed_send_reaches_the_owner(self):
        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                received = recording_handlers(cluster)
                source = cluster.network.nodes[0]
                # An ident owned by a far-away node forces real forwarding.
                target_ident = (source.ident + cluster.network.space.size // 2) % (
                    cluster.network.space.size
                )
                owner = cluster.transport.send(
                    source, UnsubscribeMessage(query_key="k1"), target_ident
                )
                await cluster.drain()
                assert owner is cluster.network.responsible_node(target_ident)
                assert received == [
                    (owner.ident, UnsubscribeMessage(query_key="k1"))
                ]
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_send_direct_one_hop(self):
        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                received = recording_handlers(cluster)
                source, target = cluster.network.nodes[0], cluster.network.nodes[2]
                cluster.transport.send_direct(
                    source, UnsubscribeMessage(query_key="k2"), target
                )
                await cluster.drain()
                assert received == [
                    (target.ident, UnsubscribeMessage(query_key="k2"))
                ]
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_recursive_multisend_sweeps_all_owners(self):
        async def scenario():
            cluster = make_cluster(n_nodes=6)
            await cluster.start()
            try:
                received = recording_handlers(cluster)
                source = cluster.network.nodes[0]
                idents = [node.ident for node in cluster.network.nodes[1:5]]
                owners = cluster.transport.multisend(
                    source,
                    [UnsubscribeMessage(query_key=f"k{i}") for i in range(4)],
                    idents,
                )
                await cluster.drain()
                assert sorted(ident for ident, _ in received) == sorted(
                    owner.ident for owner in owners
                )
                assert {m.query_key for _, m in received} == {
                    "k0", "k1", "k2", "k3"
                }
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestFailureHandling:
    def test_retry_exhaustion_surfaces_as_delivery_error(self, caplog):
        async def scenario():
            cluster = make_cluster(max_attempts=2)
            await cluster.start()
            try:
                peer = next(iter(cluster.peers.values()))
                other = next(
                    ident for ident in peer.book if ident != peer.node.ident
                )
                # Point the address book at a dead port: every connect is
                # refused, the outbox retries with backoff, then gives up.
                dead = peer.book[other]
                peer.book[other] = PeerInfo(dead.ident, dead.host, closed_port())
                peer._outboxes.pop(other, None)
                cluster.in_flight.inc()
                peer.post(
                    other,
                    DirectFrame(message=UnsubscribeMessage(query_key="k")),
                    weight=1,
                )
                with pytest.raises(NetworkError, match="DeliveryError"):
                    await cluster.drain()
                assert isinstance(cluster.errors[0], DeliveryError)
                assert cluster.errors[0].message_type == "unsubscribe"
                snapshot = cluster.stats.snapshot()
                assert snapshot.messages_dropped == 1
                assert snapshot.retries == 1  # max_attempts=2 -> one retry
            finally:
                cluster.errors.clear()
                await cluster.stop()

        with caplog.at_level(logging.INFO, logger="repro.net"):
            asyncio.run(scenario())
        # One INFO for the whole recovery (who, toward whom, how it
        # went, the last failure) — not one per attempt or per frame.
        records = [r for r in caplog.records if r.name == "repro.net"]
        assert [r.levelname for r in records] == ["INFO"]
        assert "retried 1 write(s), 0 frame(s) fell back" in records[0].getMessage()
        assert "ConnectionRefusedError" in records[0].getMessage()

    def test_a_crash_during_a_refused_dial_ends_the_recovery(self, monkeypatch):
        """A crash aborts an outbox whose recovery is dialling.  When the
        dial's await surfaces the refused connect instead of the
        cancellation (``asyncio.wait_for`` on Python 3.11 can), the
        recovery must end quietly instead of retrying an emptied batch."""

        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                peer = next(iter(cluster.peers.values()))
                other = next(
                    ident for ident in peer.book if ident != peer.node.ident
                )
                peer._outboxes.pop(other, None)
                recoveries = []

                async def refused(*args, **kwargs):
                    outbox = peer._outboxes[other]
                    recoveries.append(outbox._recovery)
                    for item in outbox.abort():
                        cluster.frame_lost("crashed", item.labels)
                    raise ConnectionRefusedError("refused while crashing")

                monkeypatch.setattr(asyncio, "open_connection", refused)
                cluster.in_flight.inc("unsubscribe")
                peer.post(
                    other,
                    DirectFrame(message=UnsubscribeMessage(query_key="k")),
                    weight=1,
                )
                while not recoveries:
                    await asyncio.sleep(0.01)
                (outcome,) = await asyncio.gather(*recoveries, return_exceptions=True)
                assert outcome is None or isinstance(outcome, asyncio.CancelledError)
                assert cluster.in_flight.count == 0
                assert cluster.errors == []
            finally:
                cluster.errors.clear()
                await cluster.stop()

        asyncio.run(scenario())

    def test_unknown_address_fails_fast(self):
        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                peer = next(iter(cluster.peers.values()))
                cluster.in_flight.inc()
                peer.post(12345678901234567890, object(), weight=1)
                with pytest.raises(NetworkError, match="no address"):
                    await cluster.drain()
            finally:
                cluster.errors.clear()
                await cluster.stop()

        asyncio.run(scenario())
