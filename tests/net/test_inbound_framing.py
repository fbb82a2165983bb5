"""Framing is independent of chunking: the inbound protocol, fed directly.

``_Inbound.data_received`` gets whatever the kernel read — any number
of frames, cut anywhere, the 7-byte header included.  These tests hand
one protocol object the same byte stream under different cuts (no
sockets: a recording transport, outboxes that are filled and inspected
but never flushed) and require that nothing observable depends on where
the cuts fell: the order handlers ran in, the bytes queued for every
next hop, and the in-flight credits settled.
"""

import asyncio

from hypothesis import given, settings, strategies as st

from repro.net.cluster import ClusterConfig, LiveCluster
from repro.net.codec import HEADER_SIZE, encode_frame
from repro.net.frames import (
    DirectFrame,
    Heartbeat,
    MultiFrame,
    PeerInfo,
    RouteFrame,
)
from repro.net.peer import NetPeer, _Inbound
from repro.sim.messages import UnsubscribeMessage

N_NODES = 4


class RecordingTransport:
    """What ``_Inbound`` uses of a transport."""

    def __init__(self):
        self.written = []
        self.aborted = False

    def write(self, data):
        self.written.append(data)

    def abort(self):
        self.aborted = True

    def get_extra_info(self, name, default=None):
        return default


def message(key: str) -> UnsubscribeMessage:
    return UnsubscribeMessage(query_key=key)


def build_frames(kinds, big_at):
    """One frame per drawn kind, addressed around a 4-node ring whose
    first member is the receiving peer; returns the wire frames and the
    number of message deliveries they owe."""
    network = LiveCluster(ClusterConfig(n_nodes=N_NODES)).network
    idents = [node.ident for node in network.nodes]
    own, others = idents[0], idents[1:]
    frames, credits = [], 0
    for index, (kind, pick, hops) in enumerate(kinds):
        key = f"q{index}"
        if index == big_at:
            key += "x" * (256 * 1024)
        if kind == "heartbeat":
            frame = Heartbeat(sender=others[pick % len(others)])
        elif kind == "direct":
            frame, credits = DirectFrame(message(key)), credits + 1
        elif kind == "route":
            # pick 0: this peer owns the target (deliver); else relay.
            frame = RouteFrame(idents[pick % N_NODES], message(key), hops=hops)
            credits += 1
        else:
            # Owned pairs and foreign pairs in one sweep: deliver + splice,
            # or a pure relay when nothing is owned.
            targets = [own] * (pick % 3) + sorted(others)[: 1 + pick % 2]
            frame = MultiFrame(
                tuple((t, message(f"{key}.{n}")) for n, t in enumerate(targets)),
                hops=hops,
            )
            credits += len(targets)
        frames.append(encode_frame(frame))
    return frames, credits


def replay(chunks, credits, *, lose_connection=False):
    """Feed ``chunks`` to a fresh peer's inbound protocol; return all
    that may be observed of it."""

    async def scenario():
        cluster = LiveCluster(ClusterConfig(n_nodes=N_NODES))
        nodes = cluster.network.nodes
        peer = NetPeer(nodes[0], cluster)
        for node in nodes:  # an address per member, so relays can be queued
            peer.book[node.ident] = PeerInfo(node.ident, "127.0.0.1", 1)
        delivered = []
        nodes[0].register_handler(
            "unsubscribe",
            lambda node, msg: delivered.append(
                (msg.query_key[:12], len(msg.query_key))
            ),
        )
        cluster.in_flight.inc("unsubscribe", credits)
        connection = _Inbound(peer)
        transport = RecordingTransport()
        connection.connection_made(transport)
        for chunk in chunks:
            connection.data_received(chunk)
        if lose_connection:
            connection.connection_lost(None)
        relayed = {
            ident: [item.data for item in outbox.pending]
            for ident, outbox in peer._outboxes.items()
        }
        for outbox in peer._outboxes.values():
            outbox.abort()  # never flushed: nothing here listens
        return {
            "delivered": delivered,
            "relayed": relayed,
            "in_flight": (cluster.in_flight.count, cluster.in_flight.pending()),
            "hops": cluster.stats.snapshot().hops,
            "frames_sent": peer.frames_sent,
            "faults": (cluster.codec_faults, cluster.stream_breaks),
            "errors": len(cluster.errors),
            "aborted": transport.aborted,
            "copied": connection.copied,
        }

    return asyncio.run(scenario())


frame_kinds = st.lists(
    st.tuples(
        st.sampled_from(["route", "multi", "direct", "heartbeat"]),
        st.integers(0, 7),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=40,
)


class TestFramingIsIndependentOfChunking:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_cuts_equal_one_chunk(self, data):
        kinds = data.draw(frame_kinds, label="frames")
        big_at = data.draw(st.integers(0, len(kinds) - 1), label="big frame")
        frames, credits = build_frames(kinds, big_at)
        stream = b"".join(frames)
        # Cuts anywhere, and some aimed inside a frame's 7-byte header.
        starts = [sum(len(f) for f in frames[:i]) for i in range(len(frames))]
        header_cuts = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(starts), st.integers(1, HEADER_SIZE - 1)
                ),
                max_size=6,
            ),
            label="header cuts",
        )
        cuts = data.draw(
            st.sets(st.integers(1, len(stream) - 1), max_size=12), label="cuts"
        )
        cuts |= {start + offset for start, offset in header_cuts}
        bounds = [0, *sorted(cuts), len(stream)]
        chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]

        whole = replay([stream], credits)
        cut = replay(chunks, credits)
        assert whole.pop("copied") == 0  # one chunk, frame-aligned: no buffering
        cut.pop("copied")
        assert cut == whole
        assert whole["faults"] == (0, 0) and not whole["aborted"]

    def test_large_frame_in_small_chunks_is_copied_at_most_twice(self):
        key = "k" * (4 * 1024 * 1024)
        frame = encode_frame(DirectFrame(message(key)))
        chunks = [frame[i : i + 1024] for i in range(0, len(frame), 1024)]
        seen = replay(chunks, 1)
        assert seen["delivered"] == [(key[:12], len(key))]
        assert seen["in_flight"] == (0, {})
        # In once, out once — counted, whatever the chunk size.
        assert 0 < seen["copied"] <= 2 * len(frame)

    def test_header_split_across_chunks(self):
        frame = encode_frame(DirectFrame(message("split")))
        for cut in range(1, HEADER_SIZE):
            seen = replay([frame[:cut], frame[cut:]], 1)
            assert seen["delivered"] == [("split", 5)]
            seen = replay([bytes([b]) for b in frame], 1)
            assert seen["delivered"] == [("split", 5)]

    def test_mid_frame_eof_is_exactly_one_stream_break(self):
        frame = encode_frame(DirectFrame(message("cut short")))
        sound = encode_frame(DirectFrame(message("sound")))
        for cut in (3, HEADER_SIZE, len(frame) - 1):
            seen = replay([sound + frame[:cut]], 2, lose_connection=True)
            assert seen["delivered"] == [("sound", 5)]
            assert seen["faults"] == (0, 1)
        # A close on a frame boundary is silent.
        seen = replay([sound], 1, lose_connection=True)
        assert seen["faults"] == (0, 0)

    def test_corrupt_frame_stops_the_chunk_and_aborts(self):
        sound = encode_frame(DirectFrame(message("sound")))
        bad = bytearray(sound)
        bad[HEADER_SIZE] = 0xFF
        seen = replay([sound + bytes(bad) + sound], 3, lose_connection=True)
        assert seen["delivered"] == [("sound", 5)]
        assert seen["faults"] == (1, 0) and seen["aborted"]
