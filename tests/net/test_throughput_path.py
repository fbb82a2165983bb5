"""Tests for the live-throughput path: structural peeks, raw relay
splicing, batched stream decode, and the golden wire bytes.

The zero-copy relay never materializes the messages it forwards, so
every structural helper here is proven byte-exact against the full
decode/encode round trip: a peek must read exactly what decode reads, a
splice must produce exactly the bytes a re-encode would, and the hop
bump must equal re-encoding the frame with ``hops + 1``.  The wire
format itself is pinned by a golden fixture produced by the seed codec,
so a codec edit that changes bytes fails here instead of silently
breaking mixed-version rings.
"""

import asyncio
import dataclasses
import json
import socket
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.net.cluster import ClusterConfig, LiveCluster
from repro.net.codec import (
    HEADER_SIZE,
    TAG_SEALED_SHAPE,
    decode_frame,
    decode_frame_payload,
    encode,
    encode_frame,
    skip_value,
)
from repro.net.frames import (
    DirectFrame,
    MultiFrame,
    RouteFrame,
    bump_route_hops,
    peek_multi,
    peek_route,
    splice_multi,
)
from repro.net.peer import MAX_BATCH_FRAMES, NetConfig
from repro.sim.messages import ALIndexMessage, JoinMessage, UnsubscribeMessage
from repro.sql.expr import AttrRef
from repro.sql.query import (
    GroupMember,
    GroupShape,
    LocalFilter,
    PendingAttr,
    Subscriber,
    bind,
)
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

COMMON = settings(max_examples=50, deadline=None)
R = Relation("R", ("A", "B"))

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=12,
)


def data_tuple(a, b):
    return DataTuple.make(R, {"A": a, "B": b}, pub_time=1.0)


def message_for(n: int):
    """A deterministic, codec-registered application message."""
    if n % 2:
        return UnsubscribeMessage(query_key=f"probe-{n}")
    return ALIndexMessage(tuple=data_tuple(n, n * 7), index_attribute="B")


class TestStructuralSkip:
    @COMMON
    @given(value=values)
    def test_skip_matches_decode_span(self, value):
        payload = encode(value)
        assert skip_value(payload, 0) == len(payload)
        decoded = decode_frame_payload(payload)
        assert repr(decoded) == repr(value)  # repr: 1.0 != 1 distinction
        # The same value embedded at an offset, located by the skip.
        framed = b"\x00" + payload + b"\x00"
        assert repr(decode_frame_payload(framed, 1, len(framed) - 1)) == repr(value)
        for wrong_end in (len(framed) - 2, len(framed)):
            with pytest.raises(CodecError):
                decode_frame_payload(framed, 1, wrong_end)

    @COMMON
    @given(value=values, n=st.integers(min_value=0, max_value=40))
    def test_skip_rejects_truncation(self, value, n):
        payload = encode(value)
        if n >= len(payload):
            return
        with pytest.raises(Exception):
            if skip_value(payload[:n], 0) > n:
                raise ValueError("skipped past the truncation point")

    def test_skip_over_registered_records(self):
        payload = encode(message_for(2))
        assert skip_value(payload, 0) == len(payload)


class TestRoutePeek:
    @COMMON
    @given(
        target=st.integers(min_value=0, max_value=2**160 - 1),
        hops=st.integers(min_value=0, max_value=63),
        n=st.integers(min_value=0, max_value=5),
    )
    def test_peek_route_matches_decode(self, target, hops, n):
        frame = RouteFrame(target_ident=target, message=message_for(n), hops=hops)
        payload = encode(frame)
        peeked = peek_route(payload)
        assert peeked is not None
        got_target, got_tag, got_hops = peeked
        assert got_target == target
        assert got_hops == hops
        assert got_tag == encode(frame.message)[0]

    def test_peek_route_declines_wide_hop_counters(self):
        # hops >= 64 zigzags to a multi-byte varint: the relay must
        # fall back to the decoded path, never misread the tail.
        payload = encode(RouteFrame(1, message_for(1), hops=64))
        assert peek_route(payload) is None
        decoded, _ = decode_frame(encode_frame(RouteFrame(1, message_for(1), 64)))
        assert decoded.hops == 64

    @COMMON
    @given(junk=st.binary(max_size=24))
    def test_peek_route_never_raises_on_junk(self, junk):
        assert peek_route(junk) is None or isinstance(peek_route(junk), tuple)

    @COMMON
    @given(
        target=st.integers(min_value=0, max_value=2**160 - 1),
        hops=st.integers(min_value=0, max_value=61),
    )
    def test_bump_equals_reencode(self, target, hops):
        frame = RouteFrame(target_ident=target, message=message_for(1), hops=hops)
        data = encode_frame(frame)
        bumped = bump_route_hops(data[:HEADER_SIZE], data[HEADER_SIZE:])
        assert bumped == encode_frame(dataclasses.replace(frame, hops=hops + 1))


class TestMultiPeekAndSplice:
    @COMMON
    @given(
        idents=st.lists(
            st.integers(min_value=0, max_value=2**160 - 1),
            min_size=1,
            max_size=6,
        ),
        hops=st.integers(min_value=0, max_value=61),
        data=st.data(),
    )
    def test_peek_splice_and_bump(self, idents, hops, data):
        pairs = tuple(
            (ident, message_for(i)) for i, ident in enumerate(idents)
        )
        frame = MultiFrame(pairs=pairs, hops=hops)
        wire = encode_frame(frame)
        payload = wire[HEADER_SIZE:]

        peeked = peek_multi(payload)
        assert peeked is not None
        got_idents, tags, message_starts, pair_starts, got_hops = peeked
        assert got_idents == list(idents)
        assert got_hops == hops
        pair_ends = pair_starts[1:] + [len(payload) - 2]
        for i, start in enumerate(message_starts):
            assert decode_frame_payload(payload, start, pair_ends[i]) == pairs[i][1]
            assert tags[i] == encode(pairs[i][1])[0]

        # A pure relay forwards the identical bytes with hops + 1.
        bumped = bump_route_hops(wire[:HEADER_SIZE], payload)
        assert bumped == encode_frame(dataclasses.replace(frame, hops=hops + 1))

        # A delivering hop splices out any kept subset verbatim.
        keep = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=len(pairs) - 1),
                    min_size=1,
                )
            )
        )
        spliced = splice_multi(payload, pair_starts, keep, hops)
        expected = MultiFrame(
            pairs=tuple(pairs[i] for i in keep), hops=hops + 1
        )
        assert spliced == encode(expected)

    def test_peek_multi_declines_wide_hop_counters(self):
        frame = MultiFrame(pairs=((1, message_for(1)),), hops=64)
        assert peek_multi(encode(frame)) is None

    @COMMON
    @given(junk=st.binary(max_size=24))
    def test_peek_multi_never_raises_on_junk(self, junk):
        peek_multi(junk)  # must not raise


def join_group_message():
    """A ``join()`` carrying one group record: three select lists, two of
    which read the same trigger attribute (one bound value and one
    suffix for both), three members, the join-condition fields once."""
    subscriber = Subscriber("n7", 2**100 + 7, "10.0.0.7")
    shape = GroupShape(
        group_signature="R:R.B[]=S:S.E[F=1]",
        relation="S",
        expr=AttrRef("S", "E"),
        dis_attribute="E",
        filters=(LocalFilter("F", 1),),
        members=(
            GroupMember("n7#1", subscriber, 1.0, 0),
            GroupMember("n9#4", Subscriber("n9", 9, "10.0.0.9"), 2.0, 1),
            GroupMember("n7#2", subscriber, 3.0, 2),
        ),
        select_specs=(
            (0, PendingAttr("D")),
            (PendingAttr("D"), 1, 2),
            (0, PendingAttr("F")),
        ),
    )
    record = bind(shape, 7, 7, 5.0, (10, "x", 2.5))
    assert record.suffixes == ("+10+7", "+x+2.5+7", "+10+7")
    return JoinMessage(rewritten=(record,))


class TestGoldenWireBytes:
    """The wire format is pinned by bytes, not by a second codec.

    ``golden_wire_frames.json`` holds these samples as encoded by the
    seed (pre-memo, pre-buffer-pool) codec just before it was deleted,
    re-stamped with the version byte each time ``join()`` changed what it
    carries — version 2: one group record instead of one flat record per
    rewritten query; version 3: the record as a sealed shape plus the
    trigger's values; version 4: select items as positions into one bound
    value per distinct trigger attribute.  ``join_group`` is the only
    frame whose payload those changed.
    """

    GOLDEN = json.loads(
        (Path(__file__).parent / "golden_wire_frames.json").read_text()
    )["frames"]
    SAMPLES = {
        **{f"message_{n}": message_for(n) for n in range(4)},
        "route_frame_2pow159": RouteFrame(2**159, message_for(1), hops=3),
        "multi_frame": MultiFrame(
            ((5, message_for(2)), (9, message_for(3))), hops=1
        ),
        "mixed_tuple": ("mixed", (1, 2.5, None), {"k": [True, b"x"]}),
        "join_group": join_group_message(),
    }

    def test_encode_matches_golden_and_round_trips(self):
        assert self.SAMPLES.keys() == self.GOLDEN.keys()
        for name, sample in self.SAMPLES.items():
            golden = self.GOLDEN[name]
            assert encode_frame(sample).hex() == golden, name
            decoded, consumed = decode_frame(bytes.fromhex(golden))
            assert consumed == len(golden) // 2
            assert decoded == sample, name
            assert repr(decoded) == repr(sample), name  # 1 vs 1.0


def make_cluster(**net_kwargs):
    return LiveCluster(
        ClusterConfig(
            n_nodes=2,
            quiesce_timeout=10.0,
            net=NetConfig(
                connect_timeout=0.5, io_timeout=2.0, backoff_base=0.01, **net_kwargs
            ),
        )
    )


async def blast_frames(cluster, payload_chunks, n_frames):
    """Write pre-framed bytes to one live peer in the given chunks and
    wait until every frame was handled."""
    received = []
    for node in cluster.network.nodes:
        node.register_handler(
            "unsubscribe", lambda node, message: received.append(message.query_key)
        )
    target = next(iter(cluster.peers.values()))
    for _ in range(n_frames):
        cluster.in_flight.inc("unsubscribe")
    reader, writer = await asyncio.open_connection(
        target.info.host, target.info.port
    )
    try:
        for chunk in payload_chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0)
        await cluster.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass
    return received


class TestCoalescedStream:
    """The receive loop must split any batching the sender (or the
    kernel) performed: frame boundaries exist only in the length
    prefixes, never in packet boundaries."""

    def test_many_frames_in_one_write(self):
        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                frames = [
                    encode_frame(
                        DirectFrame(message=UnsubscribeMessage(query_key=f"q{i}"))
                    )
                    for i in range(8)
                ]
                return await blast_frames(cluster, [b"".join(frames)], 8)
            finally:
                await cluster.stop()

        received = asyncio.run(scenario())
        assert received == [f"q{i}" for i in range(8)]

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_arbitrary_chunk_boundaries(self, data):
        frames = [
            encode_frame(
                DirectFrame(message=UnsubscribeMessage(query_key=f"q{i}"))
            )
            for i in range(4)
        ]
        stream = b"".join(frames)
        cuts = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=1, max_value=len(stream) - 1),
                    max_size=6,
                )
            )
        )
        bounds = [0] + cuts + [len(stream)]
        chunks = [
            stream[a:b] for a, b in zip(bounds, bounds[1:]) if a != b
        ]

        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                return await blast_frames(cluster, chunks, 4)
            finally:
                await cluster.stop()

        assert asyncio.run(scenario()) == [f"q{i}" for i in range(4)]


class TestDeliveringHopIsAtomic:
    """A multisend hop that owns several pairs decodes all of them
    before it delivers any."""

    def test_corrupt_second_owned_message_delivers_nothing(self):
        async def send(peer, wire):
            _, writer = await asyncio.open_connection(peer.info.host, peer.info.port)
            writer.write(wire)
            await writer.drain()
            return writer

        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            writers = []
            try:
                received = []
                for node in cluster.network.nodes:
                    node.register_handler(
                        "unsubscribe",
                        lambda node, message: received.append(
                            (node.ident, message.query_key)
                        ),
                    )
                target, other = cluster.peers.values()
                own, far = target.node.ident, other.node.ident
                first = UnsubscribeMessage(query_key="first")
                third = UnsubscribeMessage(query_key="third")
                wire = bytearray(
                    encode_frame(
                        MultiFrame(
                            ((own, first), (own, join_group_message()), (far, third)),
                            hops=0,
                        )
                    )
                )
                # Smash the first byte inside the sealed shape of the
                # second pair: the structural walk steps over a sealed
                # shape by its length, so only the decoder can notice.
                starts = peek_multi(bytes(wire[HEADER_SIZE:]))[2]
                sealed_at = HEADER_SIZE + starts[1] + 4  # join, tuple(1), record
                assert wire[sealed_at] == TAG_SEALED_SHAPE
                assert wire[sealed_at + 1] >= 0x80 > wire[sealed_at + 2]
                wire[sealed_at + 3] = 0xFF
                assert peek_multi(bytes(wire[HEADER_SIZE:])) is not None
                writers.append(await send(target, bytes(wire)))
                for _ in range(200):
                    if cluster.codec_faults:
                        break
                    await asyncio.sleep(0.01)
                outcome = (
                    cluster.codec_faults,
                    list(received),
                    target.frames_sent,
                    len(cluster.errors),
                )
                cluster.errors.clear()  # acknowledged: the frame was corrupt

                # The same hop with sound pairs delivers and forwards.
                for _ in range(2):
                    cluster.in_flight.inc("unsubscribe")
                good = encode_frame(MultiFrame(((own, first), (far, third)), hops=0))
                writers.append(await send(target, good))
                await cluster.drain()
                return outcome, sorted(received), sorted([(own, "first"), (far, "third")])
            finally:
                for writer in writers:
                    writer.close()
                cluster.errors.clear()
                await cluster.stop()

        outcome, delivered, expected = asyncio.run(scenario())
        # One codec fault noted, nothing delivered, nothing forwarded.
        assert outcome == (1, [], 0, 1)
        assert delivered == expected


class TestBatchingAndNodelay:
    def test_rapid_posts_coalesce_into_batches(self):
        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                received = []
                for node in cluster.network.nodes:
                    node.register_handler(
                        "unsubscribe",
                        lambda node, message: received.append(message.query_key),
                    )
                sender, target = list(cluster.peers.values())
                # Synchronous enqueue of a burst: the outbox task wakes
                # once and must ship the backlog as coalesced writes.
                for i in range(12):
                    cluster.in_flight.inc("unsubscribe")
                    sender.post(
                        target.node.ident,
                        DirectFrame(
                            message=UnsubscribeMessage(query_key=f"q{i}")
                        ),
                        weight=1,
                    )
                await cluster.drain()
                batches = sender.batches_sent
                frames = sender.frames_sent
                return received, batches, frames
            finally:
                await cluster.stop()

        received, batches, frames = asyncio.run(scenario())
        assert sorted(received) == sorted(f"q{i}" for i in range(12))
        assert frames >= 12
        assert 1 <= batches < frames

    def test_failed_batch_falls_back_to_per_frame_retries(self):
        """A burst queued behind a stopped listener ships as one batch
        write that fails; every frame must then be retried on its own
        and land exactly once when the server returns on its old port."""
        n_frames = 16
        assert 12 <= n_frames <= MAX_BATCH_FRAMES

        async def scenario():
            cluster = make_cluster(max_attempts=8)
            await cluster.start()
            try:
                received = []
                for node in cluster.network.nodes:
                    node.register_handler(
                        "unsubscribe",
                        lambda node, message: received.append(message.query_key),
                    )
                sender, target = list(cluster.peers.values())
                port = target.info.port
                await target.stop_server()
                for i in range(n_frames):
                    cluster.in_flight.inc("unsubscribe")
                    sender.post(
                        target.node.ident,
                        DirectFrame(
                            message=UnsubscribeMessage(query_key=f"q{i}")
                        ),
                        weight=1,
                    )
                # Let the batch write hit the refused port, then bring
                # the listener back well inside the retry budget
                # (0.01 * 2**k backoff, 8 attempts ~ 1.3 s).
                await asyncio.sleep(0.05)
                await target.start(target.info.host, port)
                await cluster.drain()
                return (
                    received,
                    list(cluster.fault_log),
                    cluster.stats.snapshot().retries,
                )
            finally:
                await cluster.stop()

        received, fault_log, retries = asyncio.run(scenario())
        assert sorted(received) == sorted(f"q{i}" for i in range(n_frames))
        assert fault_log == []
        assert retries >= 1

    def test_tcp_nodelay_set_on_outbox_sockets(self):
        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                sender, target = list(cluster.peers.values())
                cluster.in_flight.inc("unsubscribe")
                sender.post(
                    target.node.ident,
                    DirectFrame(message=UnsubscribeMessage(query_key="q")),
                    weight=1,
                )
                await cluster.drain()
                outbox = next(iter(sender._outboxes.values()))
                sock = outbox.writer.get_extra_info("socket")
                return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            finally:
                await cluster.stop()

        assert asyncio.run(scenario()) != 0
