"""Stream-hardening tests: corrupt bytes on a live socket pair.

Satellite of the chaos PR: a mid-stream :class:`~repro.errors.CodecError`
must close the offending connection (so the sender's retry path dials a
clean one) instead of leaving the reader task dead with the connection
still pooled — and the server must keep serving other connections.

Hypothesis feeds truncated and garbled frames into real sockets; the
cluster under test is deliberately tiny (two nodes) because every
example spins up live TCP servers.
"""

import asyncio
import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.cluster import ClusterConfig, LiveCluster
from repro.net.codec import HEADER_SIZE, encode, encode_frame, frame_for_payload
from repro.net.frames import DirectFrame
from repro.net.peer import NetConfig
from repro.sim.messages import ALIndexMessage, UnsubscribeMessage
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

STREAM = settings(max_examples=12, deadline=None)

def unsubscribe_frame(key: str) -> bytes:
    return encode_frame(DirectFrame(message=UnsubscribeMessage(query_key=key)))


VALID_FRAME = unsubscribe_frame("probe")


def make_cluster():
    return LiveCluster(
        ClusterConfig(
            n_nodes=2,
            quiesce_timeout=5.0,
            net=NetConfig(connect_timeout=0.5, io_timeout=1.0, backoff_base=0.01),
        )
    )


async def poke_and_verify(payload: bytes, *, expect_codec_fault: bool):
    """Write ``payload`` raw to a live peer, then prove the peer still
    works: the poisoned connection dies, a fresh one delivers."""
    cluster = make_cluster()
    await cluster.start()
    try:
        received = []
        for node in cluster.network.nodes:
            node.register_handler(
                "unsubscribe",
                lambda node, message: received.append(message.query_key),
            )
        target = next(iter(cluster.peers.values()))
        info = target.info

        reader, writer = await asyncio.open_connection(info.host, info.port)
        writer.write(payload)
        await writer.drain()
        if expect_codec_fault:
            # A complete-but-corrupt frame: the server must abort the
            # connection from its side (we observe EOF).
            data = await asyncio.wait_for(reader.read(64), 3.0)
            assert data == b""
        else:
            # Mid-frame truncation: close our side; the server must
            # notice and clean up rather than hang.
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass
        if expect_codec_fault:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

        # Give the server a beat to record the fault.
        for _ in range(100):
            if cluster.codec_faults or cluster.stream_breaks:
                break
            await asyncio.sleep(0.01)
        if expect_codec_fault:
            assert cluster.codec_faults >= 1
        else:
            assert cluster.stream_breaks >= 1
        # Without chaos installed, corruption is surfaced as an error;
        # acknowledge it so it doesn't fail the next drain.
        assert cluster.errors
        cluster.errors.clear()

        # The server survived: a clean connection still delivers.
        reader2, writer2 = await asyncio.open_connection(info.host, info.port)
        cluster.in_flight.inc("unsubscribe")
        writer2.write(VALID_FRAME)
        await writer2.drain()
        await cluster.drain()
        assert received == ["probe"]
        writer2.close()
        try:
            await writer2.wait_closed()
        except (OSError, ConnectionError):
            pass
    finally:
        cluster.errors.clear()
        await cluster.stop()


class TestGarbledFrames:
    @STREAM
    @given(junk=st.binary(min_size=HEADER_SIZE, max_size=64))
    def test_garbage_bytes_abort_the_connection(self, junk):
        # Avoid junk that happens to be a valid frame prefix: force a
        # bad magic so the decode deterministically fails.
        poisoned = b"XX" + junk[2:]
        asyncio.run(poke_and_verify(poisoned, expect_codec_fault=True))

    @STREAM
    @given(cut=st.integers(min_value=1, max_value=len(VALID_FRAME) - 1))
    def test_corrupted_payload_of_valid_header(self, cut):
        # Valid header + payload with the tag byte smashed: the server
        # reads the complete frame and must fail in the decoder.
        frame = bytearray(VALID_FRAME)
        frame[HEADER_SIZE] = 0xFF
        asyncio.run(poke_and_verify(bytes(frame), expect_codec_fault=True))


class TestTruncatedFrames:
    @STREAM
    @given(
        cut=st.integers(min_value=HEADER_SIZE + 1, max_value=len(VALID_FRAME) - 1)
    )
    def test_mid_frame_eof_breaks_stream_not_server(self, cut):
        asyncio.run(
            poke_and_verify(VALID_FRAME[:cut], expect_codec_fault=False)
        )


def broken_string_body() -> bytes:
    """A UTF-8 continuation byte flipped inside ``query_key``."""
    wire = bytearray(unsubscribe_frame("qué"))
    wire[wire.index("é".encode()) + 1] = 0x20
    return bytes(wire)


def wrong_tuple_arity() -> bytes:
    """A value tuple one short of its relation's attributes."""
    relation = Relation("R", ("A", "B"))
    payload = encode(
        DirectFrame(
            message=ALIndexMessage(
                tuple=DataTuple(relation, (1, 2), 1.0), index_attribute="A"
            )
        )
    )
    values = encode((1, 2))
    assert payload.count(values) == 1
    return frame_for_payload(payload.replace(values, encode((1,))))


class TestCorruptValuesInsideAFrame:
    """Bytes the *structure* accepts and a constructor rejects: a broken
    string body, a tuple of the wrong arity.  Both used to escape the
    decoder as something other than ``CodecError`` — the connection was
    closed instead of aborted and the fault never counted."""

    @pytest.mark.parametrize("corrupt", [broken_string_body, wrong_tuple_arity])
    def test_one_fault_one_error_abort_and_nothing_after_it(self, corrupt, caplog):
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
                target = next(iter(cluster.peers.values()))
                info = target.info
                reader, writer = await asyncio.open_connection(info.host, info.port)
                cluster.in_flight.inc("unsubscribe")
                # One chunk: a sound frame, the corrupt one, a sound one.
                writer.write(
                    unsubscribe_frame("before") + corrupt() + unsubscribe_frame("after")
                )
                await writer.drain()
                # The server aborts the connection from its side.
                assert await asyncio.wait_for(reader.read(64), 3.0) == b""
                writer.close()
                outcome = (
                    cluster.codec_faults,
                    cluster.stream_breaks,
                    len(cluster.errors),
                    list(received),
                    cluster.in_flight.count,
                )
                cluster.errors.clear()  # acknowledged: the frame was corrupt

                # The server survived: a clean connection still delivers.
                _, writer2 = await asyncio.open_connection(info.host, info.port)
                cluster.in_flight.inc("unsubscribe")
                writer2.write(VALID_FRAME)
                await writer2.drain()
                await cluster.drain()
                writer2.close()
                return outcome, received
            finally:
                cluster.errors.clear()
                await cluster.stop()

        with caplog.at_level(logging.INFO, logger="repro.net"):
            outcome, received = asyncio.run(scenario())
        # One fault, one error, "before" delivered, "after" never.
        assert outcome == (1, 0, 1, ["before"], 0)
        assert received == ["before", "probe"]
        # One WARNING for the fault (who, from where, why); nothing per frame.
        records = [r for r in caplog.records if r.name == "repro.net"]
        assert [r.levelname for r in records] == ["WARNING"]
        message = records[0].getMessage()
        assert "codec fault" in message and "127.0.0.1" in message
        assert ("UnicodeDecodeError" in message) or ("SchemaError" in message)
