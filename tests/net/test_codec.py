"""Property-based round-trip tests for the wire codec.

Every message class of :mod:`repro.sim.messages` (and every payload
record it can carry) must survive ``decode(encode(x)) == x`` for
arbitrary field values — including unicode strings and full-width
2**160 - 1 Chord identifiers — and the codec must reject malformed
frames loudly instead of misparsing them.
"""

import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.notifications import Notification
from repro.errors import CodecError
from repro.net.codec import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    decode,
    decode_frame,
    decode_header,
    encode,
    encode_frame,
    register_record,
)
from repro.net.frames import MultiFrame, PeerInfo, RouteFrame
from repro.sim.messages import (
    ALIndexMessage,
    JoinMessage,
    Message,
    NotificationMessage,
    QueryIndexMessage,
    RateProbeMessage,
    UnsubscribeMessage,
    VLIndexMessage,
)
from repro.sql.expr import AttrRef, BinaryOp, Const
from repro.sql.parser import parse_query
from repro.sql.query import (
    BoundValue,
    GroupMember,
    LocalFilter,
    PendingAttr,
    RewrittenGroup,
    Subscriber,
)
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple, ProjectedTuple

from ..core.reference_rewriter import flat_fields

COMMON = settings(max_examples=50, deadline=None)

MAX_IDENT = 2**160 - 1

R = Relation("R", ("A", "B"))
S = Relation("S", ("D", "E"))
BASE_QUERY = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.E")


def roundtrip(obj):
    return decode(encode(obj))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

idents = st.integers(min_value=0, max_value=MAX_IDENT)

#: Attribute values as the engine sees them: ints, floats, strings
#: (unicode included by default), booleans, None.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)

times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)

subscribers = st.builds(Subscriber, key=st.text(max_size=20), ident=idents, ip=st.text(max_size=20))

data_tuples = st.builds(
    lambda a, b, pub: DataTuple(R, (a, b), pub), scalars, scalars, times
)

projected_tuples = st.builds(
    lambda a, pub: ProjectedTuple("S", (("D", a),), pub), scalars, times
)

notifications = st.builds(
    Notification,
    query_key=st.text(max_size=20),
    subscriber_ident=idents,
    row=st.tuples(scalars, scalars),
    join_value_repr=st.text(max_size=20),
    trigger_pub_time=times,
    match_pub_time=times,
    created_at=times,
)

queries = st.builds(
    lambda key, t, sub: dataclasses.replace(
        BASE_QUERY, key=key, insertion_time=t, subscriber=sub
    ),
    st.text(max_size=20),
    times,
    subscribers,
)

select_lists = st.tuples(
    st.one_of(st.builds(BoundValue, value=scalars), st.just(PendingAttr("A")))
)


@st.composite
def rewritten_groups(draw):
    """A group record: 1..3 distinct select lists, 1..6 members."""
    selects = draw(st.lists(select_lists, min_size=1, max_size=3))
    members = draw(
        st.lists(
            st.builds(
                GroupMember,
                query_key=st.text(max_size=20),
                subscriber=subscribers,
                insertion_time=times,
                select_index=st.integers(0, len(selects) - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return RewrittenGroup(
        group_signature=draw(st.text(max_size=20)),
        relation="R",
        expr=draw(
            st.sampled_from(
                [AttrRef("R", "B"), BinaryOp("+", AttrRef("R", "B"), Const(1))]
            )
        ),
        required_value=draw(scalars),
        dis_attribute=draw(st.one_of(st.none(), st.just("B"))),
        dis_value=draw(scalars),
        filters=draw(
            st.tuples(st.builds(LocalFilter, attribute=st.just("A"), value=scalars))
        ),
        trigger_pub_time=draw(times),
        selects=tuple(selects),
        suffixes=tuple(draw(st.text(max_size=20)) for _ in selects),
        members=tuple(members),
    )


# ----------------------------------------------------------------------
# Message round-trips (one property per message class)
# ----------------------------------------------------------------------

class TestMessageRoundTrips:
    def test_base_message(self):
        assert roundtrip(Message()) == Message()

    @COMMON
    @given(query=queries, side=st.sampled_from(["left", "right"]),
           ident=idents, refresh=st.booleans())
    def test_query_index_message(self, query, side, ident, refresh):
        message = QueryIndexMessage(
            query=query, index_side=side, routing_ident=ident, refresh=refresh
        )
        assert roundtrip(message) == message

    @COMMON
    @given(tup=data_tuples, attr=st.sampled_from(["A", "B"]), refresh=st.booleans())
    def test_al_index_message(self, tup, attr, refresh):
        message = ALIndexMessage(tuple=tup, index_attribute=attr, refresh=refresh)
        assert roundtrip(message) == message

    @COMMON
    @given(tup=data_tuples, attr=st.sampled_from(["A", "B"]), refresh=st.booleans())
    def test_vl_index_message(self, tup, attr, refresh):
        message = VLIndexMessage(tuple=tup, index_attribute=attr, refresh=refresh)
        assert roundtrip(message) == message

    @COMMON
    @given(projections=st.tuples(projected_tuples, projected_tuples))
    def test_join_message_projections(self, projections):
        message = JoinMessage(projections=projections)
        assert roundtrip(message) == message

    @COMMON
    @given(record=rewritten_groups())
    def test_join_message_rewritten_fields(self, record):
        keys = record.member_keys()  # the memo must not travel
        (got,) = roundtrip(JoinMessage(rewritten=(record,))).rewritten
        assert got.keys is None
        for f in dataclasses.fields(RewrittenGroup):
            if f.name != "keys":
                assert getattr(got, f.name) == getattr(record, f.name), f.name
        assert got.member_keys() == keys
        for mine, theirs in zip(got.members, record.members):
            # RewrittenQuery compares by identity, hence field by field.
            assert flat_fields(got.expand(mine)) == flat_fields(record.expand(theirs))

    @COMMON
    @given(batch=st.tuples(notifications), ident=idents)
    def test_notification_message(self, batch, ident):
        message = NotificationMessage(notifications=batch, subscriber_ident=ident)
        assert roundtrip(message) == message

    @COMMON
    @given(key=st.text(max_size=40))
    def test_unsubscribe_message(self, key):
        message = UnsubscribeMessage(query_key=key)
        assert roundtrip(message) == message

    @COMMON
    @given(relation=st.text(max_size=20), attribute=st.text(max_size=20))
    def test_rate_probe_message(self, relation, attribute):
        message = RateProbeMessage(relation=relation, attribute=attribute)
        decoded = roundtrip(message)
        assert decoded == message
        # The local answer slot never travels; the receiver gets a fresh one.
        assert decoded.reply_box == []
        assert decoded.reply_box is not message.reply_box


class TestPayloadRoundTrips:
    @COMMON
    @given(value=scalars)
    def test_scalars(self, value):
        got = roundtrip(value)
        assert got == value
        assert type(got) is type(value)

    @COMMON
    @given(tup=data_tuples)
    def test_data_tuple(self, tup):
        got = roundtrip(tup)
        assert got == tup
        # Relation decoding interns: every decode yields the same object.
        assert got.relation is roundtrip(tup).relation

    @COMMON
    @given(note=notifications)
    def test_notification(self, note):
        assert roundtrip(note) == note

    @COMMON
    @given(query=queries)
    def test_join_query(self, query):
        assert roundtrip(query) == query

    def test_full_width_identifier(self):
        """160-bit Chord identifiers survive the varint encoding."""
        message = QueryIndexMessage(
            query=BASE_QUERY, index_side="left", routing_ident=MAX_IDENT
        )
        assert roundtrip(message).routing_ident == MAX_IDENT

    def test_unicode_values(self):
        tup = DataTuple(R, ("καλημέρα", "数据库🛰"), 1.0)
        assert roundtrip(tup) == tup

    def test_numeric_types_stay_distinct(self):
        """2, 2.0 and True are equal in Python but not on the wire."""
        got = roundtrip((2, 2.0, True))
        assert [type(v) for v in got] == [int, float, bool]


class TestFrameEnvelopes:
    @COMMON
    @given(target=idents, hops=st.integers(min_value=0, max_value=200))
    def test_route_frame(self, target, hops):
        frame = RouteFrame(target, ALIndexMessage(
            tuple=DataTuple(R, (1, 2), 0.0), index_attribute="B"
        ), hops)
        assert roundtrip(frame) == frame

    def test_multi_frame_and_peer_info(self):
        frame = MultiFrame(pairs=((5, Message()), (MAX_IDENT, Message())), hops=3)
        assert roundtrip(frame) == frame
        info = PeerInfo(ident=MAX_IDENT, host="127.0.0.1", port=65535)
        assert roundtrip(info) == info


# ----------------------------------------------------------------------
# Framing and failure modes
# ----------------------------------------------------------------------

class TestFraming:
    def test_frame_layout(self):
        frame = encode_frame(Message())
        assert frame[:2] == MAGIC
        assert frame[2] == PROTOCOL_VERSION
        obj, consumed = decode_frame(frame)
        assert obj == Message()
        assert consumed == len(frame)

    def test_header_reports_payload_length(self):
        frame = encode_frame(UnsubscribeMessage(query_key="k"))
        assert decode_header(frame[:HEADER_SIZE]) == len(frame) - HEADER_SIZE

    def test_bad_magic_rejected(self):
        frame = b"XX" + encode_frame(Message())[2:]
        with pytest.raises(CodecError, match="magic"):
            decode_header(frame[:HEADER_SIZE])

    def test_previous_version_rejected(self):
        """Version 1 shipped one flat record per rewritten query; a peer
        still speaking it must be refused, not misparsed."""
        assert PROTOCOL_VERSION == 2
        header = struct.pack(">2sBI", MAGIC, 1, 0)
        with pytest.raises(CodecError, match="version 1"):
            decode_header(header)

    def test_unknown_version_rejected(self):
        header = struct.pack(">2sBI", MAGIC, PROTOCOL_VERSION + 1, 0)
        with pytest.raises(CodecError, match="version"):
            decode_header(header)

    def test_truncated_header_rejected(self):
        with pytest.raises(CodecError, match="header"):
            decode_header(b"RJ")

    def test_truncated_payload_rejected(self):
        frame = encode_frame(UnsubscribeMessage(query_key="key"))
        with pytest.raises(CodecError, match="truncated"):
            decode_frame(frame[:-1])

    def test_oversized_length_rejected(self):
        header = struct.pack(">2sBI", MAGIC, PROTOCOL_VERSION, MAX_PAYLOAD + 1)
        with pytest.raises(CodecError, match="MAX_PAYLOAD"):
            decode_header(header)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            decode(encode(1) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown value tag"):
            decode(b"\xff")

    def test_unserializable_object_rejected(self):
        with pytest.raises(CodecError, match="cannot serialize"):
            encode({1, 2, 3})

    def test_duplicate_tag_registration_rejected(self):
        with pytest.raises(CodecError, match="registered twice"):
            register_record(Relation, 0x10, ("name", "attributes"))
