"""Property-based round-trip tests for the wire codec.

Every message class of :mod:`repro.sim.messages` (and every payload
record it can carry) must survive ``decode(encode(x)) == x`` for
arbitrary field values — including unicode strings and full-width
2**160 - 1 Chord identifiers — and the codec must reject malformed
frames loudly instead of misparsing them.
"""

import dataclasses
import json
import struct
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.notifications import Notification
from repro.core.tables import QueryGroup, StoredQuery
from repro.errors import CodecError, QueryError, SchemaError
from repro.net import codec, frames
from repro.net.codec import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    TAG_SEALED_SHAPE,
    decode,
    decode_frame,
    decode_header,
    encode,
    encode_frame,
    register_record,
    skip_value,
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
from repro.sql.expr import AttrRef, BinaryOp, Const, Negate
from repro.sql.parser import parse_query
from repro.sql.query import (
    LEFT,
    BoundValue,
    GroupMember,
    GroupShape,
    JoinQuery,
    LocalFilter,
    PendingAttr,
    QuerySide,
    RewrittenGroup,
    Subscriber,
    rewrite,
)
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple, ProjectedTuple

from ..core.reference_rewriter import flat_fields

COMMON = settings(max_examples=50, deadline=None)

MAX_IDENT = 2**160 - 1

R = Relation("R", ("A", "B"))
S = Relation("S", ("D", "E"))
#: The trigger relation of the generated group records.
T = Relation("T", ("A", "B", "C"))
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

def rewriter_group(queries) -> QueryGroup:
    """``queries`` (one join condition) as a rewriter holds them."""
    group = QueryGroup(queries[0].join_signature(), LEFT)
    for query in queries:
        group.add(StoredQuery(query, LEFT, 0))
    return group


#: Select lists over ``T`` (bound from the trigger) and ``S`` (pending):
#: zero to two bound items, in either order.
GROUP_SELECTS = [
    (AttrRef("T", "A"), AttrRef("S", "D")),
    (AttrRef("S", "D"), AttrRef("T", "C"), AttrRef("T", "A")),
    (AttrRef("T", "C"),),
    (AttrRef("S", "D"),),
]
numbers = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def rewritten_groups(draw):
    """A group record as the engine makes one: ``rewrite()`` of a group
    of 1..6 queries over 1..4 select lists, then possibly restricted to
    some members or split — never a hand-built suffix."""
    bare = draw(st.booleans())
    index_expr = (
        AttrRef("T", "B") if bare else BinaryOp("+", AttrRef("T", "B"), Const(1))
    )
    dis_expr = draw(
        st.sampled_from(
            [
                AttrRef("S", "E"),
                BinaryOp("*", AttrRef("S", "E"), Const(2)),
                BinaryOp("+", AttrRef("S", "E"), AttrRef("S", "D")),  # T2
            ]
        )
    )
    filters = draw(
        st.lists(
            st.builds(LocalFilter, attribute=st.just("D"), value=scalars), max_size=2
        )
    )
    queries = [
        JoinQuery(
            select=draw(st.sampled_from(GROUP_SELECTS)),
            left=QuerySide("T", index_expr),
            right=QuerySide("S", dis_expr, tuple(filters)),
            key=draw(st.text(max_size=20)),
            insertion_time=draw(st.floats(min_value=0.0, max_value=10.0)),
            subscriber=draw(subscribers),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    trigger = DataTuple(
        T,
        (draw(scalars), draw(scalars if bare else numbers), draw(scalars)),
        draw(st.floats(min_value=5.0, max_value=1e9)),
    )
    try:
        record = rewrite(rewriter_group(queries), LEFT, trigger)
    except QueryError:  # a dis side that cannot be solved for this value
        record = None
    assume(record is not None)
    how = draw(st.sampled_from(["whole", "restrict", "split"]))
    if how == "restrict":
        positions = draw(
            st.lists(
                st.integers(0, len(record.members) - 1), min_size=1, unique=True
            )
        )
        record = record.restrict(sorted(positions))
    elif how == "split":
        record = draw(st.sampled_from(record.split()))
    return record


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
        for f in dataclasses.fields(GroupShape):
            if f.name != "sealed":
                assert getattr(got.shape, f.name) == getattr(record.shape, f.name), f.name
        # ``1``, ``1.0``, ``"1"``, ``True`` and ``None`` stay what they were.
        assert repr(got) == repr(record)
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
# The sealed group shape
# ----------------------------------------------------------------------

def group_record(n_members=3, tag=""):
    """A record whose shape differs from every other ``tag``'s."""
    queries = [
        JoinQuery(
            select=GROUP_SELECTS[i % 2],
            left=QuerySide("T", AttrRef("T", "B")),
            right=QuerySide("S", AttrRef("S", "E"), (LocalFilter("D", 1),)),
            key=f"q{tag}#{i}",
            insertion_time=float(i),
            subscriber=Subscriber("n7", 2**100 + 7, "10.0.0.7"),
        )
        for i in range(n_members)
    ]
    return rewrite(rewriter_group(queries), LEFT, DataTuple(T, (10, 7, "x"), 50.0))


def sealed_span(payload: bytes) -> tuple[int, int, int]:
    """``(tag position, body start, body end)`` of the one sealed shape
    inside an encoded group record (shapes here stay under 16 KiB)."""
    at = payload.index(bytes((TAG_SEALED_SHAPE,)))
    reader = codec._Reader(payload)
    reader.pos = at + 1
    length = reader.read_uvarint()
    return at, reader.pos, reader.pos + length


#: One instance of every record class the codec registers, so a record
#: added later without a structural-skip check fails the census below.
RECORD_SAMPLES = [
    R,
    DataTuple(R, (1, 2.5), 1.0),
    ProjectedTuple("S", (("D", None),), 2.0),
    Const(1),
    AttrRef("R", "B"),
    BinaryOp("+", AttrRef("R", "B"), Const(1)),
    Negate(AttrRef("R", "B")),
    LocalFilter("A", "x"),
    QuerySide("R", AttrRef("R", "B"), (LocalFilter("A", 1),)),
    Subscriber("n1", MAX_IDENT, "10.0.0.1"),
    BASE_QUERY,
    BoundValue(1.0),
    PendingAttr("D"),
    GroupMember("q#1", Subscriber("n1", 1, "ip"), 1.0, 0),
    group_record().shape,
    group_record(),
    Notification("q", 1, (1, "x"), "7", 1.0, 2.0, 3.0),
    Message(),
    QueryIndexMessage(query=BASE_QUERY, index_side="left", routing_ident=5),
    ALIndexMessage(tuple=DataTuple(R, (1, 2), 0.0), index_attribute="B"),
    VLIndexMessage(tuple=DataTuple(R, (1, 2), 0.0), index_attribute="B"),
    JoinMessage(rewritten=(group_record(), group_record(1))),
    NotificationMessage(notifications=(), subscriber_ident=3),
    UnsubscribeMessage(query_key="q"),
    RateProbeMessage(relation="R", attribute="B"),
    PeerInfo(1, "127.0.0.1", 9),
    RouteFrame(7, JoinMessage(rewritten=(group_record(),)), 2),
    MultiFrame(((5, JoinMessage(rewritten=(group_record(),))), (9, Message())), 1),
    frames.DirectFrame(Message()),
    frames.JoinRequest(PeerInfo(1, "h", 2)),
    frames.JoinReply((PeerInfo(1, "h", 2),)),
    frames.MemberUpdate((PeerInfo(1, "h", 2),)),
    frames.Heartbeat(4),
]


class TestSealedShape:
    def test_skip_spans_every_registered_record(self):
        registered = {
            cls for cls in codec._ENCODERS if dataclasses.is_dataclass(cls)
        }
        assert {type(sample) for sample in RECORD_SAMPLES} == registered
        for sample in RECORD_SAMPLES:
            payload = encode(sample)
            assert skip_value(payload, 0) == len(payload), type(sample).__name__
            assert skip_value(payload + b"\x00", 0) == len(payload)

    @COMMON
    @given(record=rewritten_groups())
    def test_skip_spans_generated_group_records(self, record):
        payload = encode(JoinMessage(rewritten=(record, record)))
        assert skip_value(payload, 0) == len(payload)

    def test_equal_bytes_decode_to_the_same_shape_object(self):
        payload = encode(group_record(tag="same"))
        first, second = decode(payload), decode(payload)
        assert first is not second and first.shape is second.shape
        # Another trigger of the same plan: other values, the same shape.
        source = dataclasses.replace(
            BASE_QUERY, key="k", subscriber=Subscriber("n", 1, "ip")
        )
        a = rewrite(source, LEFT, DataTuple(R, (1, 2), 5.0))
        b = rewrite(source, LEFT, DataTuple(R, ("1", 2.5), 6.0))
        assert a.shape is b.shape and a.shape.sealed is None
        got_a, got_b = roundtrip(a), roundtrip(b)
        assert a.shape.sealed is not None  # sealed by the first encode, reused
        assert got_a.shape is got_b.shape and got_a.suffixes != got_b.suffixes
        assert (got_a, got_b) == (a, b)

    def test_restrict_and_split_start_unsealed(self):
        record = group_record()
        encode(record)
        assert record.shape.sealed is not None
        assert record.restrict((0, 2)).shape.sealed is None
        assert all(part.shape.sealed is None for part in record.split())
        assert roundtrip(record.restrict((0, 2))).member_keys() == (
            "q#0+10+7", "q#2+10+7"
        )

    @pytest.mark.parametrize(
        "garble",
        [
            "flipped_bit",
            "short_length",
            "long_length",
            "trailing_inner_bytes",
            "select_index_out_of_range",
            "bound_values_missing",
        ],
    )
    def test_garbled_shape_raises_and_is_never_interned(self, garble):
        record = group_record(tag=garble)
        payload = encode(record)
        at, start, end = sealed_span(payload)
        body = payload[start:end]

        def resealed(body: bytes, announced: int) -> bytes:
            head = bytearray(payload[: at + 1])
            codec._write_uvarint(head, announced)
            return bytes(head) + body + payload[end:]

        if garble == "flipped_bit":
            # The first inner tag: TAG_STR -> a tag nothing registers.
            payload = resealed(bytes((body[0] ^ 0x80,)) + body[1:], len(body))
        elif garble == "short_length":
            payload = resealed(body, len(body) - 1)
        elif garble == "long_length":
            payload = resealed(body, len(body) + 1)
        elif garble == "trailing_inner_bytes":
            # The fields decode, but the shape does not end where its
            # seal says it does.
            payload = resealed(body + b"\x00", len(body) + 1)
        elif garble == "select_index_out_of_range":
            shape = dataclasses.replace(
                record.shape,
                sealed=None,
                members=(GroupMember("q", Subscriber("n", 1, "ip"), 0.0, 2),),
            )
            payload = encode(dataclasses.replace(record, shape=shape))
        else:
            payload = encode(dataclasses.replace(record, bound=record.bound[:-1]))
        before = dict(codec._SHAPE_TABLE)
        with pytest.raises(CodecError):
            decode(payload)
        if garble != "bound_values_missing":  # there the shape itself is sound
            assert codec._SHAPE_TABLE == before
        # The honest bytes still decode, and intern, afterwards.
        assert decode(encode(record)) == record

    def test_intern_table_stays_within_its_bound(self):
        bound = codec._SHAPE_TABLE_MAX
        first = encode(group_record(1, tag="bound-first"))
        kept = decode(first).shape
        for i in range(bound + 8):
            decode(encode(group_record(1, tag=f"bound-{i}")))
            assert len(codec._SHAPE_TABLE) <= bound
        # The oldest entry left; its bytes decode again to an equal shape.
        again = decode(first).shape
        assert again == kept and again is not kept


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
        """Version 2 shipped every member, select item and suffix of a
        group record per trigger; a peer still speaking it must be
        refused, not misparsed."""
        assert PROTOCOL_VERSION == 3
        header = struct.pack(">2sBI", MAGIC, 2, 0)
        with pytest.raises(CodecError, match=r"version 2 \(this peer speaks 3\)"):
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


# ----------------------------------------------------------------------
# Mutation fuzz: damaged bytes are a CodecError, never anything else
# ----------------------------------------------------------------------

GOLDEN_FRAMES = {
    name: bytes.fromhex(wire)
    for name, wire in json.loads(
        (Path(__file__).parent / "golden_wire_frames.json").read_text()
    )["frames"].items()
}
FUZZ = settings(max_examples=400, deadline=None)
golden_names = st.sampled_from(sorted(GOLDEN_FRAMES))


def decodes_or_codec_error(wire: bytes) -> None:
    """``decode_frame`` may return a value or raise ``CodecError`` —
    pytest fails the test on any other exception — and whatever the
    attempt interned is exactly what its bytes say: a shape that failed
    to decode or validate never enters the table."""
    before = dict(codec._SHAPE_TABLE)
    with suppress(CodecError):
        decode_frame(wire)
    for blob, shape in codec._SHAPE_TABLE.items():
        if blob in before:
            continue
        inner = codec._Reader(blob)
        rebuilt = GroupShape(
            *[codec._decode_value(inner) for _ in codec._SHAPE_FIELDS]
        )
        assert inner.pos == len(blob) and rebuilt == shape


class TestMutationFuzz:
    @FUZZ
    @given(
        name=golden_names,
        position=st.integers(min_value=0),
        byte=st.integers(0, 255),
    )
    # ``DataTuple(relation=None, ...)``: its validator raised AttributeError.
    @example(name="message_0", position=9, byte=0)
    def test_one_changed_byte(self, name, position, byte):
        wire = bytearray(GOLDEN_FRAMES[name])
        wire[position % len(wire)] = byte
        decodes_or_codec_error(bytes(wire))

    @FUZZ
    @given(name=golden_names, cut=st.integers(min_value=0))
    def test_truncation(self, name, cut):
        wire = GOLDEN_FRAMES[name]
        cut %= len(wire)
        with pytest.raises(CodecError):
            decode_frame(wire[:cut])
        # The same cut announced honestly by the header: the payload
        # decoder, not the length check, has to notice.
        if cut > HEADER_SIZE:
            decodes_or_codec_error(
                codec.frame_for_payload(wire[HEADER_SIZE:cut])
            )

    def test_broken_string_body_is_a_codec_error(self):
        """A flipped UTF-8 continuation byte used to escape as
        ``UnicodeDecodeError``."""
        wire = bytearray(encode_frame(UnsubscribeMessage(query_key="qué")))
        wire[wire.index("é".encode()) + 1] = 0x20
        with pytest.raises(CodecError) as caught:
            decode_frame(bytes(wire))
        assert isinstance(caught.value.__cause__, UnicodeDecodeError)

    def test_wrong_tuple_arity_is_a_codec_error(self):
        """A value tuple one short of its relation used to escape as
        ``SchemaError``."""
        message = ALIndexMessage(
            tuple=DataTuple(R, (1, 2), 1.0), index_attribute="A"
        )
        payload = encode(message)
        values = encode((1, 2))
        assert payload.count(values) == 1
        shrunk = payload.replace(values, encode((1,)))
        with pytest.raises(CodecError) as caught:
            decode(shrunk)
        assert isinstance(caught.value.__cause__, SchemaError)

    def test_unhashable_dict_key_and_absurd_nesting(self):
        with pytest.raises(CodecError):
            decode(bytes((0x09, 0x01, 0x08, 0x00, 0x00)))  # {[]: None}
        with pytest.raises(CodecError):
            decode(bytes((0x07, 0x01)) * 100_000)
