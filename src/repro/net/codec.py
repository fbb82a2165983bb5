"""Versioned, length-prefixed binary wire codec for overlay messages.

Frame layout (all integers big-endian)::

    +-------+---------+------------------+---------------------+
    | magic | version | payload length   | payload             |
    | 2B    | 1B      | 4B unsigned      | <length> bytes      |
    +-------+---------+------------------+---------------------+

The magic is ``b"RJ"`` (repro-join); the version byte is
:data:`PROTOCOL_VERSION` and lets future revisions evolve the payload
format without ambiguity — a peer receiving an unknown version raises
:class:`~repro.errors.CodecError` instead of misparsing.

The payload is one *value* in a tagged, self-describing encoding:

* primitives — ``None``, booleans, arbitrary-precision integers
  (zigzag + LEB128 varint, large enough for 2**160 Chord identifiers),
  IEEE-754 doubles, UTF-8 strings, bytes;
* containers — tuples, lists, dicts (recursively encoded);
* records — every dataclass that can appear in a message: schema
  objects, tuples, expressions, queries, rewritten query groups,
  notifications, the :mod:`repro.sim.messages` hierarchy and the
  :mod:`repro.net.frames` envelopes.  A record is its tag byte followed
  by its fields in declaration order, each encoded as a value;
* one *sealed* record — the :class:`~repro.sql.query.GroupShape` of a
  rewritten query group: its tag, a varint length and that many bytes
  holding its fields.  A group record is its sealed shape followed by
  the trigger's four values (``selects`` and ``suffixes`` are derived on
  arrival by :func:`~repro.sql.query.bind`).  The sender seals a shape
  once and keeps the bytes on the shape object; the receiver interns
  shapes in a bounded table keyed by those bytes, so a shape seen before
  costs one slice and one dict probe whatever its member count, and
  :func:`skip_value` steps over one without looking inside.

Records are registered via :func:`register_record`, which derives the
encoder/decoder from a field list; payload classes round-trip through
their constructors, so schema validation (``__post_init__``) re-runs on
the receiving peer — a malformed frame fails loudly at decode time, not
deep inside a handler.

Python-specific caveats handled here:

* ``bool`` is a subclass of ``int`` — dispatch is on ``type(obj)``
  exactly, so ``True`` encodes as a boolean, never as ``1``;
* ``int`` and ``float`` encode distinctly even for equal values
  (``2 != 2.0`` on the wire) because identifier hashing stringifies
  values and ``str(2) != str(2.0)``;
* :class:`~repro.sql.schema.Relation` decoding interns through a small
  cache so every tuple of a relation shares one schema object per
  process — handlers and rewrite plans bind positional lookups to the
  relation *object* (see ``RewritePlan.bind_positions``);
* an interned shape is shared by every record decoded from equal bytes,
  across all the peers of one process: like a decoded ``Relation`` it
  must never be mutated.  Interning assumes nothing about *who* sent the
  bytes or when — equal bytes are the same shape by construction — and a
  shape enters the table only after its bytes decoded and validated to
  the last one, so a garbled shape can neither poison a later frame nor
  be returned by one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import operator
import struct
from typing import Any, Callable, Optional

from ..core.notifications import Notification
from ..errors import CodecError, QueryError, ReproError
from ..perf import PERF
from ..sim.messages import (
    ALIndexMessage,
    JoinMessage,
    Message,
    NotificationMessage,
    QueryIndexMessage,
    RateProbeMessage,
    UnsubscribeMessage,
    VLIndexMessage,
)
from ..sql.expr import AttrRef, BinaryOp, Const, Negate
from ..sql.query import (
    BoundValue,
    GroupMember,
    GroupShape,
    JoinQuery,
    LocalFilter,
    PendingAttr,
    QuerySide,
    RewrittenGroup,
    Subscriber,
    bind,
)
from ..sql.schema import Relation
from ..sql.tuples import DataTuple, ProjectedTuple

#: Wire protocol version; bump when the payload encoding changes.
PROTOCOL_VERSION = 3

MAGIC = b"RJ"

_HEADER = struct.Struct(">2sBI")
HEADER_SIZE = _HEADER.size

#: Upper bound on a single frame's payload — a corrupt length prefix
#: must not make a peer try to buffer gigabytes.
MAX_PAYLOAD = 16 * 1024 * 1024

_DOUBLE = struct.Struct(">d")

# ----------------------------------------------------------------------
# Value tags
# ----------------------------------------------------------------------

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_TUPLE = 0x07
_TAG_LIST = 0x08
_TAG_DICT = 0x09
#: A sealed :class:`GroupShape`: varint length, then its fields.
TAG_SEALED_SHAPE = 0x0A

# Record tags: 0x10–0x1F payload records, 0x20–0x2F overlay messages,
# 0x30–0x3F net control frames (registered by repro.net.frames).
TAG_RELATION = 0x10
TAG_DATA_TUPLE = 0x11
TAG_PROJECTED_TUPLE = 0x12
TAG_CONST = 0x13
TAG_ATTR_REF = 0x14
TAG_BINARY_OP = 0x15
TAG_NEGATE = 0x16
TAG_LOCAL_FILTER = 0x17
TAG_QUERY_SIDE = 0x18
TAG_SUBSCRIBER = 0x19
TAG_JOIN_QUERY = 0x1A
TAG_BOUND_VALUE = 0x1B
TAG_PENDING_ATTR = 0x1C
TAG_REWRITTEN_GROUP = 0x1D
TAG_NOTIFICATION = 0x1E
TAG_GROUP_MEMBER = 0x1F

TAG_MESSAGE = 0x20
TAG_QUERY_INDEX = 0x21
TAG_AL_INDEX = 0x22
TAG_VL_INDEX = 0x23
TAG_JOIN_MSG = 0x24
TAG_NOTIFICATION_MSG = 0x25
TAG_UNSUBSCRIBE = 0x26
TAG_RATE_PROBE = 0x27


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------

def _write_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint (7 bits per byte, msb = continuation)."""
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _write_int(out: bytearray, value: int) -> None:
    """Zigzag-mapped varint: small magnitudes of either sign stay small."""
    zigzag = value << 1 if value >= 0 else (-value << 1) - 1
    _write_uvarint(out, zigzag)


class _Reader:
    """Cursor over a payload with truncation-checked reads."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read_byte(self) -> int:
        try:
            byte = self.data[self.pos]
        except IndexError:
            raise CodecError("truncated frame: expected a tag byte") from None
        self.pos += 1
        return byte

    def read_bytes(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise CodecError(
                f"truncated frame: wanted {count} bytes, "
                f"{len(self.data) - self.pos} left"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def read_uvarint(self) -> int:
        # Fast path: almost every varint on the wire (collection
        # lengths, string lengths, small identifiers) fits one byte.
        data = self.data
        pos = self.pos
        try:
            byte = data[pos]
        except IndexError:
            raise CodecError("truncated frame: expected a varint") from None
        if byte < 0x80:
            self.pos = pos + 1
            return byte
        value = 0
        shift = 0
        while True:
            byte = self.read_byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def read_int(self) -> int:
        zigzag = self.read_uvarint()
        return zigzag >> 1 if not zigzag & 1 else -((zigzag + 1) >> 1)


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------

_ENCODERS: dict[type, Callable[[bytearray, Any], None]] = {}

#: Flat decoder dispatch table: indexing a 256-slot list by the tag
#: byte beats a dict probe on the hottest call in the whole receive
#: path (one lookup per decoded value).
_DECODER_TABLE: list[Optional[Callable[[_Reader], Any]]] = [None] * 256


#: Record tag -> field count, for structural skips that must step over
#: a record without building it (:func:`skip_value`).
_ARITY_BY_TAG: dict[int, int] = {}


def skip_value(data: bytes, pos: int) -> int:
    """Advance past one encoded value without materializing it.

    The structural twin of ``_decode_value``: every tag's body length
    is derivable from the bytes alone (varints self-terminate, blobs and
    sealed shapes carry their length, containers and records their
    arity), so a relay can locate field boundaries inside a payload it
    never decodes.  Returns the position just past the value; raises
    :class:`CodecError` on truncation or an unknown tag.

    Iterative on purpose: skipping never needs the nesting structure,
    only the total count of values still to step over, so one pending
    counter replaces recursion (and its per-value call overhead) on
    what is the hottest loop of the relay path.
    """
    size = len(data)
    arity_by_tag = _ARITY_BY_TAG
    pending = 1
    while pending:
        pending -= 1
        if pos >= size:
            raise CodecError("truncated frame: expected a tag byte")
        tag = data[pos]
        pos += 1
        if tag <= _TAG_FALSE:  # none / true / false: the tag is the value
            continue
        if tag == _TAG_INT:
            while True:
                if pos >= size:
                    raise CodecError("truncated frame: expected a varint")
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    break
            continue
        if tag == _TAG_FLOAT:
            pos += 8
            if pos > size:
                raise CodecError("truncated frame: value body cut short")
            continue
        if tag == _TAG_STR or tag == _TAG_BYTES or tag == TAG_SEALED_SHAPE:
            length = 0
            shift = 0
            while True:
                if pos >= size:
                    raise CodecError("truncated frame: expected a varint")
                byte = data[pos]
                pos += 1
                length |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            pos += length
            if pos > size:
                raise CodecError("truncated frame: value body cut short")
            continue
        if tag == _TAG_TUPLE or tag == _TAG_LIST or tag == _TAG_DICT:
            count = 0
            shift = 0
            while True:
                if pos >= size:
                    raise CodecError("truncated frame: expected a varint")
                byte = data[pos]
                pos += 1
                count |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
            pending += count * 2 if tag == _TAG_DICT else count
            continue
        arity = arity_by_tag.get(tag, -1)
        if arity < 0:
            raise CodecError(f"unknown value tag 0x{tag:02X}")
        pending += arity
    return pos

# Encode-side memoization (wire bytes are identical with or without it).
#
# Small values recur constantly on the hot path — relation and
# attribute names, message-type strings, query keys, Chord identifiers
# in a narrow band, tuple values from a bounded Zipf domain — so their
# fully-encoded forms (tag + varint length + body) are cached and
# appended with one ``bytearray.__iadd__`` instead of re-deriving them
# per frame.  Both caches are bounded: the int table is precomputed for
# the densest band, the string memo stops admitting entries at a fixed
# cap (hits keep working; misses just encode normally).

_STR_MEMO: dict[str, bytes] = {}
_STR_MEMO_MAX_LEN = 64
_STR_MEMO_MAX_ENTRIES = 4096


def _precompute_int_memo() -> dict[int, bytes]:
    table: dict[int, bytes] = {}
    for value in range(-128, 4097):
        scratch = bytearray((_TAG_INT,))
        _write_int(scratch, value)
        table[value] = bytes(scratch)
    return table


_INT_MEMO = _precompute_int_memo()


def _encode_value(out: bytearray, obj: Any) -> None:
    encoder = _ENCODERS.get(type(obj))
    if encoder is None:
        raise CodecError(f"cannot serialize {type(obj).__name__}: {obj!r}")
    encoder(out, obj)


def _decode_value(reader: _Reader) -> Any:
    pos = reader.pos
    try:
        tag = reader.data[pos]
    except IndexError:
        raise CodecError("truncated frame: expected a tag byte") from None
    reader.pos = pos + 1
    decoder = _DECODER_TABLE[tag]
    if decoder is None:
        raise CodecError(f"unknown value tag 0x{tag:02X}")
    return decoder(reader)


def _encode_none(out, obj):
    out.append(_TAG_NONE)


def _encode_bool(out, obj):
    out.append(_TAG_TRUE if obj else _TAG_FALSE)


def _encode_int(out, obj):
    memo = _INT_MEMO.get(obj)
    if memo is not None:
        out += memo
        return
    out.append(_TAG_INT)
    _write_int(out, obj)


def _encode_float(out, obj):
    out.append(_TAG_FLOAT)
    out += _DOUBLE.pack(obj)


def _encode_str(out, obj):
    memo = _STR_MEMO.get(obj)
    if memo is not None:
        out += memo
        return
    data = obj.encode("utf-8")
    length = len(data)
    if length < 0x80:
        encoded = bytes((_TAG_STR, length)) + data
    else:
        scratch = bytearray((_TAG_STR,))
        _write_uvarint(scratch, length)
        scratch += data
        encoded = bytes(scratch)
    out += encoded
    if length <= _STR_MEMO_MAX_LEN and len(_STR_MEMO) < _STR_MEMO_MAX_ENTRIES:
        _STR_MEMO[obj] = encoded


def _encode_bytes(out, obj):
    out.append(_TAG_BYTES)
    _write_uvarint(out, len(obj))
    out += obj


def _encode_tuple(out, obj):
    out.append(_TAG_TUPLE)
    _write_uvarint(out, len(obj))
    for item in obj:
        _encode_value(out, item)


def _encode_list(out, obj):
    out.append(_TAG_LIST)
    _write_uvarint(out, len(obj))
    for item in obj:
        _encode_value(out, item)


def _encode_dict(out, obj):
    out.append(_TAG_DICT)
    _write_uvarint(out, len(obj))
    for key, value in obj.items():
        _encode_value(out, key)
        _encode_value(out, value)


_ENCODERS[type(None)] = _encode_none
_ENCODERS[bool] = _encode_bool
_ENCODERS[int] = _encode_int
_ENCODERS[float] = _encode_float
_ENCODERS[str] = _encode_str
_ENCODERS[bytes] = _encode_bytes
_ENCODERS[tuple] = _encode_tuple
_ENCODERS[list] = _encode_list
_ENCODERS[dict] = _encode_dict

_DECODER_TABLE[_TAG_NONE] = lambda reader: None
_DECODER_TABLE[_TAG_TRUE] = lambda reader: True
_DECODER_TABLE[_TAG_FALSE] = lambda reader: False
_DECODER_TABLE[_TAG_INT] = _Reader.read_int
_DECODER_TABLE[_TAG_FLOAT] = (
    lambda reader: _DOUBLE.unpack(reader.read_bytes(8))[0]
)

#: Decode-side twin of ``_STR_MEMO``: raw utf-8 chunk -> the decoded
#: (and thereby interned) string, so the relation/attribute/message
#: names that appear in every frame skip ``bytes.decode`` and share
#: one str object process-wide.
_STR_DECODE_MEMO: dict[bytes, str] = {}


def _decode_str(reader: _Reader) -> str:
    length = reader.read_uvarint()
    chunk = reader.read_bytes(length)
    if length <= _STR_MEMO_MAX_LEN:
        cached = _STR_DECODE_MEMO.get(chunk)
        if cached is not None:
            return cached
        value = chunk.decode("utf-8")
        if len(_STR_DECODE_MEMO) < _STR_MEMO_MAX_ENTRIES:
            _STR_DECODE_MEMO[chunk] = value
        return value
    return chunk.decode("utf-8")


def _decode_bytes(reader: _Reader) -> bytes:
    return reader.read_bytes(reader.read_uvarint())


def _decode_tuple(reader: _Reader) -> tuple:
    # A list comprehension materialised into tuple() beats feeding a
    # generator to tuple() — no frame suspension per element.
    return tuple([_decode_value(reader) for _ in range(reader.read_uvarint())])


def _decode_list(reader: _Reader) -> list:
    return [_decode_value(reader) for _ in range(reader.read_uvarint())]


def _decode_dict(reader: _Reader) -> dict:
    return {
        _decode_value(reader): _decode_value(reader)
        for _ in range(reader.read_uvarint())
    }


_DECODER_TABLE[_TAG_STR] = _decode_str
_DECODER_TABLE[_TAG_BYTES] = _decode_bytes
_DECODER_TABLE[_TAG_TUPLE] = _decode_tuple
_DECODER_TABLE[_TAG_LIST] = _decode_list
_DECODER_TABLE[_TAG_DICT] = _decode_dict


# ----------------------------------------------------------------------
# Record registry
# ----------------------------------------------------------------------

def register_record(
    cls: type,
    tag: int,
    fields: tuple[str, ...],
    *,
    build: Optional[Callable[..., Any]] = None,
) -> None:
    """Register a dataclass-like record under a wire tag.

    ``fields`` are read with ``getattr`` at encode time and passed (in
    order) to ``build`` — the class itself by default — at decode
    time.  A record is free to omit fields that must not travel
    (e.g. ``RateProbeMessage.reply_box``) by leaving them out of
    ``fields`` and letting the constructor default them.
    """
    if _DECODER_TABLE[tag] is not None:
        raise CodecError(f"wire tag 0x{tag:02X} registered twice")
    if type(cls) is not type:
        raise CodecError(f"record class expected, got {cls!r}")
    builder = build if build is not None else cls

    # One C-level attrgetter replaces a per-field getattr loop.
    if not fields:

        def encode_record(out: bytearray, obj: Any, _tag=tag) -> None:
            out.append(_tag)

    elif len(fields) == 1:

        def encode_record(
            out: bytearray, obj: Any, _tag=tag,
            _get=operator.attrgetter(fields[0]),
        ) -> None:
            out.append(_tag)
            _encode_value(out, _get(obj))

    else:

        def encode_record(
            out: bytearray, obj: Any, _tag=tag,
            _get=operator.attrgetter(*fields),
        ) -> None:
            out.append(_tag)
            for value in _get(obj):
                _encode_value(out, value)

    # A positional constructor call replaces the kwargs dict whenever
    # the wire fields are a declaration-order prefix of the dataclass
    # (the decoded-value list is already in that order); a custom
    # ``build`` or a reordered field list keeps the keyword form.
    positional = (
        build is None
        and dataclasses.is_dataclass(cls)
        and tuple(f.name for f in dataclasses.fields(cls))[: len(fields)]
        == fields
    )
    if positional:

        def decode_record(
            reader: _Reader, _builder=builder, _count=len(fields)
        ) -> Any:
            return _builder(*[_decode_value(reader) for _ in range(_count)])

    else:

        def decode_record(
            reader: _Reader, _builder=builder, _fields=fields
        ) -> Any:
            return _builder(
                **{name: _decode_value(reader) for name in _fields}
            )

    _ENCODERS[cls] = encode_record
    _DECODER_TABLE[tag] = decode_record
    _ARITY_BY_TAG[tag] = len(fields)


# -- payload records ---------------------------------------------------

#: Decode-side intern cache: one ``Relation`` object per (name, attrs)
#: per process, so positional bindings (``Relation._positions`` lookups
#: cached on rewrite plans) stay hot across decoded tuples.
_RELATION_CACHE: dict[tuple[str, tuple[str, ...]], Relation] = {}


def _build_relation(*, name: str, attributes: tuple[str, ...]) -> Relation:
    key = (name, attributes)
    relation = _RELATION_CACHE.get(key)
    if relation is None:
        relation = Relation(name, attributes)
        _RELATION_CACHE[key] = relation
    return relation


register_record(Relation, TAG_RELATION, ("name", "attributes"), build=_build_relation)
register_record(DataTuple, TAG_DATA_TUPLE, ("relation", "values", "pub_time"))
register_record(
    ProjectedTuple, TAG_PROJECTED_TUPLE, ("relation_name", "items", "pub_time")
)
register_record(Const, TAG_CONST, ("value",))
register_record(AttrRef, TAG_ATTR_REF, ("relation", "attribute"))
register_record(BinaryOp, TAG_BINARY_OP, ("op", "left", "right"))
register_record(Negate, TAG_NEGATE, ("operand",))
register_record(LocalFilter, TAG_LOCAL_FILTER, ("attribute", "value"))
register_record(QuerySide, TAG_QUERY_SIDE, ("relation", "expr", "filters"))
register_record(Subscriber, TAG_SUBSCRIBER, ("key", "ident", "ip"))
register_record(
    JoinQuery,
    TAG_JOIN_QUERY,
    ("select", "left", "right", "key", "insertion_time", "subscriber"),
)
register_record(BoundValue, TAG_BOUND_VALUE, ("value",))
register_record(PendingAttr, TAG_PENDING_ATTR, ("attribute",))
register_record(
    GroupMember,
    TAG_GROUP_MEMBER,
    ("query_key", "subscriber", "insertion_time", "select_index"),
)

# -- the sealed group shape ---------------------------------------------

_SHAPE_FIELDS = (
    "group_signature",
    "relation",
    "expr",
    "dis_attribute",
    "filters",
    "members",
    "select_specs",
)
_shape_values = operator.attrgetter(*_SHAPE_FIELDS)

#: Decode-side intern table: the bytes of a sealed shape -> the one
#: ``GroupShape`` decoded from them.  Bounded; when full the oldest
#: entry leaves (records that hold its shape keep it alive, a later
#: frame just decodes the bytes again).
_SHAPE_TABLE: dict[bytes, GroupShape] = {}
_SHAPE_TABLE_MAX = 512


def _encode_shape(out: bytearray, shape: GroupShape) -> None:
    sealed = shape.sealed
    if sealed is None:
        body = bytearray()
        for value in _shape_values(shape):
            _encode_value(body, value)
        scratch = bytearray((TAG_SEALED_SHAPE,))
        _write_uvarint(scratch, len(body))
        scratch += body
        sealed = shape.sealed = bytes(scratch)
        if PERF.enabled:
            PERF.count("codec.shape.sealed")
    elif PERF.enabled:
        PERF.count("codec.shape.reused")
    out += sealed


def _decode_shape(reader: _Reader) -> GroupShape:
    blob = reader.read_bytes(reader.read_uvarint())
    shape = _SHAPE_TABLE.get(blob)
    if shape is None:
        shape = _intern_shape(blob)
    elif PERF.enabled:
        PERF.count("codec.shape.interned_hits")
    return shape


def _intern_shape(blob: bytes) -> GroupShape:
    """Decode and validate a sealed shape never seen before; only a
    shape that passes both enters the intern table."""
    inner = _Reader(blob)
    shape = GroupShape(*[_decode_value(inner) for _ in _SHAPE_FIELDS])
    if inner.pos != len(blob):
        raise CodecError(
            f"{len(blob) - inner.pos} trailing bytes inside a sealed shape"
        )
    # What bind() and the evaluators index by without looking again.
    specs = shape.select_specs
    if type(specs) is not tuple or not all(
        type(spec) is tuple
        and all(item is None or type(item) is PendingAttr for item in spec)
        for spec in specs
    ):
        raise CodecError("sealed shape with malformed select lists")
    members = shape.members
    if type(members) is not tuple or not members or not all(
        type(member) is GroupMember
        and type(member.select_index) is int
        and 0 <= member.select_index < len(specs)
        for member in members
    ):
        raise CodecError("sealed shape with malformed members")
    if type(shape.filters) is not tuple or not all(
        type(f) is LocalFilter for f in shape.filters
    ):
        raise CodecError("sealed shape with malformed filters")
    if len(_SHAPE_TABLE) >= _SHAPE_TABLE_MAX:
        del _SHAPE_TABLE[next(iter(_SHAPE_TABLE))]
    _SHAPE_TABLE[blob] = shape
    if PERF.enabled:
        PERF.count("codec.shape.decoded")
    return shape


_ENCODERS[GroupShape] = _encode_shape
_DECODER_TABLE[TAG_SEALED_SHAPE] = _decode_shape


def _bind_decoded(
    *, shape, required_value, dis_value, trigger_pub_time, bound
) -> RewrittenGroup:
    if type(shape) is not GroupShape or type(bound) is not tuple:
        raise CodecError("group record without a sealed shape and bound values")
    try:
        return bind(shape, required_value, dis_value, trigger_pub_time, bound)
    except (IndexError, QueryError) as exc:
        raise CodecError(f"group record does not fit its shape: {exc!r}") from None


# A group record travels as its sealed shape plus one trigger's values;
# ``selects``/``suffixes`` are derived by ``bind`` on arrival and
# ``keys`` is a local memo.
register_record(
    RewrittenGroup,
    TAG_REWRITTEN_GROUP,
    ("shape", "required_value", "dis_value", "trigger_pub_time", "bound"),
    build=_bind_decoded,
)
register_record(
    Notification,
    TAG_NOTIFICATION,
    (
        "query_key",
        "subscriber_ident",
        "row",
        "join_value_repr",
        "trigger_pub_time",
        "match_pub_time",
        "created_at",
    ),
)

# -- overlay messages --------------------------------------------------

register_record(Message, TAG_MESSAGE, ())
register_record(
    QueryIndexMessage,
    TAG_QUERY_INDEX,
    ("query", "index_side", "routing_ident", "refresh"),
)
register_record(
    ALIndexMessage, TAG_AL_INDEX, ("tuple", "index_attribute", "refresh")
)
register_record(
    VLIndexMessage, TAG_VL_INDEX, ("tuple", "index_attribute", "refresh")
)
register_record(JoinMessage, TAG_JOIN_MSG, ("rewritten", "projections"))
register_record(
    NotificationMessage,
    TAG_NOTIFICATION_MSG,
    ("notifications", "subscriber_ident"),
)
register_record(UnsubscribeMessage, TAG_UNSUBSCRIBE, ("query_key",))
# reply_box is a local mutable answer slot; it never travels.
register_record(RateProbeMessage, TAG_RATE_PROBE, ("relation", "attribute"))

#: Message wire tag -> its accounting ``type`` label, so a relay can
#: bill a raw-forwarded frame to the right traffic bucket without
#: decoding the message (see :func:`repro.net.frames.peek_route`).
MESSAGE_TYPE_BY_TAG: dict[int, str] = {
    TAG_MESSAGE: Message.type,
    TAG_QUERY_INDEX: QueryIndexMessage.type,
    TAG_AL_INDEX: ALIndexMessage.type,
    TAG_VL_INDEX: VLIndexMessage.type,
    TAG_JOIN_MSG: JoinMessage.type,
    TAG_NOTIFICATION_MSG: NotificationMessage.type,
    TAG_UNSUBSCRIBE: UnsubscribeMessage.type,
    TAG_RATE_PROBE: RateProbeMessage.type,
}


# ----------------------------------------------------------------------
# Public payload/frame API
# ----------------------------------------------------------------------

def encode(obj: Any) -> bytes:
    """Serialize one value/record/message to payload bytes (no header)."""
    out = bytearray()
    _encode_value(out, obj)
    return bytes(out)


#: What decoding corrupt bytes can raise besides :class:`CodecError`: a
#: tuple of the wrong arity (``SchemaError``), a broken string body
#: (``UnicodeDecodeError``, a ``ValueError``), an unhashable dict key
#: (``TypeError``), a value of the wrong type in a field a constructor
#: reads (``AttributeError``, ``LookupError``), an absurd number
#: (``ArithmeticError``) or nesting depth (``RecursionError``).
_CORRUPT_INPUT_ERRORS = (
    ReproError,
    ValueError,
    TypeError,
    AttributeError,
    LookupError,
    ArithmeticError,
    RecursionError,
)


def decode(payload: bytes, start: int = 0, end: Optional[int] = None) -> Any:
    """Inverse of :func:`encode`; raises :class:`CodecError` on junk.

    Decodes the one value that occupies ``payload[start:end]`` — the
    whole payload by default — and insists that it ends exactly at
    ``end``: a relay that located a field with :func:`skip_value` (a
    delivering multisend hop materializing only the pair messages it
    owns) gets the structural walk and the decoder checked against each
    other for free.

    Whatever a record constructor makes of a wrong value
    (:data:`_CORRUPT_INPUT_ERRORS`) leaves here as a :class:`CodecError`
    chained from it: the receive path has one failure to handle.
    """
    if end is None:
        end = len(payload)
    reader = _Reader(payload)
    reader.pos = start
    try:
        obj = _decode_value(reader)
    except CodecError:
        raise
    except _CORRUPT_INPUT_ERRORS as exc:
        raise CodecError(f"payload does not decode: {exc!r}") from exc
    if reader.pos < end:
        raise CodecError(f"{end - reader.pos} trailing bytes after payload")
    if reader.pos > end:
        raise CodecError(
            f"value overruns its {end - start}-byte span by {reader.pos - end}"
        )
    return obj


def frame_for_payload(payload: bytes) -> bytes:
    """Wrap already-encoded payload bytes in a wire header.

    The splice fast path builds payloads from verbatim slices of an
    inbound frame; this is the header step :func:`encode_frame` would
    have done had the payload been re-encoded.
    """
    if len(payload) > MAX_PAYLOAD:
        raise CodecError(
            f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD"
        )
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, len(payload)) + payload


#: Free-list of scratch buffers for :func:`encode_frame`, so steady-
#: state frame encoding reuses ``bytearray`` objects instead of
#: allocating one per frame.  Process-local and deliberately tiny; a
#: buffer that grew beyond the cap is dropped rather than pooled.
_BUFFER_POOL: list[bytearray] = []
_BUFFER_POOL_MAX = 8
_BUFFER_POOL_CAP = 1 << 20

_HEADER_PLACEHOLDER = bytes(HEADER_SIZE)


def encode_frame_into(out: bytearray, obj: Any) -> int:
    """Append one complete wire frame for ``obj`` to ``out``.

    The header is reserved in place and patched once the payload
    length is known — header and payload share one buffer, so the
    per-frame ``header + payload`` concatenation (and its second
    allocation) never happens.  Returns the frame's size in bytes;
    the produced bytes are identical to :func:`encode_frame`.
    """
    start = len(out)
    out += _HEADER_PLACEHOLDER
    try:
        _encode_value(out, obj)
    except Exception:
        del out[start:]  # leave the caller's buffer frame-aligned
        raise
    length = len(out) - start - HEADER_SIZE
    if length > MAX_PAYLOAD:
        del out[start:]
        raise CodecError(f"payload of {length} bytes exceeds MAX_PAYLOAD")
    _HEADER.pack_into(out, start, MAGIC, PROTOCOL_VERSION, length)
    return HEADER_SIZE + length


def encode_frame(obj: Any) -> bytes:
    """Serialize ``obj`` to a complete wire frame (header + payload)."""
    perf = PERF.enabled
    buffer = _BUFFER_POOL.pop() if _BUFFER_POOL else bytearray()
    timer = PERF.timer("codec.encode") if perf else None
    if timer is not None:
        timer.__enter__()
    try:
        encode_frame_into(buffer, obj)
        frame = bytes(buffer)
    finally:
        if timer is not None:
            timer.__exit__(None, None, None)
        if (
            len(_BUFFER_POOL) < _BUFFER_POOL_MAX
            and len(buffer) <= _BUFFER_POOL_CAP
        ):
            del buffer[:]
            _BUFFER_POOL.append(buffer)
    if perf:
        PERF.count("codec.frames_encoded")
        PERF.count("codec.bytes_encoded", len(frame))
    return frame


def decode_header(header: bytes) -> int:
    """Validate a frame header and return the payload length."""
    if len(header) != HEADER_SIZE:
        raise CodecError(
            f"truncated header: {len(header)} of {HEADER_SIZE} bytes"
        )
    magic, version, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != PROTOCOL_VERSION:
        raise CodecError(
            f"unsupported protocol version {version} "
            f"(this peer speaks {PROTOCOL_VERSION})"
        )
    if length > MAX_PAYLOAD:
        raise CodecError(f"frame length {length} exceeds MAX_PAYLOAD")
    return length


def decode_frame_payload(
    payload: bytes, start: int = 0, end: Optional[int] = None
) -> Any:
    """Decode a frame payload — or the one value at ``payload[start:end]``
    of it — with ``REPRO_PERF`` accounting.

    The single decode entry point of the receive path: whole frames and
    the messages a delivering hop carves out of one are timed and
    counted alike (``codec.bytes_decoded`` counts payload bytes).
    """
    if not PERF.enabled:
        return decode(payload, start, end)
    with PERF.timer("codec.decode"):
        obj = decode(payload, start, end)
    PERF.count("codec.frames_decoded")
    PERF.count(
        "codec.bytes_decoded", (len(payload) if end is None else end) - start
    )
    return obj


async def read_frame(reader, *, timeout: Optional[float] = None) -> Any:
    """Read and decode exactly one frame from an asyncio stream reader.

    The control plane's reader (bootstrap handshake, tests); the data
    plane deframes inside ``data_received`` and never comes here.  A
    clean EOF at a frame boundary surfaces as :class:`EOFError`; a
    connection that dies mid-frame surfaces as ``asyncio.
    IncompleteReadError``; corrupt bytes (bad magic/version/length,
    undecodable payload) surface as :class:`~repro.errors.CodecError`.
    Callers must treat ``CodecError`` as fatal for the *connection* —
    the stream position is unknown after corrupt bytes, so the only safe
    recovery is to drop the connection and let the sender's retry path
    re-establish it.
    """
    try:
        header = await asyncio.wait_for(
            reader.readexactly(HEADER_SIZE), timeout
        )
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed at a frame boundary") from None
        raise
    payload = await asyncio.wait_for(
        reader.readexactly(decode_header(header)), timeout
    )
    return decode_frame_payload(payload)


def decode_frame(data: bytes) -> tuple[Any, int]:
    """Decode one frame from ``data``; returns ``(obj, bytes_consumed)``.

    ``data`` must contain at least one complete frame (streaming reads
    should use :func:`decode_header` + exact payload reads instead).
    """
    length = decode_header(data[:HEADER_SIZE])
    end = HEADER_SIZE + length
    if len(data) < end:
        raise CodecError(
            f"truncated frame: payload wants {length} bytes, "
            f"{len(data) - HEADER_SIZE} available"
        )
    return decode(data[HEADER_SIZE:end]), end
