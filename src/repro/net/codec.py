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
  holding its fields (a select item is a ``PendingAttr`` or, since
  version 4, the position of its value in ``bound``: one value per
  distinct trigger attribute).  A group record is its sealed shape
  followed by the trigger's four values (``suffixes`` are derived on
  arrival by :func:`~repro.sql.query.bind`).  The sender seals a shape
  once and keeps the bytes on the shape object; the receiver interns
  shapes in a bounded table keyed by those bytes, so a shape seen before
  costs one slice and one dict probe whatever its member count, and
  :func:`skip_value` steps over one without looking inside.

Records are registered via :func:`register_record`, which compiles two
functions from the field list: one straight-line encoder ``(out, obj)``
and one straight-line decoder ``(data, pos) -> (value, pos)``, generated
as source and ``exec``'d once.  Each field is written and read inline —
``int``, ``str``, ``float``, ``None`` and ``bool`` through the encode
memos and the string decode memo, without a call — and any other value
through one type -> encoder dict (``_ENCODERS``) and one 256-slot
tag -> decoder table (``_DECODERS``).  Tuples, lists and dicts are
compiled the same way.  Every reader works on the payload and a
position; nothing holds a cursor.  Payload classes round-trip through
their constructors, so schema validation (``__post_init__``) re-runs
on the receiving peer — a malformed frame fails loudly at decode time,
not deep inside a handler: truncation, an unknown tag, trailing bytes
and a span overrun are a :class:`~repro.errors.CodecError`, and so is
whatever a constructor raises on a wrong value.

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
import struct
import textwrap
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
    BindingLayout,
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
PROTOCOL_VERSION = 4

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


# Every reader takes the payload and a position and returns the value
# read and the position just past it: no cursor object, no attribute
# traffic.  A reader that runs off the end raises ``CodecError``.

def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    try:
        byte = data[pos]
        if byte < 0x80:
            return byte, pos + 1
        value = byte & 0x7F
        shift = 7
        while True:
            pos += 1
            byte = data[pos]
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                return value, pos + 1
            shift += 7
    except IndexError:
        raise CodecError("truncated frame: expected a varint") from None


def _read_int(data: bytes, pos: int) -> tuple[int, int]:
    zigzag, pos = _read_uvarint(data, pos)
    return (zigzag >> 1) ^ -(zigzag & 1), pos


# What :func:`skip_value` does on each tag byte: a record (and a
# constant) is its field count of values more to step over; the other
# kinds are the negative codes.  A list, as the decoders are, so one
# index replaces a chain of tag comparisons.
_SKIP_INT = -1  # a varint
_SKIP_BLOB = -2  # a varint length and that many bytes
_SKIP_ITEMS = -3  # a varint count and that many values
_SKIP_PAIRS = -4  # a varint count and twice that many values
_SKIP_FLOAT = -5  # eight bytes
_SKIP_UNKNOWN = -6
_SKIP: list[int] = [_SKIP_UNKNOWN] * 256
_SKIP[_TAG_NONE] = _SKIP[_TAG_TRUE] = _SKIP[_TAG_FALSE] = 0
_SKIP[_TAG_INT] = _SKIP_INT
_SKIP[_TAG_FLOAT] = _SKIP_FLOAT
_SKIP[_TAG_STR] = _SKIP[_TAG_BYTES] = _SKIP[TAG_SEALED_SHAPE] = _SKIP_BLOB
_SKIP[_TAG_TUPLE] = _SKIP[_TAG_LIST] = _SKIP_ITEMS
_SKIP[_TAG_DICT] = _SKIP_PAIRS


def skip_value(data: bytes, pos: int) -> int:
    """Advance past one encoded value without materializing it.

    The structural twin of the decoders: every tag's body length is
    derivable from the bytes alone (varints self-terminate, blobs and
    sealed shapes carry their length, containers and records their
    arity), so a relay can locate field boundaries inside a payload it
    never decodes.  Returns the position just past the value; raises
    :class:`CodecError` on truncation or an unknown tag.

    Iterative on purpose: skipping never needs the nesting structure,
    only the total count of values still to step over, so one pending
    counter replaces recursion on what is the hottest loop of the relay
    path.
    """
    skip = _SKIP
    pending = 1
    try:
        while pending:
            pending -= 1
            kind = skip[data[pos]]
            if kind >= 0:
                pending += kind
                pos += 1
            elif kind == _SKIP_INT:
                pos += 1
                while data[pos] >= 0x80:  # no value wanted: step to its last byte
                    pos += 1
                pos += 1
            elif kind == _SKIP_BLOB:
                length = data[pos + 1]
                if length < 0x80:
                    pos += 2 + length
                else:
                    length, pos = _read_uvarint(data, pos + 1)
                    pos += length
            elif kind == _SKIP_FLOAT:
                pos += 9
            elif kind == _SKIP_UNKNOWN:
                raise CodecError(f"unknown value tag 0x{data[pos]:02X}")
            else:
                count = data[pos + 1]
                if count < 0x80:
                    pos += 2
                else:
                    count, pos = _read_uvarint(data, pos + 1)
                pending += count * 2 if kind == _SKIP_PAIRS else count
    except IndexError:  # a cut varint, or a read after a body overran
        raise CodecError("truncated frame: expected a tag byte") from None
    if pos > len(data):  # the last body overran
        raise CodecError("truncated frame: value body cut short")
    return pos


# ----------------------------------------------------------------------
# Scalars
# ----------------------------------------------------------------------
# Encode-side memoization (wire bytes are identical with or without it).
#
# Small values recur constantly on the hot path — relation and
# attribute names, message-type strings, query keys, Chord identifiers
# in a narrow band, tuple values from a bounded Zipf domain — so their
# fully-encoded forms (tag + varint length + body) are cached and
# appended with one ``bytearray.__iadd__`` instead of re-deriving them
# per frame.  Both caches are bounded: the int table is precomputed for
# the densest band and both stop admitting entries at a fixed cap (hits
# keep working; misses just encode normally).  Ints outside the band
# that recur are the Chord identifiers a live ring routes to: a few
# hundred distinct ones per run, each encoded tens of times.

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
_INT_MEMO_MAX_ENTRIES = len(_INT_MEMO) + 4096

#: Decode-side twin of ``_STR_MEMO``: raw utf-8 chunk -> the decoded
#: (and thereby interned) string, so the relation/attribute/message
#: names that appear in every frame skip ``bytes.decode`` and share
#: one str object process-wide.
_STR_DECODE_MEMO: dict[bytes, str] = {}

#: A float on the wire: its tag and its IEEE-754 double, packed at once.
_TAGGED_DOUBLE = struct.Struct(">Bd")


def _encode_int(out: bytearray, obj: int) -> None:
    """An int that missed ``_INT_MEMO``."""
    scratch = bytearray((_TAG_INT,))
    _write_int(scratch, obj)
    encoded = bytes(scratch)
    out += encoded
    if len(encoded) <= _STR_MEMO_MAX_LEN and len(_INT_MEMO) < _INT_MEMO_MAX_ENTRIES:
        _INT_MEMO[obj] = encoded


def _encode_str(out: bytearray, obj: str) -> None:
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


def _decode_utf8(chunk: bytes) -> str:
    """A string body that missed ``_STR_DECODE_MEMO``."""
    value = chunk.decode("utf-8")
    if (
        len(chunk) <= _STR_MEMO_MAX_LEN
        and len(_STR_DECODE_MEMO) < _STR_MEMO_MAX_ENTRIES
    ):
        _STR_DECODE_MEMO[chunk] = value
    return value


def _read_blob(data: bytes, pos: int) -> tuple[bytes, int]:
    """A varint length and that many bytes."""
    length, pos = _read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise CodecError(
            f"truncated frame: wanted {length} bytes, {len(data) - pos} left"
        )
    return data[pos:end], end


def _cannot_serialize(out: bytearray, obj: Any) -> None:
    raise CodecError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def _unknown_tag(data: bytes, pos: int) -> tuple[Any, int]:
    raise CodecError(f"unknown value tag 0x{data[pos - 1]:02X}")


#: Type -> encoder ``(out, obj)`` of every value that is not a scalar
#: the compiled code writes inline (and of those too, for a bare value).
_ENCODERS: dict[type, Callable[[bytearray, Any], None]] = {}

#: Tag byte -> decoder ``(data, pos) -> (value, pos)`` with ``pos`` just
#: past the tag.  A 256-slot list, not a dict: indexing it by the tag
#: byte is the cheapest dispatch there is.
_DECODERS: list[Callable[[bytes, int], tuple[Any, int]]] = [_unknown_tag] * 256

#: What ``_DECODE_VALUE`` answers for tags 0x00–0x02 without a call.
_CONSTANTS = (None, True, False)


# ----------------------------------------------------------------------
# The codec compiler
# ----------------------------------------------------------------------
# Every record class, and every container, gets one encoder and one
# decoder generated as straight-line Python source and ``exec``'d once
# at registration (the way ``dataclasses`` builds ``__init__``).  A
# field is written and read by the two templates below: ``int``, ``str``,
# ``float``, ``None`` and ``bool`` inline, through the memos; any other
# value through ``_ENCODERS`` / ``_DECODERS`` — one dict probe or one
# list index and one call.  A field costs no call of its own, a scalar
# field no call at all.

#: Append value ``{v}`` to ``out``.
_ENCODE_VALUE = """\
t = type({v})
if t is str:
    b = _STR_MEMO.get({v})
    if b is None:
        _encode_str(out, {v})
    else:
        out += b
elif t is int:
    b = _INT_MEMO.get({v})
    if b is None:
        _encode_int(out, {v})
    else:
        out += b
elif t is float:
    out += _pack_tagged_double(0x04, {v})
elif {v} is None:
    out.append(0x00)
elif t is bool:
    out.append(0x01 if {v} else 0x02)
else:
    _ENCODERS.get(t, _cannot_serialize)(out, {v})
"""

#: Read the value at ``data[pos]`` into ``{v}`` and advance ``pos``
#: (``size`` is ``len(data)``).  A read past the end raises
#: ``IndexError`` (:func:`decode` reports it).
_DECODE_VALUE = """\
t = data[pos]
if t == 0x03:
    t = data[pos + 1]
    if t < 0x80:
        pos += 2
    else:
        t, pos = _read_uvarint(data, pos + 1)
    {v} = (t >> 1) ^ -(t & 1)
elif t == 0x05:
    n = data[pos + 1]
    if n < 0x80:
        pos += 2
    else:
        n, pos = _read_uvarint(data, pos + 1)
    end = pos + n
    if end > size:
        raise CodecError("truncated frame: string body cut short")
    chunk = data[pos:end]
    pos = end
    {v} = _STR_DECODE_MEMO.get(chunk)
    if {v} is None:
        {v} = _decode_utf8(chunk)
elif t == 0x04:
    if pos + 9 > size:
        raise CodecError("truncated frame: float body cut short")
    {v} = _unpack_double_from(data, pos + 1)[0]
    pos += 9
elif t < 0x03:
    {v} = _CONSTANTS[t]
    pos += 1
else:
    {v}, pos = _DECODERS[t](data, pos + 1)
"""


def _template(template: str, var: str, depth: int) -> str:
    return textwrap.indent(template.format(v=var), "    " * depth)


#: What the generated source may name besides ``_build``.
_COMPILER_NAMESPACE = {
    "CodecError": CodecError,
    "_CONSTANTS": _CONSTANTS,
    "_DECODERS": _DECODERS,
    "_ENCODERS": _ENCODERS,
    "_INT_MEMO": _INT_MEMO,
    "_STR_DECODE_MEMO": _STR_DECODE_MEMO,
    "_STR_MEMO": _STR_MEMO,
    "_cannot_serialize": _cannot_serialize,
    "_decode_utf8": _decode_utf8,
    "_encode_int": _encode_int,
    "_encode_str": _encode_str,
    "_pack_tagged_double": _TAGGED_DOUBLE.pack,
    "_read_uvarint": _read_uvarint,
    "_unpack_double_from": _DOUBLE.unpack_from,
    "_write_uvarint": _write_uvarint,
}


def _compile(name: str, source: str, build: Any = None) -> Callable:
    """``exec`` one generated function and return it."""
    namespace = dict(_COMPILER_NAMESPACE, _build=build)
    exec(compile(source, f"<repro.net.codec {name}>", "exec"), namespace)
    return namespace[name]


def _compile_container(tag: int, kind: type) -> None:
    """The tuple, list or dict codec: a varint count, then the items
    (a dict's as key, value, key, value...) through the templates."""
    if kind is dict:
        write = (
            "for k, v in obj.items():\n"
            + _template(_ENCODE_VALUE, "k", 1)
            + _template(_ENCODE_VALUE, "v", 1)
        )
        read = (
            "items = {}\n"
            "for _ in range(n):\n"
            + _template(_DECODE_VALUE, "k", 1)
            + _template(_DECODE_VALUE, "v", 1)
            + "    items[k] = v\n"
            "return items, pos\n"
        )
    else:
        write = "for v in obj:\n" + _template(_ENCODE_VALUE, "v", 1)
        read = (
            "items = []\n"
            "for _ in range(n):\n"
            + _template(_DECODE_VALUE, "v", 1)
            + "    items.append(v)\n"
            + ("return tuple(items), pos\n" if kind is tuple else "return items, pos\n")
        )
    if kind is tuple:
        # Most tuples on the wire hold one or two values (a multisend
        # pair, a trigger's bound values): those skip the list.
        read = (
            "if n == 2:\n"
            + _template(_DECODE_VALUE, "a", 1)
            + _template(_DECODE_VALUE, "b", 1)
            + "    return (a, b), pos\n"
            "if n == 1:\n"
            + _template(_DECODE_VALUE, "a", 1)
            + "    return (a,), pos\n"
            + read
        )
    name = kind.__name__
    _ENCODERS[kind] = _compile(
        f"encode_{name}",
        f"def encode_{name}(out, obj):\n"
        f"    out.append({tag})\n"
        "    n = len(obj)\n"
        "    if n < 0x80:\n"
        "        out.append(n)\n"
        "    else:\n"
        "        _write_uvarint(out, n)\n" + textwrap.indent(write, "    "),
    )
    _DECODERS[tag] = _compile(
        f"decode_{name}",
        f"def decode_{name}(data, pos):\n"
        "    size = len(data)\n"
        "    n = data[pos]\n"
        "    if n < 0x80:\n"
        "        pos += 1\n"
        "    else:\n"
        "        n, pos = _read_uvarint(data, pos)\n" + textwrap.indent(read, "    "),
    )


def _compile_fields(
    cls: type, tag: Optional[int], fields: tuple[str, ...], build: Callable
) -> tuple[Callable, Callable]:
    """The straight-line ``(out, obj)`` encoder and ``(data, pos) ->
    (value, pos)`` decoder of ``cls``'s ``fields``, in order, behind
    ``tag`` (none for a sealed shape's body).  The decoder hands the
    values to ``build`` positionally."""
    name = cls.__name__
    encoder = [f"def encode_{name}(out, obj):\n"]
    if tag is not None:
        encoder.append(f"    out.append({tag})\n")
    decoder = [f"def decode_{name}(data, pos):\n    size = len(data)\n"]
    for i, field in enumerate(fields):
        encoder.append(f"    v = obj.{field}\n" + _template(_ENCODE_VALUE, "v", 1))
        decoder.append(_template(_DECODE_VALUE, f"v{i}", 1))
    if not fields:
        encoder.append("    pass\n")
    arguments = ", ".join(f"v{i}" for i in range(len(fields)))
    decoder.append(f"    return _build({arguments}), pos\n")
    return (
        _compile(f"encode_{name}", "".join(encoder)),
        _compile(f"decode_{name}", "".join(decoder), build),
    )


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

    ``fields`` are read as attributes at encode time and passed, in
    order and positionally, to ``build`` — the class itself by default,
    which needs them to lead its dataclass fields in declaration order.
    A record is free to omit trailing fields that must not travel (e.g.
    ``RateProbeMessage.reply_box``) and let the constructor default them.
    """
    if _DECODERS[tag] is not _unknown_tag:
        raise CodecError(f"wire tag 0x{tag:02X} registered twice")
    if type(cls) is not type:
        raise CodecError(f"record class expected, got {cls!r}")
    if build is None and not (
        dataclasses.is_dataclass(cls)
        and tuple(f.name for f in dataclasses.fields(cls))[: len(fields)] == fields
    ):
        raise CodecError(
            f"{cls.__name__}: wire fields {fields} do not lead its dataclass "
            "fields in order; give it a build"
        )
    encoder, decoder = _compile_fields(
        cls, tag, fields, build if build is not None else cls
    )
    _ENCODERS[cls] = encoder
    _DECODERS[tag] = decoder
    _SKIP[tag] = len(fields)


def _encode_bytes(out: bytearray, obj: bytes) -> None:
    out.append(_TAG_BYTES)
    _write_uvarint(out, len(obj))
    out += obj


def _decode_str(data: bytes, pos: int) -> tuple[str, int]:
    chunk, pos = _read_blob(data, pos)
    value = _STR_DECODE_MEMO.get(chunk)
    return (_decode_utf8(chunk) if value is None else value), pos


def _decode_float(data: bytes, pos: int) -> tuple[float, int]:
    if pos + 8 > len(data):
        raise CodecError("truncated frame: float body cut short")
    return _DOUBLE.unpack_from(data, pos)[0], pos + 8


# A bare scalar, or a ``bytes`` value, goes through the tables too.
_ENCODERS.update(
    dict.fromkeys(
        (type(None), bool, int, float, str),
        _compile("encode_scalar", "def encode_scalar(out, v):\n" + _template(_ENCODE_VALUE, "v", 1)),
    )
)
_ENCODERS[bytes] = _encode_bytes
_DECODERS[_TAG_NONE] = lambda data, pos: (None, pos)
_DECODERS[_TAG_TRUE] = lambda data, pos: (True, pos)
_DECODERS[_TAG_FALSE] = lambda data, pos: (False, pos)
_DECODERS[_TAG_INT] = _read_int
_DECODERS[_TAG_FLOAT] = _decode_float
_DECODERS[_TAG_STR] = _decode_str
_DECODERS[_TAG_BYTES] = _read_blob
_compile_container(_TAG_TUPLE, tuple)
_compile_container(_TAG_LIST, list)
_compile_container(_TAG_DICT, dict)


# -- payload records ---------------------------------------------------

#: Decode-side intern cache: one ``Relation`` object per (name, attrs)
#: per process, so positional bindings (``Relation._positions`` lookups
#: cached on rewrite plans) stay hot across decoded tuples.
_RELATION_CACHE: dict[tuple[str, tuple[str, ...]], Relation] = {}


def _build_relation(name: str, attributes: tuple[str, ...]) -> Relation:
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

#: Decode-side intern table: the bytes of a sealed shape -> the one
#: ``GroupShape`` decoded from them.  Bounded; when full the oldest
#: entry leaves (records that hold its shape keep it alive, a later
#: frame just decodes the bytes again).
_SHAPE_TABLE: dict[bytes, GroupShape] = {}
_SHAPE_TABLE_MAX = 512


#: A shape's fields, without a tag: the body of its seal.
_encode_shape_fields, _decode_shape_fields = _compile_fields(
    GroupShape, None, _SHAPE_FIELDS, GroupShape
)


def _encode_shape(out: bytearray, shape: GroupShape) -> None:
    sealed = shape.sealed
    if sealed is None:
        body = bytearray()
        _encode_shape_fields(body, shape)
        scratch = bytearray((TAG_SEALED_SHAPE,))
        _write_uvarint(scratch, len(body))
        scratch += body
        sealed = shape.sealed = bytes(scratch)
        if PERF.enabled:
            PERF.count("codec.shape.sealed")
    elif PERF.enabled:
        PERF.count("codec.shape.reused")
    out += sealed


def _decode_shape(data: bytes, pos: int) -> tuple[GroupShape, int]:
    blob, pos = _read_blob(data, pos)
    shape = _SHAPE_TABLE.get(blob)
    if shape is None:
        shape = _intern_shape(blob)
    elif PERF.enabled:
        PERF.count("codec.shape.interned_hits")
    return shape, pos


def _intern_shape(blob: bytes) -> GroupShape:
    """Decode and validate a sealed shape never seen before; only a
    shape that passes both enters the intern table."""
    shape, end = _decode_shape_fields(blob, 0)
    if end != len(blob):
        raise CodecError(f"{len(blob) - end} trailing bytes inside a sealed shape")
    # What bind() and the evaluators index by without looking again.
    specs = shape.select_specs
    if type(specs) is not tuple or not all(
        type(spec) is tuple
        and all(type(item) is int or type(item) is PendingAttr for item in spec)
        for spec in specs
    ):
        raise CodecError("sealed shape with malformed select lists")
    try:
        shape.layout = BindingLayout.of(specs)
    except QueryError as exc:
        raise CodecError(f"sealed shape with malformed select lists: {exc}") from None
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
_DECODERS[TAG_SEALED_SHAPE] = _decode_shape


def _bind_decoded(
    shape, required_value, dis_value, trigger_pub_time, bound
) -> RewrittenGroup:
    if type(shape) is not GroupShape or type(bound) is not tuple:
        raise CodecError("group record without a sealed shape and bound values")
    try:
        return bind(shape, required_value, dis_value, trigger_pub_time, bound)
    except QueryError as exc:
        raise CodecError(f"group record does not fit its shape: {exc!r}") from None


# A group record travels as its sealed shape plus one trigger's values;
# ``suffixes`` are derived by ``bind`` on arrival, the bound select lists
# on first read.
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
    _ENCODERS.get(type(obj), _cannot_serialize)(out, obj)
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
    try:
        obj, pos = _DECODERS[payload[start]](payload, start + 1)
    except CodecError:
        raise
    except IndexError as exc:  # an inline read ran off the end
        raise CodecError(f"truncated frame: {exc!r}") from exc
    except _CORRUPT_INPUT_ERRORS as exc:
        raise CodecError(f"payload does not decode: {exc!r}") from exc
    if pos < end:
        raise CodecError(f"{end - pos} trailing bytes after payload")
    if pos > end:
        raise CodecError(f"value overruns its {end - start}-byte span by {pos - end}")
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
        _ENCODERS.get(type(obj), _cannot_serialize)(out, obj)
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
