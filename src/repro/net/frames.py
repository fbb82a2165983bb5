"""Wire envelopes: routing frames and bootstrap control frames.

Application messages (:mod:`repro.sim.messages`) never travel bare; a
peer wraps them in one of three envelopes that mirror the simulator's
routing primitives (Section 2.3):

* :class:`RouteFrame` — ``send(msg, I)``: forwarded hop by hop along
  real finger tables until the node owning ``target_ident`` delivers;
* :class:`MultiFrame` — recursive ``multisend(M, L)``: the pair list is
  sorted clockwise from the source, every peer on the sweep strips and
  delivers the pairs it owns and forwards the remainder;
* :class:`DirectFrame` — ``send_direct``: one TCP hop to a peer whose
  address is already known (notification delivery, JFRT hits).

The bootstrap handshake uses three more frames: a starting peer sends
:class:`JoinRequest` with its own :class:`PeerInfo` to the bootstrap
peer, which answers with a :class:`JoinReply` listing every member it
knows and fans a :class:`MemberUpdate` out to the existing members so
all address books converge before the workload starts.

All frames are codec records (tags ``0x30``–``0x3F``) so the one wire
format of :mod:`repro.net.codec` covers control and data traffic alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .codec import (
    _TAG_INT,
    _TAG_TUPLE,
    _read_int,
    _read_uvarint,
    _write_int,
    _write_uvarint,
    register_record,
    skip_value,
)
from ..errors import CodecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.messages import Message

TAG_PEER_INFO = 0x30
TAG_ROUTE_FRAME = 0x31
TAG_MULTI_FRAME = 0x32
TAG_DIRECT_FRAME = 0x33
TAG_JOIN_REQUEST = 0x34
TAG_JOIN_REPLY = 0x35
TAG_MEMBER_UPDATE = 0x36
TAG_HEARTBEAT = 0x37


@dataclass(frozen=True, slots=True)
class PeerInfo:
    """One peer's overlay identifier and socket address."""

    ident: int
    host: str
    port: int


@dataclass(frozen=True, slots=True)
class RouteFrame:
    """``send(msg, I)`` in flight: deliver at ``Successor(target_ident)``.

    ``hops`` counts the TCP forwards taken so far — diagnostic only,
    but also the loop guard: a frame whose hop count exceeds the
    routing bound is dropped with an error instead of orbiting forever.
    """

    target_ident: int
    message: "Message"
    hops: int = 0


@dataclass(frozen=True, slots=True)
class MultiFrame:
    """A recursive-multisend sweep: ``(ident, message)`` pairs sorted
    clockwise from the originating node."""

    pairs: tuple[tuple[int, "Message"], ...]
    hops: int = 0


@dataclass(frozen=True, slots=True)
class DirectFrame:
    """One-hop delivery to the receiving peer's node."""

    message: "Message"


@dataclass(frozen=True, slots=True)
class JoinRequest:
    """Announce a new peer to the bootstrap peer."""

    info: PeerInfo


@dataclass(frozen=True, slots=True)
class JoinReply:
    """Bootstrap's answer: every member known so far (joiner included)."""

    members: tuple[PeerInfo, ...]


@dataclass(frozen=True, slots=True)
class MemberUpdate:
    """Membership broadcast keeping older peers' address books current.

    Entries *overwrite* stale address-book rows: a node that crashed
    and rejoined (possibly on a new port) announces its new socket
    address through the bootstrap peer's fan-out, and every receiver
    must prefer the fresh address over the dead one.
    """

    members: tuple[PeerInfo, ...]


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Liveness beacon for the failure detector (:mod:`repro.net.health`).

    One-way and weightless: heartbeats never enter the in-flight
    delivery accounting and carry no application payload — receiving
    one merely proves the *sender* is alive and can reach this peer,
    which is exactly the asymmetric-partition semantics a detector
    needs.
    """

    sender: int


register_record(PeerInfo, TAG_PEER_INFO, ("ident", "host", "port"))
register_record(RouteFrame, TAG_ROUTE_FRAME, ("target_ident", "message", "hops"))
register_record(MultiFrame, TAG_MULTI_FRAME, ("pairs", "hops"))
register_record(DirectFrame, TAG_DIRECT_FRAME, ("message",))
register_record(JoinRequest, TAG_JOIN_REQUEST, ("info",))
register_record(JoinReply, TAG_JOIN_REPLY, ("members",))
register_record(MemberUpdate, TAG_MEMBER_UPDATE, ("members",))
register_record(Heartbeat, TAG_HEARTBEAT, ("sender",))


# ----------------------------------------------------------------------
# Raw-relay structural peeks
# ----------------------------------------------------------------------
# Both routed envelopes register ``hops`` as their LAST field, so their
# wire layouts end in the one field a pure relay rewrites:
#
#   RouteFrame: [TAG_ROUTE_FRAME][TAG_INT <target zigzag>]
#               [<message record>][TAG_INT <hops zigzag>]
#   MultiFrame: [TAG_MULTI_FRAME][TAG_TUPLE <count> <pairs...>]
#               [TAG_INT <hops zigzag>]
#
# A relay that owns none of the targets rewrites exactly the trailing
# hop counter, so it never needs the messages decoded: these helpers
# read the target identifiers (skipping structurally over the message
# bytes), check the trailing hop byte, and rebuild the forwarded frame
# from the original wire bytes.  The hop counter's zigzag stays a
# single byte up to 63 hops, far above any routing bound this repo
# configures; anything structurally off returns ``None`` and the
# caller falls back to the full-decode path.


def peek_route(payload: bytes) -> Optional[tuple[int, int, int]]:
    """``(target_ident, message_tag, hops)`` of a RouteFrame payload.

    Touches only the payload's head and tail — the message in the
    middle is never decoded.  Returns ``None`` whenever the payload is
    not a RouteFrame with a single-byte hop varint (the caller must
    then decode normally); never raises on junk bytes.
    """
    if (
        len(payload) < 6
        or payload[0] != TAG_ROUTE_FRAME
        or payload[1] != _TAG_INT
    ):
        return None
    try:
        target, pos = _read_int(payload, 2)
    except CodecError:
        return None
    last = payload[-1]
    if pos >= len(payload) - 2 or payload[-2] != _TAG_INT:
        return None
    if last & 1 or last >= 0x80:
        # Multi-byte or negative hop varint: a continuation byte has
        # its msb set, so payload[-2] above already rejects that shape;
        # this arm only guards a final byte that is itself suspicious.
        return None
    return target, payload[pos], last >> 1


#: Structural-peek memo for :func:`peek_multi`, keyed by the payload
#: minus its final (hop varint) byte.  Bounded; cleared wholesale when
#: full — entries describe transient in-flight sweeps, so losing them
#: only costs a re-walk.
_PEEK_MEMO: dict[bytes, tuple[list, list, list, list]] = {}
_PEEK_MEMO_MAX = 8192


def peek_multi(
    payload: bytes,
) -> Optional[tuple[list[int], list[int], list[int], list[int], int]]:
    """``(idents, message_tags, message_starts, pair_starts, hops)``.

    Walks a MultiFrame payload's pair list structurally — each
    message's bytes are *skipped*, never decoded — collecting per pair
    its target identifier, the leading record tag of its message, the
    byte offset of the message, and the byte offset of the pair record
    itself (so :func:`splice_multi` can carve out verbatim pair
    slices).  Returns ``None`` whenever the payload is not a
    MultiFrame with the expected shape and a single-byte hop varint;
    never raises on junk bytes.
    """
    if (
        len(payload) < 7
        or payload[0] != TAG_MULTI_FRAME
        or payload[1] != _TAG_TUPLE
    ):
        return None
    last = payload[-1]
    if last & 1 or last >= 0x80:
        return None
    # Every relay of a sweep sees the same bytes except the trailing
    # hop varint, and all the cluster's peers share this process — so
    # the structural walk is memoized on the hop-independent prefix:
    # hop k+1's peek of a frame hop k already walked is a dict hit.
    key = payload[:-1]
    cached = _PEEK_MEMO.get(key)
    if cached is not None:
        idents, tags, message_starts, pair_starts = cached
        return idents, tags, message_starts, pair_starts, last >> 1
    idents = []
    tags = []
    message_starts = []
    pair_starts = []
    try:
        count, pos = _read_uvarint(payload, 2)
        for _ in range(count):
            # Each pair is a 2-tuple; uvarint(2) is always one byte.
            if payload[pos] != _TAG_TUPLE or payload[pos + 1] != 2:
                return None
            if payload[pos + 2] != _TAG_INT:
                return None
            pair_starts.append(pos)
            ident, pos = _read_int(payload, pos + 3)
            idents.append(ident)
            message_starts.append(pos)
            tags.append(payload[pos])
            pos = skip_value(payload, pos)
    except (CodecError, IndexError):
        return None
    if pos != len(payload) - 2 or payload[pos] != _TAG_INT:
        return None
    if len(_PEEK_MEMO) >= _PEEK_MEMO_MAX:
        _PEEK_MEMO.clear()
    _PEEK_MEMO[key] = (idents, tags, message_starts, pair_starts)
    return idents, tags, message_starts, pair_starts, last >> 1


def splice_multi(
    payload: bytes, pair_starts: list[int], keep: list[int], hops: int
) -> bytes:
    """A MultiFrame payload carrying only ``keep``'s pairs, hops + 1.

    The kept pairs are copied as verbatim byte slices out of the
    original payload (boundaries courtesy of :func:`peek_multi`), so a
    delivering multisend hop forwards the remainder without re-encoding
    a single message.  The produced bytes are identical to encoding
    ``MultiFrame(tuple(kept_pairs), hops + 1)`` from scratch.
    """
    out = bytearray((TAG_MULTI_FRAME, _TAG_TUPLE))
    _write_uvarint(out, len(keep))
    end = len(payload) - 2
    n = len(pair_starts)
    for i in keep:
        stop = pair_starts[i + 1] if i + 1 < n else end
        out += payload[pair_starts[i]:stop]
    out.append(_TAG_INT)
    _write_int(out, hops + 1)
    return bytes(out)


def bump_route_hops(header: bytes, payload: bytes) -> Optional[bytes]:
    """The complete wire bytes of ``payload``'s frame with ``hops + 1``.

    Works for both routed envelopes — RouteFrame and MultiFrame alike
    register ``hops`` as their final field.

    The hop counter is the only rewritten field and its varint must
    stay a single byte, so the frame length — and therefore ``header``
    — is reused verbatim.  Returns ``None`` when the incremented
    counter would not fit the fast path.
    """
    last = payload[-1]
    if payload[-2] != _TAG_INT or last & 1 or last >= 0x7E:
        return None
    return b"".join((header, payload[:-1], bytes((last + 2,))))
