"""One asyncio peer per overlay node, plus the socket transport.

A :class:`NetPeer` gives its :class:`~repro.chord.node.ChordNode` a real
TCP presence: a listening server (ephemeral port on localhost), an
address book mapping overlay identifiers to socket addresses, and one
persistent outbound connection per target peer, so frames to the same
peer never interleave and never handshake twice.

No coroutine runs on the steady-state frame path (DESIGN.md §11, §13).
Inbound, an accepted connection is an :class:`asyncio.Protocol`
(:class:`_Inbound`): ``data_received`` relays or dispatches every
complete frame of its chunk before returning.  Outbound, an
:class:`_Outbox` is a ``deque`` and a ``call_soon``-scheduled
synchronous ``_flush``; ``_write`` is the only function that touches an
outbox socket, and the ``_recover`` task — alive only while a dial, a
drain or a back-off must be awaited — the only retry loop.

:class:`SocketTransport` implements the :class:`~repro.transport.Transport`
contract over those peers.  Delivery semantics:

* routed frames travel **hop by hop** — each TCP forward is one overlay
  hop, billed to the shared :class:`~repro.sim.stats.TrafficStats`; the
  next hop is read off the ring snapshot while the ring is exact, off
  the node's finger table otherwise;
* handlers run synchronously at the receiving peer, exactly as in the
  simulator; frames they emit are queued before the triggering
  delivery is marked done, so the cluster-wide :class:`InFlight`
  counter reaches zero only when an event's full causal cascade has
  landed;
* write failures retry with the fault-injection backoff shape of PR-1
  (``backoff_base * 2**(attempt-1)``, optionally jittered, up to
  ``max_attempts``); exhausted *routed* frames fall back to the
  target's ring successor before surfacing as a
  :class:`~repro.errors.DeliveryError` collected by the cluster
  (asynchronous failure cannot raise into the synchronous sender).

Backpressure (DESIGN.md §12): in-flight deliveries are **credited**
against a cluster-wide budget that gates the workload driver (handler
cascades cannot block and may transiently overdraw), and each outbox
has a bounded **send window** — a full backlog sheds new data frames
(settled as failed, re-created by the lease refresh) instead of
growing without bound.

Known single-process shortcut: the *return value* of ``send``/
``multisend`` and ``lookup`` come from the in-process ring oracle and
router, while payloads genuinely travel over TCP, so a routing bug
shows up as a missing or misdelivered frame — the notification digest
catches it — not as a wrong return value.  See DESIGN.md §11.
"""

from __future__ import annotations

import asyncio
import logging
import socket
from collections import Counter, deque
from contextlib import suppress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..chord.routing import Router
from ..perf import PERF
from ..errors import (
    CodecError,
    DeliveryError,
    NetworkError,
    QuiesceTimeout,
    RoutingError,
)
from ..transport import PublishLedger, Transport
from ..sim.messages import Message
from .codec import (
    HEADER_SIZE,
    MESSAGE_TYPE_BY_TAG,
    decode,
    decode_frame_payload,
    decode_header,
    encode_frame,
    frame_for_payload,
)
from .frames import (
    DirectFrame,
    Heartbeat,
    JoinReply,
    JoinRequest,
    MemberUpdate,
    MultiFrame,
    PeerInfo,
    RouteFrame,
    TAG_MULTI_FRAME,
    TAG_ROUTE_FRAME,
    bump_route_hops,
    peek_multi,
    peek_route,
    splice_multi,
)
from .health import FailureDetector, HealthConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chord.node import ChordNode
    from .cluster import LiveCluster

#: One WARNING per codec fault or stream break, one INFO per recovery
#: that retried or fell back — never one per frame; silent by default.
logger = logging.getLogger("repro.net")
logger.addHandler(logging.NullHandler())


class InjectedWireFault(Exception):
    """A chaos-layer decision dressed up as a socket failure.

    Raised inside the outbound write path when the installed
    :class:`~repro.net.chaos.LiveChaos` refuses a connect, resets or
    corrupts a frame, or blocks a partitioned edge; handled by exactly
    the same retry/backoff/fallback code as a real ``OSError``.
    """


#: Most frames coalesced into one socket write, and the byte ceiling
#: on such a write: a batch stops growing once it reaches either (the
#: frame that crossed the byte line still ships with the batch, so a
#: single frame may exceed it alone).  The outbox never *waits* for a
#: batch to fill — it only coalesces what handler cascades queued before
#: the flush callback ran, so an idle connection pays no added latency.
MAX_BATCH_FRAMES = 64
MAX_BATCH_BYTES = 256 * 1024


def set_nodelay(stream) -> None:
    """Disable Nagle's algorithm on the socket under a stream writer or
    a transport (one without a real socket is left alone).

    Batching is *our* policy (the outbox coalesces frames explicitly);
    letting the kernel hold small writes back as well would stack an
    uncontrolled delay on top.
    """
    sock = stream.get_extra_info("socket")
    if sock is not None:
        with suppress(OSError, AttributeError):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


@dataclass
class NetConfig:
    """Socket-layer knobs of a live cluster.

    The retry shape mirrors the PR-1 fault plan
    (:class:`repro.faults.plan.FaultPlan`): up to ``max_attempts``
    delivery attempts with exponential backoff
    ``backoff_base * 2**(attempt-1)`` between them (each pause
    stretched by up to ``backoff_jitter`` of itself, so synchronized
    retries after a partition heal spread out), then successor fallback
    and a typed :class:`~repro.errors.DeliveryError` — except the
    sleeps are real seconds and the drops are real socket errors, not
    injected ones.
    """

    connect_timeout: float = 5.0
    #: Per-frame write/drain timeout (also the bootstrap reply timeout).
    io_timeout: float = 10.0
    max_attempts: int = 3
    backoff_base: float = 0.05
    #: Uniform multiplicative jitter on retry pauses (0 = deterministic).
    backoff_jitter: float = 0.0
    #: Per-peer outbound backlog bound; data frames beyond it are shed
    #: (and recovered by the lease refresh) instead of buffered forever.
    send_window: int = 1024
    #: Cluster-wide ceiling on in-flight deliveries (the credit budget).
    credit_budget: int = 4096

    @classmethod
    def from_fault_plan(cls, plan, **overrides) -> "NetConfig":
        """Lift the retry knobs off a fault plan (same names, same shape)."""
        overrides.setdefault("max_attempts", plan.max_attempts)
        overrides.setdefault("backoff_base", plan.backoff_base)
        overrides.setdefault("backoff_jitter", plan.backoff_jitter)
        return cls(**overrides)


class InFlight:
    """Cluster-wide credit ledger of posted-but-unhandled deliveries.

    The workload driver posts one event's messages and awaits zero.
    Handlers run synchronously at the receiving peer and post any
    cascade frames *before* their own delivery decrements, so the
    counter can only reach zero once the event's entire causal tree has
    been handled — the live analogue of the simulator completing an
    event's synchronous call chain.

    Beyond the bare counter this tracks, per message label, what is
    still outstanding (the :class:`~repro.errors.QuiesceTimeout`
    diagnostic), the high-water mark against an optional credit
    ``budget``, and — for chaos runs only (``allow_slack``) — absorbs
    the accounting noise a mid-flight node crash inevitably produces
    (a frame can be settled as lost by the dying peer in the same
    instant its sender completes the write).
    """

    def __init__(self, budget: Optional[int] = None) -> None:
        self._count = 0
        self._labels: Counter = Counter()
        self._zero = asyncio.Event()
        self._zero.set()
        self._below = asyncio.Event()
        self._below.set()
        self.budget = budget
        self.peak = 0
        #: Chaos mode only: tolerate double-settled crash casualties.
        self.allow_slack = False
        self.slack_absorbed = 0
        self._debt = 0
        #: Credits per publish (``time``), the low watermark.  A failed or
        #: lost frame settles by label only: its publish's credit at zero.
        self.ledger = PublishLedger()

    @property
    def count(self) -> int:
        return self._count

    def pending(self) -> dict[str, int]:
        """Outstanding deliveries by label (diagnostic)."""
        return {label: n for label, n in self._labels.items() if n}

    def inc(self, label: str = "control", n: int = 1, time=None) -> None:
        if time is not None:
            self.ledger[time] += n
        self._count += n
        self._labels[label] += n
        if self._count > self.peak:
            self.peak = self._count
        if self._count:
            self._zero.clear()
        if self.budget is not None and self._count >= self.budget:
            self._below.clear()

    def dec(self, label: str = "control", n: int = 1, time=None) -> None:
        if time is not None:
            self.ledger.settle(time, n)
        self._labels[label] -= n
        if self._labels[label] == 0:
            del self._labels[label]
        taken = min(n, self._count)
        self._count -= taken
        leftover = n - taken
        if leftover:
            absorbed = min(leftover, self._debt)
            self._debt -= absorbed
            leftover -= absorbed
        if leftover:
            if not self.allow_slack:
                raise RuntimeError("in-flight delivery counter went negative")
            self.slack_absorbed += leftover
        if self._count == 0:
            self._zero.set()
            if self.ledger:
                self.ledger.clear()
        if self.budget is None or self._count < self.budget:
            self._below.set()

    def write_off(self) -> dict[str, int]:
        """Forgive everything outstanding (chaos-crash leak settlement).

        Returns what was written off and arms a matching *debt* so the
        late arrival of a forgiven delivery does not push the counter
        negative.  Only the chaos drain path uses this; a benign run
        that needs it has a real accounting bug and should fail loudly
        instead (``allow_slack`` stays False there).
        """
        pending = self.pending()
        self._debt += self._count
        self._count = 0
        self._labels.clear()
        self.ledger.clear()
        self._zero.set()
        self._below.set()
        return pending

    async def wait_zero(self, timeout: Optional[float] = None) -> None:
        if self._zero.is_set():
            return
        try:
            await asyncio.wait_for(self._zero.wait(), timeout)
        except asyncio.TimeoutError:
            raise QuiesceTimeout(
                timeout if timeout is not None else 0.0, self.pending()
            ) from None

    async def wait_below_budget(self, timeout: Optional[float] = None) -> None:
        """Credit gate for work *sources* (the workload driver).

        Returns immediately while in-flight deliveries are under the
        budget; otherwise waits until enough have settled.  Handler
        cascades never wait here — blocking them would deadlock the
        very processing that frees credits.
        """
        if self.budget is None or self._below.is_set():
            return
        try:
            await asyncio.wait_for(self._below.wait(), timeout)
        except asyncio.TimeoutError:
            raise QuiesceTimeout(
                timeout if timeout is not None else 0.0, self.pending()
            ) from None


def _frame_labels(frame, weight: int) -> tuple[str, ...]:
    """The per-delivery labels a frame's settlement must balance."""
    kind = type(frame)
    if kind is RouteFrame or kind is DirectFrame:
        return (frame.message.type,)
    if kind is MultiFrame:
        return tuple(message.type for _, message in frame.pairs)
    return ("control",) * weight


class _RawFrame:
    """A relayed frame that was never decoded (raw wire bytes only).

    The happy path — write the bytes to the next hop — needs nothing
    else; only the rare retry-exhausted fallback needs the frame
    object, and :meth:`materialize` decodes it on demand.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def materialize(self):
        return decode(self.data[HEADER_SIZE:])


#: Frame kinds the send window may shed: data frames, decoded or raw.
#: Control frames and beacons always queue.
_SHEDDABLE = frozenset((RouteFrame, MultiFrame, DirectFrame, _RawFrame))


class _OutItem:
    """One queued frame: the object (for fallback rerouting), its wire
    bytes, and the delivery accounting it must settle."""

    __slots__ = ("frame", "data", "weight", "labels", "fallback")

    def __init__(self, frame, data: bytes, weight: int, labels, fallback: bool):
        self.frame = frame
        self.data = data
        self.weight = weight
        self.labels = labels
        self.fallback = fallback


class _Outbox:
    """One persistent outbound connection: a deque and a synchronous flush.

    Frames wait in ``pending``; the first one queued in a loop turn
    schedules one :meth:`_flush`, which coalesces whatever the handler
    cascades of that turn queued into socket writes bounded by
    :data:`MAX_BATCH_FRAMES` and :data:`MAX_BATCH_BYTES` (DESIGN.md
    §13).  With a chaos layer installed a write carries strictly one
    frame, so the seeded fault decisions (reset/truncate/garble *this*
    frame) keep their exact semantics.  What cannot be done inside one
    callback happens in the :meth:`_recover` task, alive only while
    there is something to await.

    The connection is (re-)established lazily against the *current*
    address-book entry, so a peer that restarted on a new port is
    reached as soon as the membership update lands; one the remote side
    dropped (EOF seen, or transport closing) is detected before the
    next write instead of silently swallowing frames.
    """

    def __init__(self, peer: "NetPeer", target_ident: int):
        self.peer = peer
        self.target_ident = target_ident
        self.pending: deque[_OutItem] = deque()
        #: Frames taken off ``pending`` but not yet settled (current batch).
        self.current: list[_OutItem] = []
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self._loop = asyncio.get_running_loop()
        self._recovery: Optional[asyncio.Task] = None

    @property
    def depth(self) -> int:
        return len(self.pending) + len(self.current)

    def put(self, item: _OutItem) -> None:
        """Queue ``item``.  A backlog is non-empty only while a flush is
        scheduled or a recovery runs, so the frame that finds it empty
        schedules the one flush of this loop turn."""
        if not self.pending and self._recovery is None:
            self._loop.call_soon(self._flush)
        self.pending.append(item)

    async def close(self) -> None:
        """Ship what is still queued, then hang up."""
        if self._recovery is None:
            self._flush()
        if self._recovery is not None:
            await self._recovery
        self.reset()

    def abort(self) -> list[_OutItem]:
        """Crash teardown: cancel any recovery, return the doomed items."""
        items = self.current + list(self.pending)
        self.current.clear()
        self.pending.clear()
        if self._recovery is not None:
            self._recovery.cancel()
        self.reset(abort=True)
        return items

    def reset(self, *, abort: bool = False) -> None:
        """Drop the pooled connection (next write re-establishes it)."""
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            if abort:
                writer.transport.abort()
            else:
                writer.close()

    # ------------------------------------------------------------------
    def _connected(self) -> bool:
        writer = self.writer
        return not (
            writer is None or writer.is_closing() or self.reader.at_eof()
        )

    def _take(self) -> list[_OutItem]:
        """Move the next write's frames from ``pending`` to ``current``:
        up to the batch bounds, or exactly one with chaos installed."""
        pending = self.pending
        batch = self.current
        item = pending.popleft()
        batch.append(item)
        if self.peer.cluster.chaos is None:
            nbytes = len(item.data)
            while (
                pending
                and len(batch) < MAX_BATCH_FRAMES
                and nbytes < MAX_BATCH_BYTES
            ):
                item = pending.popleft()
                batch.append(item)
                nbytes += len(item.data)
        return batch

    def _flush(self) -> None:
        """Write everything queued, inside this one callback, while
        nothing must be awaited: a live pooled connection, a target
        nobody declared dead, no chaos layer (it is owed a drain per
        frame), the kernel taking each write whole.  Else
        :meth:`_recover` takes over."""
        if self._recovery is not None:
            return
        if PERF.enabled:
            PERF.count("net.flushes")
        cluster = self.peer.cluster
        owed = False
        while self.pending and not owed:
            if (
                cluster.chaos is not None
                or cluster.is_dead(self.target_ident)
                or not self._connected()
            ):
                break
            owed = not self._write(self._take())
            if not owed:
                self.current.clear()
        if owed or self.pending:
            self._recovery = self._loop.create_task(self._recover(owed))

    def _write(self, items: Sequence[_OutItem]) -> bool:
        """Write ``items`` — one frame, or a whole batch — exactly once.

        The only place an outbox touches its socket, and synchronous:
        the caller made sure of a connection.  True: sent and accounted.
        False: written, but a drain is owed (the kernel did not take it
        all, or chaos is installed) — the caller awaits it and then
        calls :meth:`_sent`.  Any failure raises; retry policy belongs
        to :meth:`_recover`.
        """
        chaos = self.peer.cluster.chaos
        data = b"".join([item.data for item in items])
        # Chaos faults are decided *before* any clean byte hits the
        # wire, so a faulted attempt was certainly not delivered and
        # can be retried without risking a duplicate.  (``data`` is a
        # single frame here: chaos never batches, see ``_take``.)  A
        # damaged frame is followed by a graceful close, which flushes
        # what was written before the connection dies.
        fault = chaos.sample_frame_fault() if chaos is not None else None
        if fault == "reset":
            self.reset(abort=True)
            raise InjectedWireFault("connection reset")
        if fault == "truncate":
            self.writer.write(data[: max(1, len(data) // 2)])
            self.reset()
            raise InjectedWireFault("frame truncated on the wire")
        if fault == "garble":
            self.writer.write(chaos.corrupt(data))
            # The receiver will fail decoding and drop the connection.
            self.reset()
            raise InjectedWireFault("frame garbled on the wire")
        self.writer.write(data)
        # When the kernel took the whole write synchronously there is
        # nothing to wait for; any connection failure surfaces on the
        # next write or on the receiving side.  Chaos runs always
        # drain: their semantics lean on a drain per attempt.
        if chaos is not None or self.writer.transport.get_write_buffer_size():
            return False
        self._sent(items, len(data))
        return True

    def _sent(self, items: Sequence[_OutItem], nbytes: int) -> None:
        """Send accounting of one completed write."""
        peer = self.peer
        batched = len(items) > 1
        peer.bytes_sent += nbytes
        if batched:
            peer.batches_sent += 1
        peer.note_send_success(self.target_ident)
        if PERF.enabled:
            PERF.count("net.writes")
            if batched:
                PERF.count("net.batches")
            PERF.count("net.frames_flushed", len(items))
            PERF.count("net.bytes_flushed", nbytes)

    def _gate(self) -> Optional[PeerInfo]:
        """In front of every attempt: refuse a crashed or partitioned
        target; return the address to dial first when there is no live
        pooled connection (``None``: write on the one there is)."""
        peer = self.peer
        cluster = peer.cluster
        target = self.target_ident
        if cluster.is_dead(target):
            raise InjectedWireFault(f"peer {target} crashed")
        chaos = cluster.chaos
        if chaos is not None and chaos.blocked(peer.node.ident, target):
            raise InjectedWireFault("link partitioned")
        if self._connected():
            return None
        self.reset()
        if chaos is not None and chaos.should_refuse_connection():
            raise InjectedWireFault("connection refused (injected)")
        info = peer.book.get(target)
        if info is None:
            raise InjectedWireFault(f"no address for peer {target}")
        return info

    async def _recover(self, owed: bool) -> None:
        """Everything an outbox ever awaits, and its only retry loop.

        Runs until nothing is queued (``owed``: ``current`` is written
        and waits for its drain).  A batch gets one attempt as a whole;
        if that fails every frame of it — like a frame that travelled
        alone — gets the full ladder: up to ``max_attempts`` writes with
        exponential back-off, then :meth:`NetPeer._exhausted`.  A
        heartbeat is a one-shot beacon: the detector saw the failure,
        nothing is retried.  (Benign runs never fail a write — a
        localhost write only fails under a genuinely dead peer.)
        """
        peer = self.peer
        cluster = peer.cluster
        config = cluster.net_config
        batch = self.current
        whole, attempt = len(batch) > 1, 1
        retries = rerouted = 0
        failure: Optional[Exception] = None
        if PERF.enabled:
            PERF.count("net.recoveries")
        try:
            while batch or self.pending:
                if not batch:
                    whole = len(self._take()) > 1
                items = batch if whole else batch[:1]
                try:
                    info = None if owed else self._gate()
                    if info is not None:
                        if PERF.enabled:
                            PERF.count("net.connects")
                        self.reader, self.writer = await asyncio.wait_for(
                            asyncio.open_connection(info.host, info.port),
                            config.connect_timeout,
                        )
                        set_nodelay(self.writer)
                    if owed or not self._write(items):
                        owed = False
                        await asyncio.wait_for(
                            self.writer.drain(), config.io_timeout
                        )
                        self._sent(items, sum(len(i.data) for i in items))
                except (OSError, asyncio.TimeoutError, InjectedWireFault) as exc:
                    failure = exc
                    self.reset()
                    peer.note_send_failure(self.target_ident)
                    if whole:
                        whole = False  # each frame on its own from here
                        continue
                    item = batch[0]
                    if type(item.frame) is Heartbeat:
                        pass
                    elif attempt >= config.max_attempts:
                        rerouted += peer._exhausted(
                            self.target_ident, item, attempt
                        )
                    else:
                        cluster.stats.record_retry(
                            item.labels[0] if item.labels else "control"
                        )
                        retries += 1
                        await asyncio.sleep(
                            cluster.jittered(
                                config.backoff_base * (2 ** (attempt - 1))
                            )
                        )
                        attempt += 1
                        continue
                del batch[: len(items)]
                attempt = 1
        finally:
            self._recovery = None
            if retries or rerouted:
                logger.info(
                    "peer %s -> %s: recovery retried %d write(s), %d frame(s) "
                    "fell back to a successor; last failure: %r",
                    peer.node.ident, self.target_ident, retries, rerouted, failure,
                )


class _Inbound(asyncio.Protocol):
    """One accepted connection, deframed and dispatched where it arrives.

    ``data_received`` walks every complete frame of its chunk — header
    and payload are slices of the chunk, nothing is buffered when the
    chunk ends on a frame boundary — and relays or dispatches each
    before returning.  A frame the chunk cuts short waits in ``buffer``,
    one ``bytearray`` sized by its (``MAX_PAYLOAD``-checked) header and
    filled in place, so it is copied twice whatever the chunk size
    (``copied`` counts); a header cut short waits in ``head``.

    A :class:`CodecError` aborts the connection with nothing after the
    bad frame dispatched (the stream position is lost; the sender's
    recovery dials a clean connection and this server keeps serving the
    others); bytes left over when the connection is lost are a stream
    break; a close at a frame boundary is silent.
    """

    def __init__(self, peer: "NetPeer"):
        self.peer = peer
        self.transport: Optional[asyncio.Transport] = None
        loop = asyncio.get_running_loop()
        self._clock = loop.time
        #: Resolved by ``connection_lost`` (teardown waits on it).
        self.closed: asyncio.Future = loop.create_future()
        self.head = b""
        self.buffer: Optional[bytearray] = None
        self.filled = 0
        self.copied = 0

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.peer._inbound.add(self)
        set_nodelay(transport)

    def data_received(self, data: bytes) -> None:
        self.peer._last_inbound = self._clock()
        if PERF.enabled:
            PERF.count("net.chunks")
        try:
            if self.head:
                data, self.head = self.head + data, b""
                self.copied += len(data)
            pos = 0 if self.buffer is None else self._fill(data, 0)
            size = len(data)
            while pos < size:
                body = pos + HEADER_SIZE
                if body > size:
                    self.head = data[pos:]
                    break
                header = data[pos:body]
                end = body + decode_header(header)
                if end <= size:
                    self._frame(header, data[body:end])
                    pos = end
                else:
                    self.buffer, self.filled = bytearray(end - pos), 0
                    pos = self._fill(data, pos)
        except CodecError as exc:
            self.buffer = None
            self._fault(self.peer.cluster.note_codec_fault, "codec fault", exc)
            self.transport.abort()

    def _fill(self, data: bytes, pos: int) -> int:
        """Pour ``data[pos:]`` into the waiting frame, dispatch it once
        complete; returns the position consumed up to."""
        buffer = self.buffer
        take = min(len(buffer) - self.filled, len(data) - pos)
        buffer[self.filled : self.filled + take] = memoryview(data)[pos : pos + take]
        self.filled += take
        self.copied += take
        if self.filled == len(buffer):
            self.buffer = None
            self.copied += len(buffer)
            whole = memoryview(buffer)
            self._frame(bytes(whole[:HEADER_SIZE]), bytes(whole[HEADER_SIZE:]))
        return pos + take

    def _frame(self, header: bytes, payload: bytes) -> None:
        peer = self.peer
        if PERF.enabled:
            PERF.count("net.frames_received")
        if not peer._relay_raw(header, payload):
            peer._dispatch(decode_frame_payload(payload), self.transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.peer._inbound.discard(self)
        self.closed.set_result(None)
        if exc is None and self.buffer is not None:
            exc = asyncio.IncompleteReadError(
                bytes(self.buffer[: self.filled]), len(self.buffer)
            )
        elif exc is None and self.head:
            exc = asyncio.IncompleteReadError(self.head, HEADER_SIZE)
        if exc is not None:
            self._fault(self.peer.cluster.note_stream_break, "stream break", exc)

    def _fault(self, note, what: str, exc: Exception) -> None:
        note(exc)
        logger.warning(
            "peer %s: %s on the connection from %s: %r", self.peer.node.ident,
            what, self.transport.get_extra_info("peername"), exc,
        )


class NetPeer:
    """The live (socket) half of one overlay node."""

    def __init__(self, node: "ChordNode", cluster: "LiveCluster"):
        self.node = node
        self.cluster = cluster
        self.info: Optional[PeerInfo] = None
        #: Overlay identifier -> socket address, filled by the
        #: bootstrap handshake (each peer keeps its own book).
        self.book: dict[int, PeerInfo] = {}
        self._outboxes: dict[int, _Outbox] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._inbound: set[_Inbound] = set()
        self.detector: Optional[FailureDetector] = None
        #: Set by :meth:`freeze`; a frozen peer settles inbound frames
        #: as crash casualties instead of delivering them.
        self.crashed = False
        self._last_inbound = 0.0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_shed = 0
        #: Coalesced multi-frame writes that went out with one drain.
        self.batches_sent = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> PeerInfo:
        """Bind the TCP server (``port=0`` = ephemeral)."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Inbound(self), host, port
        )
        bound = self._server.sockets[0].getsockname()[1]
        self.info = PeerInfo(self.node.ident, host, bound)
        self.book[self.node.ident] = self.info
        self.crashed = False
        return self.info

    async def stop_server(self, *, abort: bool = True) -> None:
        """Kill just the TCP server and the accepted connections.

        The peer object, its node, its address book and its outboxes
        all survive — this models a listener outage, not a crash.
        Senders notice on their next write (connection reset / refused)
        and retry; calling :meth:`start` again with the old port brings
        the peer back on the same address, so no membership update is
        needed for routing to resume.  Returns once every connection's
        ``connection_lost`` has run (``abort=False``: closed gracefully).
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        connections = list(self._inbound)
        for connection in connections:
            if abort:
                connection.transport.abort()
            else:
                connection.transport.close()
        await asyncio.gather(*[connection.closed for connection in connections])
        if server is not None:
            with suppress(OSError):
                await server.wait_closed()

    def enable_health(self, config: HealthConfig) -> FailureDetector:
        """Attach and start a failure detector for this peer."""
        self.detector = FailureDetector(self, config)
        self.detector.start()
        return self.detector

    async def stop(self) -> None:
        """Flush outboxes, stop listening, hang up inbound connections."""
        if self.detector is not None:
            await self.detector.stop()
            self.detector = None
        for outbox in self._outboxes.values():
            await outbox.close()
        self._outboxes.clear()
        await self.stop_server(abort=False)

    def freeze(self) -> None:
        """Phase one of a crash: stop listening, stop delivering.

        Synchronous on purpose — from the instant it returns (still
        inside the same event-loop turn) every inbound frame is settled
        as lost instead of handled, so the ring-side ``network.fail``
        and this socket-side freeze happen atomically with respect to
        all peer tasks.
        """
        self.crashed = True
        self._last_inbound = asyncio.get_running_loop().time()
        if self._server is not None:
            self._server.close()

    async def abort(self) -> None:
        """Phase two of a crash: settle doomed frames, hang everything up.

        Outbound recoveries are cancelled and every queued frame is
        settled as a crash casualty.  Inbound connections are then given a
        short idle window so frames already buffered in the kernel are
        *consumed and settled* (not delivered — the node is dead) by
        the frozen dispatch path; without that window their in-flight
        credits would leak and the cluster could never quiesce again.
        """
        if self.detector is not None:
            await self.detector.stop()
            self.detector = None
        lost: list[_OutItem] = []
        for outbox in self._outboxes.values():
            lost.extend(outbox.abort())
        self._outboxes.clear()
        for item in lost:
            if item.weight:
                self.cluster.frame_lost(
                    f"queued at crashed node {self.node.ident}", item.labels
                )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 0.6
        quiet = 0.06
        while loop.time() < deadline:
            if loop.time() - self._last_inbound >= quiet:
                break
            await asyncio.sleep(0.02)
        await self.stop_server()

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def _enqueue(
        self,
        target_ident: int,
        frame,
        labels: tuple[str, ...],
        weight: int,
        fallback: bool = False,
    ) -> None:
        """The one way onto an outbox: address check, lazy outbox
        creation, send-window shed, encode, append.  Never blocks."""
        if target_ident not in self.book:
            self.cluster.frame_failed(
                NetworkError(
                    f"peer {self.node.ident} has no address for "
                    f"{target_ident} in its book"
                ),
                labels,
            )
            return
        outbox = self._outboxes.get(target_ident)
        if outbox is None:
            outbox = _Outbox(self, target_ident)
            self._outboxes[target_ident] = outbox
        window = self.cluster.net_config.send_window
        kind = type(frame)
        if kind in _SHEDDABLE and window > 0 and len(outbox.pending) >= window:
            # Bounded backpressure: a saturated peer sheds instead of
            # buffering without bound; the lease refresh re-creates
            # whatever the shed frames would have built.
            self.frames_shed += 1
            self.cluster.frame_failed(
                NetworkError(
                    f"send window to peer {target_ident} full "
                    f"({window} frames); shed "
                    f"{labels[0] if labels else 'control'}"
                ),
                labels,
            )
            return
        if weight:  # weightless beacons are not traffic
            self.frames_sent += 1
        data = frame.data if kind is _RawFrame else encode_frame(frame)
        outbox.put(_OutItem(frame, data, weight, labels, fallback))

    def post(
        self, target_ident: int, frame, *, weight: int, fallback: bool = False
    ) -> None:
        """Queue a frame for ``target_ident``; never blocks the caller."""
        self._enqueue(
            target_ident, frame, _frame_labels(frame, weight), weight, fallback
        )

    def post_raw(
        self,
        target_ident: int,
        data: bytes,
        labels: tuple[str, ...],
        weight: int,
    ) -> None:
        """Queue pre-encoded wire bytes (the raw-relay fast path).

        ``data`` is the original frame as read off the inbound socket,
        hop counter already bumped, so :func:`encode_frame` is skipped
        entirely.  ``labels``/``weight`` carry the same settlement
        accounting the decoded path would have derived from the frame
        (one label per delivery the frame still owes).
        """
        self._enqueue(target_ident, _RawFrame(data), labels, weight)

    def post_heartbeat(self, target_ident: int) -> None:
        """Queue a weightless liveness beacon (single attempt, no retry)."""
        if self.crashed or target_ident not in self.book:
            return
        self._enqueue(target_ident, Heartbeat(sender=self.node.ident), (), 0)

    def reset_connection(self, target_ident: int) -> None:
        """Drop the pooled connection to one peer (its backlog survives)."""
        outbox = self._outboxes.get(target_ident)
        if outbox is not None:
            outbox.reset()

    def note_send_success(self, target_ident: int) -> None:
        if self.detector is not None:
            self.detector.note_alive(target_ident)

    def note_send_failure(self, target_ident: int) -> None:
        if self.detector is not None:
            self.detector.note_failure(target_ident)

    def _exhausted(self, target_ident: int, item: _OutItem, attempts: int) -> bool:
        """All write attempts to one peer failed; fall back (True) or
        give up (False).

        Mirrors the simulator Router: a routed frame gets one shot at
        the target's ring successor (the node that owns, or will own
        after stabilization, the dead target's range — and, for a
        merely *suspected* target, a relay that can usually still reach
        it).  Direct and control frames have no overlay fallback.
        """
        label = item.labels[0] if item.labels else "control"
        if not item.fallback:
            frame = item.frame
            if type(frame) is _RawFrame:
                frame = frame.materialize()
            alternative = self.cluster.fallback_ident(frame, target_ident)
            if alternative is not None and alternative != target_ident:
                self.cluster.stats.record_retry(label)
                if alternative == self.node.ident:
                    self._accept_fallback(frame)
                else:
                    self.post(
                        alternative, frame, weight=item.weight,
                        fallback=True,
                    )
                return True
        self.cluster.frame_failed(
            DeliveryError(label, target_ident, attempts), item.labels
        )
        return False

    def _accept_fallback(self, frame) -> None:
        """This peer itself is the fallback owner; dispatch locally."""
        kind = type(frame)
        if kind is RouteFrame:
            self.route(frame)
        elif kind is MultiFrame:
            self.route_multi(frame)
        elif kind is DirectFrame:
            self.handle_delivery(frame.message)

    # ------------------------------------------------------------------
    # Routing (one forwarding step per peer, as the protocol prescribes)
    # ------------------------------------------------------------------
    def _next_hop(self, ident: int) -> "ChordNode":
        """The simulator router's forwarding rule, one step at a time.

        While the ring is exact the step is read off the ring snapshot
        (hop-identical to the finger scan, DESIGN.md §14); a ring under
        churn has no snapshot and scans the node's fingers.  A hop the
        failure detector currently suspects is treated like a dead
        finger (fall back to the successor) — the same rule the
        simulator Router applies to ``not next_hop.alive``.
        """
        node = self.node
        successor = node.successor
        if successor is node:
            return node
        low = node.ident
        size = node.space.size
        if low == successor.ident or 0 < (ident - low) % size <= (
            successor.ident - low
        ) % size:
            return successor
        network = self.cluster.network
        snapshot = network.snapshot
        if snapshot is None:
            next_hop = node.closest_preceding_finger(ident)
        else:
            next_hop = network.node_at(
                snapshot.idents[
                    snapshot.closest_preceding_finger_pos(
                        snapshot.position(low), ident
                    )
                ]
            )
        detector = self.detector
        if (
            next_hop is node
            or not next_hop.alive
            or (detector is not None and detector.is_suspect(next_hop.ident))
        ):
            next_hop = successor
        return next_hop

    def _relay_raw(self, header: bytes, payload: bytes) -> bool:
        """Forward a routed frame without ever decoding its messages.

        The zero-copy-ish half of :meth:`route` and
        :meth:`route_multi`: when this node is a pure relay — it owns
        neither a RouteFrame's target nor any of a MultiFrame's pair
        targets — the only field the protocol rewrites is the hop
        counter, so the original wire bytes are shipped onward with the
        trailing varint bumped in place — no payload decode, no
        re-encode, no second allocation of the message trees.  Returns
        False whenever the slow path must run instead: the structural
        peek failed, this node owns a target (local delivery), the
        hop bound is exceeded (the decoded path raises the proper
        RoutingError), or chaos is installed (fault injection reasons
        about decoded frames, so soaks keep the seed semantics).
        Raises :class:`CodecError` — before anything is delivered — when
        a message this node owns does not decode.
        """
        cluster = self.cluster
        if cluster.chaos is not None or self.crashed:
            return False
        tag = payload[0] if payload else 0
        if tag == TAG_ROUTE_FRAME:
            peeked = peek_route(payload)
            if peeked is None:
                return False
            target_ident, message_tag, hops = peeked
            if self.node.owns(target_ident):
                return False
            if hops >= cluster.max_hops:
                return False
            data = bump_route_hops(header, payload)
            if data is None:  # pragma: no cover - peek already bounds hops
                return False
            mtype = MESSAGE_TYPE_BY_TAG.get(message_tag, "message")
            cluster.stats.record_hops(mtype, 1)
            if PERF.enabled:
                PERF.count("net.frames_relayed_raw")
            self.post_raw(
                self._next_hop(target_ident).ident, data, (mtype,), 1
            )
            return True
        if tag == TAG_MULTI_FRAME:
            peeked_multi = peek_multi(payload)
            if peeked_multi is None:
                return False
            idents, message_tags, message_starts, pair_starts, hops = (
                peeked_multi
            )
            owns = self.node.owns
            owned: list[int] = []
            keep: list[int] = []
            for i, ident in enumerate(idents):
                (owned if owns(ident) else keep).append(i)
            if keep and hops >= cluster.max_hops + 2 * len(idents):
                # Sweep bound exceeded: the decoded path delivers the
                # owned pairs and raises the proper RoutingError for
                # the remainder.
                return False
            if not owned:
                # Pure relay: original bytes onward, hop byte bumped.
                data = bump_route_hops(header, payload)
                if data is None:  # pragma: no cover - peek bounds hops
                    return False
                if PERF.enabled:
                    PERF.count("net.frames_relayed_raw")
            else:
                # Delivering hop: materialize ONLY the owned messages;
                # the rest of the sweep travels on as verbatim slices,
                # so across a whole sweep each pair's message is
                # decoded exactly once — at its owner.  All of them are
                # decoded (each must end where the structural walk said
                # its pair ends) before any is delivered: a corrupt
                # frame raises CodecError with nothing handled.
                last = len(pair_starts) - 1
                tail = len(payload) - 2
                messages = [
                    decode_frame_payload(
                        payload,
                        message_starts[i],
                        pair_starts[i + 1] if i < last else tail,
                    )
                    for i in owned
                ]
                for message in messages:
                    self.handle_delivery(message)
                if not keep:
                    return True
                data = frame_for_payload(
                    splice_multi(payload, pair_starts, keep, hops)
                )
                if PERF.enabled:
                    PERF.count("net.frames_spliced")
            labels = tuple(
                MESSAGE_TYPE_BY_TAG.get(message_tags[i], "message")
                for i in keep
            )
            cluster.stats.record_hops("multisend", 1)
            self.post_raw(
                self._next_hop(idents[keep[0]]).ident, data, labels, len(keep)
            )
            return True
        return False

    def route(self, frame: RouteFrame) -> None:
        """Deliver or forward a ``send()`` frame."""
        if self.node.owns(frame.target_ident):
            self.handle_delivery(frame.message)
            return
        if frame.hops >= self.cluster.max_hops:
            self.cluster.frame_failed(
                RoutingError(
                    f"frame for {frame.target_ident} exceeded "
                    f"{self.cluster.max_hops} hops"
                ),
                (frame.message.type,),
            )
            return
        self.cluster.stats.record_hops(frame.message.type, 1)
        self.post(
            self._next_hop(frame.target_ident).ident,
            RouteFrame(frame.target_ident, frame.message, frame.hops + 1),
            weight=1,
        )

    def route_multi(self, frame: MultiFrame) -> None:
        """One step of the clockwise multisend sweep (Section 2.3):
        deliver the pairs this node owns, forward the remainder."""
        remaining = []
        for ident, message in frame.pairs:
            if self.node.owns(ident):
                self.handle_delivery(message)
            else:
                remaining.append((ident, message))
        if not remaining:
            return
        # The sweep visits every owner once, so the bound scales with
        # the batch on top of the single-target routing bound.
        if frame.hops >= self.cluster.max_hops + 2 * len(frame.pairs):
            self.cluster.frame_failed(
                RoutingError(
                    f"multisend sweep of {len(frame.pairs)} pairs exceeded "
                    f"its hop bound"
                ),
                tuple(message.type for _, message in remaining),
            )
            return
        self.cluster.stats.record_hops("multisend", 1)
        self.post(
            self._next_hop(remaining[0][0]).ident,
            MultiFrame(tuple(remaining), frame.hops + 1),
            weight=len(remaining),
        )

    def handle_delivery(self, message: Message) -> None:
        """Run the node's synchronous handler; always settle the counter."""
        try:
            self.node.deliver(message)
        except Exception as exc:  # surfaced by the next drain()
            self.cluster.handler_failed(exc)
        finally:
            self.cluster.in_flight.dec(message.type, 1, message.causal_time)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    def _dispatch(self, frame, transport: asyncio.Transport) -> None:
        kind = type(frame)
        if kind is Heartbeat:
            if self.detector is not None:
                self.detector.note_alive(frame.sender)
            return
        if self.crashed:
            self._settle_lost(frame)
            return
        if kind is RouteFrame:
            self.route(frame)
        elif kind is MultiFrame:
            self.route_multi(frame)
        elif kind is DirectFrame:
            self.handle_delivery(frame.message)
        elif kind is JoinRequest:
            transport.write(encode_frame(self.admit(frame.info)))
        elif kind is MemberUpdate:
            for info in frame.members:
                old = self.book.get(info.ident)
                self.book[info.ident] = info
                if old is not None and old != info:
                    # The peer moved (crash/restart): drop the stale
                    # pooled connection so the next write dials the
                    # fresh address.
                    self.reset_connection(info.ident)
            self.cluster.in_flight.dec("control")
        else:
            self.cluster.handler_failed(
                CodecError(f"unexpected top-level frame {kind.__name__}")
            )

    def _settle_lost(self, frame) -> None:
        """A frame reached this peer after it crashed: it dies here.

        Its in-flight credits are settled (so the cluster can quiesce)
        and the loss is recorded; the soft-state lease refresh is what
        brings the data back, exactly as in the simulator's recovery
        model.
        """
        kind = type(frame)
        if kind is MemberUpdate:
            self.cluster.in_flight.dec("control")
            return
        if kind is JoinRequest or kind is JoinReply:
            return
        weight = 1
        if kind is MultiFrame:
            weight = len(frame.pairs)
        self.cluster.frame_lost(
            f"delivered to crashed node {self.node.ident}",
            _frame_labels(frame, weight),
        )

    def admit(self, info: PeerInfo) -> JoinReply:
        """Bootstrap-side join: register the newcomer, reply with the
        membership, and fan a :class:`MemberUpdate` out to the peers
        that joined earlier so every address book converges.  A
        *returning* peer (same ident, new address after a crash) is
        fanned out too, overwriting the stale address everywhere."""
        changed = self.book.get(info.ident) != info
        self.book[info.ident] = info
        if changed:
            update = MemberUpdate(members=(info,))
            for member_ident in list(self.book):
                if member_ident in (info.ident, self.node.ident):
                    continue
                if self.cluster.is_dead(member_ident):
                    continue
                self.cluster.in_flight.inc("control")
                self.post(member_ident, update, weight=1)
        return JoinReply(
            members=tuple(self.book[ident] for ident in sorted(self.book))
        )


class SocketTransport(Transport):
    """:class:`~repro.transport.Transport` over live :class:`NetPeer` s."""

    def __init__(self, cluster: "LiveCluster"):
        self.cluster = cluster
        self.ledger = cluster.in_flight.ledger

    # -- Transport API -------------------------------------------------
    def send(self, source: "ChordNode", message: Message, ident: int) -> "ChordNode":
        cluster = self.cluster
        owner = cluster.network.responsible_node(ident)
        cluster.stats.record(message.type, 0)  # hops billed per forward
        cluster.in_flight.inc(message.type, 1, message.causal_time)
        cluster.peer_for(source).route(RouteFrame(target_ident=ident, message=message))
        return owner

    def send_direct(
        self, source: "ChordNode", message: Message, target: "ChordNode"
    ) -> None:
        cluster = self.cluster
        cluster.stats.record(message.type, 0 if source is target else 1)
        cluster.in_flight.inc(message.type, 1, message.causal_time)
        peer = cluster.peer_for(source)
        if target is source:
            peer.handle_delivery(message)
        else:
            peer.post(target.ident, DirectFrame(message=message), weight=1)

    def multisend(
        self,
        source: "ChordNode",
        messages: Sequence[Message] | Message,
        idents: Sequence[int],
        *,
        recursive: bool = True,
    ) -> list["ChordNode"]:
        cluster = self.cluster
        message_list = Router._pair_messages(messages, idents)
        owners = [cluster.network.responsible_node(ident) for ident in idents]
        if not idents:
            return owners
        if not recursive:
            for message, ident in zip(message_list, idents):
                self.send(source, message, ident)
            return owners
        size = cluster.network.space.size
        start = source.ident
        pairs = tuple(
            sorted(
                zip(idents, message_list),
                key=lambda pair: (pair[0] - start) % size,
            )
        )
        counts: dict[tuple, int] = {}
        for key in [(message.type, message.causal_time) for message in message_list]:
            counts[key] = counts.get(key, 0) + 1
        for (message_type, time), count in counts.items():
            cluster.stats.record_batch(message_type, count, 0)
            cluster.in_flight.inc(message_type, count, time)
        cluster.peer_for(source).route_multi(MultiFrame(pairs=pairs))
        return owners

    def lookup(
        self, origin: "ChordNode", ident: int, *, account: str = "lookup"
    ) -> "ChordNode":
        """A local finger-table walk via the in-process router.

        Rate probes (Section 4.3.6) read the probed node's arrival
        statistics in place, as in the simulator; a wire request/reply
        probe is future work (DESIGN.md §11).
        """
        return self.cluster.network.router.lookup(origin, ident, account=account)
