"""The Transport seam: one message-passing interface, two substrates.

The query-processing algorithms (Chapter 4) are specified purely in
terms of the extended Chord API of Section 2.3 — ``send(msg, I)``,
``multisend(msg/M, L)`` plus one-hop IP delivery for notifications —
and never care *how* a message reaches ``Successor(I)``.  This module
pins that contract down as an abstract :class:`Transport` so the engine
and the core algorithms run unchanged over either substrate:

* :class:`~repro.chord.routing.Router` — the discrete-event simulator's
  implementation: routing and delivery are synchronous in-process
  calls, every finger-table step is billed as one overlay hop, and the
  optional :class:`~repro.faults.injector.FaultInjector` perturbs the
  final delivery;
* :class:`~repro.net.peer.SocketTransport` — the live implementation:
  the same greedy finger-table forwarding, but every hop is a framed,
  codec-encoded message over a real asyncio TCP connection between
  peer servers (see :mod:`repro.net`).

Algorithms obtain the active transport through
``engine.transport`` (which resolves to ``network.transport``); a
:class:`~repro.chord.network.ChordNetwork` starts out with its router
installed, and :meth:`ChordNetwork.use_transport` swaps in a live one.

Contract notes (normative for implementations):

* ``send`` delivers to ``Successor(ident)`` and returns the recipient
  node; on a stable ring that is the oracle successor.
* ``send_direct`` models one point-to-point IP message to a node whose
  address is already known (notification delivery, JFRT hits); it
  costs one hop (zero when ``source is target``) and is never routed.
* ``multisend`` accepts one message for all identifiers or one message
  per identifier, and returns the recipient per identifier in input
  order.  The recursive variant sweeps the ring clockwise once.
* ``lookup`` resolves ``Successor(ident)`` *without* delivering
  anything, billing its hops to ``account`` (rate probes, §4.3.6).
* Messages must stay semantically immutable in transit: a transport
  may serialize and reconstruct them (the socket transport does), so
  handlers cannot rely on object identity with the sender's copy.

Failure and backpressure semantics (live transports):

* The send methods are synchronous and cannot raise for asynchronous
  delivery failure.  A live transport accounts every posted delivery
  in a cluster-wide in-flight credit ledger and settles it exactly
  once — on handler completion, on retry exhaustion (a typed
  :class:`~repro.errors.DeliveryError` surfaces at the next drain), or
  as an expected casualty of an injected crash.  Work *sources* gate
  on the ledger's credit budget between events; handler cascades never
  block on it.
* Failed attempts are retried with jittered exponential backoff and
  automatic reconnection; a peer suspected dead by the failure
  detector is routed around via ring successors until a probe revives
  it.  Injected wire faults (see :mod:`repro.net.chaos`) are always
  decided before an attempt's clean bytes are written, so retries can
  never duplicate a delivery.

Arrival order (DESIGN.md §13): a DAI-Q/DAI-T value node holds an arriving
half against :meth:`Transport.low_watermark`; a causal transport (serial
router, staged executor) answers ``inf``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import Counter
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chord.node import ChordNode
    from .sim.messages import Message


class PublishLedger(Counter):
    """In-flight deliveries per publish (``Message.causal_time``);
    ``listener`` runs whenever a publish's last credit settles or the
    ledger is cleared — whenever the low watermark may have moved."""

    listener: Optional[Callable[[], None]] = None

    def settle(self, time: float, n: int = 1) -> None:
        if time not in self:
            return  # cleared with the credits a lost frame never settled
        self[time] -= n
        if self[time] <= 0:
            del self[time]
            if self.listener is not None:
                self.listener()

    def clear(self) -> None:
        super().clear()
        if self.listener is not None:
            self.listener()

    def low_watermark(self) -> float:
        """The oldest publish still holding credit (``inf``: none)."""
        return min(self, default=math.inf)


class Transport(ABC):
    """Abstract message transport implementing the Section 2.3 API."""

    #: Publishes with messages in flight; ``None`` while delivery is causal.
    ledger: Optional[PublishLedger] = None

    def low_watermark(self) -> float:
        """``pub_time`` of the oldest publish whose index or join messages
        may still arrive; ``inf`` when none can."""
        return math.inf if self.ledger is None else self.ledger.low_watermark()

    @abstractmethod
    def send(
        self, source: "ChordNode", message: "Message", ident: int
    ) -> "ChordNode":
        """Deliver ``message`` to ``Successor(ident)``; return the recipient."""

    @abstractmethod
    def send_direct(
        self, source: "ChordNode", message: "Message", target: "ChordNode"
    ) -> None:
        """One-hop delivery to a node whose address is already known."""

    @abstractmethod
    def multisend(
        self,
        source: "ChordNode",
        messages: "Sequence[Message] | Message",
        idents: Sequence[int],
        *,
        recursive: bool = True,
    ) -> list["ChordNode"]:
        """Deliver ``messages[j]`` to ``Successor(idents[j])`` for all j."""

    @abstractmethod
    def lookup(
        self, origin: "ChordNode", ident: int, *, account: str = "lookup"
    ) -> "ChordNode":
        """Resolve ``Successor(ident)`` without delivering a message."""
