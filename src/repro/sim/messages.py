"""Overlay message types exchanged by the query-processing protocols.

The paper names five application messages:

* ``query(q, Id(n), IP(n))`` — index a continuous query at a rewriter
  (Section 4.3.1);
* ``al-index(t, A)`` — index tuple ``t`` at the *attribute level* using
  attribute ``A`` (Section 4.2);
* ``vl-index(t, A)`` — index tuple ``t`` at the *value level*;
* ``join(q')`` — reindex a rewritten query at an evaluator (Section
  4.3.2); batched when grouping applies (Section 4.3.5);
* notifications delivered back to subscribers (Section 4.6).

Messages are plain immutable records; the routing layer only looks at
``type`` for accounting.  All message classes are slotted
(``slots=True``): large runs allocate hundreds of thousands of them,
and slots cut both per-instance memory and attribute-access time.

Payload fields (the query of a ``query`` message, the tuple of the
index messages) are **required** — there is deliberately no ``None``
default.  The wire codec (:mod:`repro.net.codec`) reconstructs these
records field by field, and a defaulted payload would let a malformed
frame decode into a half-initialized message that only explodes later,
deep inside a handler on some other peer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sql.query import JoinQuery, RewrittenGroup
    from ..sql.tuples import DataTuple


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for all overlay messages."""

    type: ClassVar[str] = "message"

    #: ``pubT`` of the publish an index or join message descends from,
    #: which in-flight ledgers key credits on (``None`` for the rest).
    causal_time = property(lambda self: None)


@dataclass(frozen=True, slots=True)
class QueryIndexMessage(Message):
    """``query(q, Id(n), IP(n))`` — store ``q`` at a rewriter node.

    ``index_attribute`` names which join attribute this copy of the
    query is indexed under (relevant for the DAI algorithms where the
    same query is indexed twice, once per join attribute).
    """

    type: ClassVar[str] = "query"
    query: "JoinQuery"
    index_side: str = "left"
    #: The identifier this copy was addressed to (one per replica);
    #: stored with the query so key handoff on churn can find it.
    routing_ident: int = 0
    #: True for soft-state lease renewals: the rewriter deduplicates
    #: against its ALQT and counts an actual re-install as recovery.
    refresh: bool = False


@dataclass(frozen=True, slots=True)
class ALIndexMessage(Message):
    """``al-index(t, A)`` — tuple arriving at the attribute level."""

    type: ClassVar[str] = "al-index"
    tuple: "DataTuple"
    index_attribute: str
    #: True when the tuple is republished during crash recovery: the
    #: rewriter then skips arrival-rate accounting and bypasses the
    #: DAI-T never-resend memory so lost evaluator state is rebuilt.
    refresh: bool = False
    causal_time = property(lambda self: self.tuple.pub_time)


@dataclass(frozen=True, slots=True)
class VLIndexMessage(Message):
    """``vl-index(t, A)`` — tuple arriving at the value level."""

    type: ClassVar[str] = "vl-index"
    tuple: "DataTuple"
    index_attribute: str
    #: True for crash-recovery republication: evaluators skip storing
    #: tuples they already hold (matching still runs).
    refresh: bool = False
    causal_time = property(lambda self: self.tuple.pub_time)


@dataclass(frozen=True, slots=True)
class JoinMessage(Message):
    """``join(q'_1 .. q'_k)`` — rewritten queries bound for one evaluator.

    Grouping (Section 4.3.5) lets a rewriter ship every rewritten query
    that shares the same evaluator in a single message: the payload is
    one :class:`~repro.sql.query.RewrittenGroup` record per triggered
    query group, each covering all its member queries.  For DAI-V the
    projected triggering tuple rides along (Section 4.5:
    ``join(q'_L, t'_1)``).
    """

    type: ClassVar[str] = "join"
    rewritten: tuple["RewrittenGroup", ...] = field(default_factory=tuple)
    #: DAI-V only: the projected trigger tuple per group record,
    #: aligned with ``rewritten`` (empty for the other algorithms).
    projections: tuple[Any, ...] = field(default_factory=tuple)
    # One al-index triggers every record of a batch.
    causal_time = property(
        lambda self: self.rewritten[0].trigger_pub_time if self.rewritten else None
    )


@dataclass(frozen=True, slots=True)
class NotificationMessage(Message):
    """A batch of notifications for one subscriber (Section 4.6)."""

    type: ClassVar[str] = "notification"
    notifications: tuple[Any, ...] = field(default_factory=tuple)
    subscriber_ident: int = 0


@dataclass(frozen=True, slots=True)
class UnsubscribeMessage(Message):
    """Remove every copy of a query from a rewriter's ALQT."""

    type: ClassVar[str] = "unsubscribe"
    query_key: str = ""


@dataclass(frozen=True, slots=True)
class RateProbeMessage(Message):
    """Ask a (candidate) rewriter for its observed tuple-arrival rate.

    Used by the SAI index-attribute selection strategies (Section
    4.3.6): "any node can simply ask the two possible rewriter nodes
    before indexing a query for the rate that tuples arrive".
    """

    type: ClassVar[str] = "rate-probe"
    relation: str = ""
    attribute: str = ""
    reply_box: list = field(default_factory=list, hash=False, compare=False)
