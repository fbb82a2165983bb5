"""DAI-Q — notifications are created when rewritten *queries* arrive
(Section 4.4.2).

An evaluator receiving a rewritten query evaluates it against the
locally stored tuples and creates the notifications, but does **not**
store the rewritten query; an arriving tuple is stored but triggers
nothing.  This breaks the duplicate-notification symmetry of
double-attribute indexing: for any tuple pair, exactly the *later*
tuple's attribute-level trigger produces the notification.  That tuple
is the one published later, whatever order the two land in (DESIGN.md
§13): a rewritten query pairs only with tuples published no later than
its trigger, and is held while an older tuple may still land.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sql.expr import canonical_value
from ..chord.node import ChordNode
from ..sim.messages import JoinMessage, VLIndexMessage
from .base import dis_key
from .dai_base import DoubleAttributeIndex
from .tables import StoredTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


class DAIQuery(DoubleAttributeIndex):
    """The DAI-Q algorithm."""

    name = "dai-q"
    supports_t2 = False
    indexes_tuples_at_value_level = True
    orders_pairs = True

    def on_join(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: JoinMessage
    ) -> None:
        """Evaluate against stored tuples; hold, never store, the queries."""
        state = engine.state(node)
        state.load.messages_processed += 1
        notifications = []
        for record in msg.rewritten:
            notifications.extend(
                self._match_rewritten_against_tuples(engine, state, record)
            )
        engine.hold(state, msg.causal_time, ((dis_key(r), r) for r in msg.rewritten))
        engine.deliver_notifications(node, notifications)

    def on_vl_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: VLIndexMessage
    ) -> None:
        """Store the tuple so it is available when rewritten queries
        arrive; match it only against held queries triggered after it
        (the others are answered by the other rewriter).  Republished
        tuples (``msg.refresh``) are stored only when missing."""
        state = engine.state(node)
        state.load.messages_processed += 1
        tup, attribute = msg.tuple, msg.index_attribute
        if msg.refresh and state.vltt.contains(tup, attribute):
            return
        value = tup.value(attribute)
        ident = engine.network.hash.hash_parts(
            tup.relation.name, attribute, canonical_value(value)
        )
        state.vltt.add(StoredTuple(tup, attribute, ident))
        if state.held:
            notifications = []
            key = (tup.relation.name, attribute, value)
            for record in engine.held(state, key, tup.pub_time):
                notifications.extend(
                    self._match_rewritten_against_tuples(engine, state, record, [tup])
                )
            engine.deliver_notifications(node, notifications)
