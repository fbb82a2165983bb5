"""DAI-T — notifications are created when *tuples* arrive (Section 4.4.3).

Evaluators store rewritten queries (VLQT) and match arriving tuples
against them; tuples themselves are never stored at the value level.
Because stored rewritten queries persist, a rewriter "does not need to
reindex the same rewritten query more than once": once the rewritten
queries for an input query have been spread over their evaluators, new
tuples create notifications with *no* messages beyond their own
indexing — "a huge performance gain for DAI-T".

The never-resend optimization is only sound with an unbounded window:
under sliding-window semantics an evaluator entry must have its time
refreshed by every new trigger or later pairs are lost, so when a
window is configured the rewriter resends (the evaluator then collapses
the copies by key and refreshes the entry's time).  DESIGN.md discusses
this reconstruction choice.  Arrival order is handled as DAI-Q's mirror
image (DESIGN.md §13): a tuple pairs only with rewritten queries first
triggered no later than it, and is held while an older one may land.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..chord.node import ChordNode
from ..sim.messages import JoinMessage, VLIndexMessage
from .base import dis_key
from .dai_base import DoubleAttributeIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


class DAITuple(DoubleAttributeIndex):
    """The DAI-T algorithm."""

    name = "dai-t"
    supports_t2 = False
    indexes_tuples_at_value_level = True
    orders_pairs = True

    def remembers_sent_keys(self, engine: "ContinuousQueryEngine") -> bool:
        return engine.config.window is None

    def on_join(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: JoinMessage
    ) -> None:
        """Store (or time-refresh) every member's rewritten query; what
        is newly stored meets the held tuples published after it."""
        state = engine.state(node)
        state.load.messages_processed += 1
        notifications = []
        # Batches are grouped per evaluator identifier (§4.3.5), so every
        # record in the message shares the same ident.
        ident = None
        for record in msg.rewritten:
            if ident is None:
                ident = self.evaluator_ident(engine, record)
            stored = state.vlqt.add(record, ident)
            if stored is not None and state.held:
                tuples = engine.held(state, dis_key(record), record.trigger_pub_time)
                if tuples:
                    notifications += self._match_rewritten_against_tuples(
                        engine, state, stored, tuples
                    )
        if notifications:
            engine.deliver_notifications(node, notifications)

    def on_vl_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: VLIndexMessage
    ) -> None:
        """Match the tuple against stored rewritten queries; do not
        store the tuple (hold it while older queries may still land)."""
        state = engine.state(node)
        state.load.messages_processed += 1
        tup, attr = msg.tuple, msg.index_attribute
        notifications = self._match_tuple_against_rewritten(engine, state, tup, attr)
        key = (tup.relation.name, attr, tup.value(attr))
        engine.hold(state, tup.pub_time, ((key, tup),))
        engine.deliver_notifications(node, notifications)
