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
this reconstruction choice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..chord.node import ChordNode
from ..sim.messages import JoinMessage, VLIndexMessage
from .dai_base import DoubleAttributeIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


class DAITuple(DoubleAttributeIndex):
    """The DAI-T algorithm."""

    name = "dai-t"
    supports_t2 = False
    indexes_tuples_at_value_level = True

    def remembers_sent_keys(self, engine: "ContinuousQueryEngine") -> bool:
        return engine.config.window is None

    def on_join(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: JoinMessage
    ) -> None:
        """Store (or time-refresh) every member's rewritten query; no
        evaluation — stored tuples do not exist under DAI-T."""
        state = engine.state(node)
        state.load.messages_processed += 1
        # Batches are grouped per evaluator identifier (§4.3.5), so every
        # record in the message shares the same ident.
        ident = None
        for record in msg.rewritten:
            if ident is None:
                ident = self.evaluator_ident(engine, record)
            state.vlqt.add(record, ident)

    def on_vl_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: VLIndexMessage
    ) -> None:
        """Match the tuple against stored rewritten queries; do not
        store the tuple."""
        state = engine.state(node)
        state.load.messages_processed += 1
        notifications = self._match_tuple_against_rewritten(
            engine, state, msg.tuple, msg.index_attribute
        )
        engine.deliver_notifications(node, notifications)
