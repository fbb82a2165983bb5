"""SAI — the single-attribute index algorithm (Section 4.3).

A query is indexed under **one** of its two join attributes (the choice
strategy is configurable, Section 4.3.6), so it has exactly one
rewriter.  Evaluators store **both** rewritten queries (VLQT) and
tuples (VLTT):

* a rewritten query arriving at an evaluator is matched against stored
  tuples, then stored so future tuples can trigger it;
* a tuple arriving at the value level is matched against stored
  rewritten queries, then stored — "storing tuples at the value level
  is necessary for the completeness of SAI".

A rewritten query whose key is already stored only refreshes the
stored entry's time information and is *not* re-evaluated ("x need
only store the information related to tuple t"); the identical answer
rows were produced when the first copy arrived.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sql.expr import canonical_value
from ..chord.node import ChordNode
from ..sim.messages import JoinMessage, VLIndexMessage
from ..sql.query import JoinQuery
from .base import Algorithm
from .tables import StoredTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


class SingleAttributeIndex(Algorithm):
    """The SAI algorithm."""

    name = "sai"
    supports_t2 = False
    indexes_tuples_at_value_level = True

    def index_labels(
        self, engine: "ContinuousQueryEngine", origin: ChordNode, query: JoinQuery
    ) -> list[str]:
        """One side, picked by the configured choice strategy."""
        return [engine.index_choice.choose(engine, origin, query)]

    def on_join(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: JoinMessage
    ) -> None:
        """Store each record's members; match the new ones against VLTT.

        A key seen before only refreshes its stored time — unless the
        stored copy had already slid out of the window, in which case
        the arrival behaves like a fresh one (its pairs with recently
        stored tuples have not been produced yet).
        """
        state = engine.state(node)
        state.load.messages_processed += 1
        window = engine.config.window
        notifications = []
        # Batches are grouped per evaluator identifier (§4.3.5), so every
        # record in the message shares the same ident.
        ident = None
        for record in msg.rewritten:
            if ident is None:
                ident = self.evaluator_ident(engine, record)
            unevaluated = state.vlqt.add(record, ident, window)
            if unevaluated is not None:
                notifications.extend(
                    self._match_rewritten_against_tuples(engine, state, unevaluated)
                )
        engine.deliver_notifications(node, notifications)

    def on_vl_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: VLIndexMessage
    ) -> None:
        """Match the tuple against VLQT, then store it in VLTT.

        A crash-recovery republication (``msg.refresh``) still matches —
        the evaluator may have lost its VLQT — but skips the store when
        the identical tuple is already held, so surviving evaluators do
        not inflate their VLTT.
        """
        state = engine.state(node)
        state.load.messages_processed += 1
        notifications = self._match_tuple_against_rewritten(
            engine, state, msg.tuple, msg.index_attribute
        )
        if not (msg.refresh and state.vltt.contains(msg.tuple, msg.index_attribute)):
            ident = engine.network.hash.hash_parts(
                msg.tuple.relation.name,
                msg.index_attribute,
                canonical_value(msg.tuple.value(msg.index_attribute)),
            )
            state.vltt.add(StoredTuple(msg.tuple, msg.index_attribute, ident))
        engine.deliver_notifications(node, notifications)
