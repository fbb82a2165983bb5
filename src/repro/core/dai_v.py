"""DAI-V — value-based double-attribute indexing (Section 4.5).

Designed for type-T2 queries (arbitrary expressions in the join
condition), and covering T1 as well.  The evaluator identifier is the
hash of the *value* the triggered side of the join condition takes:
``VIndex(q'_L) = Hash(str(valJC(q_L, t)))`` — no relation or attribute
prefix.  Tuples are indexed at the attribute level **only**; the
rewriter ships a projection of the trigger tuple together with the
rewritten query (``join(q'_L, t'_1)``), the evaluator matches the
rewritten query against stored projections of the opposite relation,
stores the new projection, and discards the rewritten query.

Because identifiers carry no attribute names, rewritten queries group
very well (less traffic) but all queries sharing a join value land on
the same node (worse load distribution) — the tradeoff Chapter 5
measures.

The ``keyed`` extension prefixes ``Key(q)`` to the value
(``VIndex = Hash(Key(q) + valJC)``): load spreads per query, but
grouping disappears and traffic explodes ("approximately by a factor of
250" in the paper's 10^4-node / 10^5-query setup) — experiment E17.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..chord.node import ChordNode
from ..errors import QueryError
from ..sim.messages import JoinMessage, VLIndexMessage
from ..sql.query import RewrittenGroup
from .dai_base import DoubleAttributeIndex
from .tables import StoredProjection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


class DAIValue(DoubleAttributeIndex):
    """The DAI-V algorithm."""

    name = "dai-v"
    supports_t2 = True
    indexes_tuples_at_value_level = False
    wants_projection = True

    def evaluator_ident(
        self, engine: "ContinuousQueryEngine", record: RewrittenGroup
    ) -> int:
        """``Hash(str(value))`` — or ``Hash(Key(q) + value)`` when keyed
        (records then hold one member, see :meth:`splits_groups`)."""
        if engine.config.daiv_keyed:
            return engine.network.hash.hash_parts(
                record.shape.members[0].query_key, record.required_value
            )
        # ``make_key(v) == str(v)`` for a single part, so the memoized
        # parts lookup computes the same identifier.
        return engine.network.hash.hash_parts(record.required_value)

    def splits_groups(self, engine: "ContinuousQueryEngine") -> bool:
        """Keyed identifiers are per query, so grouping disappears: each
        record is shipped as single-member records."""
        return engine.config.daiv_keyed

    def on_join(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: JoinMessage
    ) -> None:
        """Match each record against stored opposite-relation
        projections, then store this trigger's projection — once per
        record, it is the same for every member.

        The join value is re-checked on every candidate, so identifier
        collisions between different values are harmless.
        """
        state = engine.state(node)
        state.load.messages_processed += 1
        if len(msg.projections) != len(msg.rewritten):
            raise QueryError("DAI-V join message lost its projections")
        notifications = []
        # Batches are grouped per evaluator identifier (§4.3.5), so every
        # record in the message shares the same ident.
        ident = None
        for record, projection in zip(msg.rewritten, msg.projections):
            if ident is None:
                ident = self.evaluator_ident(engine, record)
            notifications.extend(
                self._match_rewritten_against_tuples(engine, state, record)
            )
            state.projections.add(
                StoredProjection(
                    projection=projection,
                    group_signature=record.shape.group_signature,
                    value=record.required_value,
                    routing_ident=ident,
                )
            )
        engine.deliver_notifications(node, notifications)

    def on_vl_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: VLIndexMessage
    ) -> None:  # pragma: no cover - defensive
        raise QueryError("DAI-V does not index tuples at the value level")
