"""The per-member rewriter and evaluators, kept as a reference oracle.

Until the group record (DESIGN.md §4.3.5) a rewriter called
``rewrite()`` and ``evaluator_ident()`` once per *member* of a query
group, shipped one flat ``RewrittenQuery`` per member, every evaluator
fetched its candidate bucket once per member and stored one VLQT entry
per member.  That path is gone from ``src/``; this module is its body,
moved here verbatim in behaviour, so ``test_group_rewrite_differential``
can replay random workloads through both and demand identical keys,
batches, load counters and notifications.

:func:`reference_engine` builds an engine whose algorithm is one of the
``Reference*`` classes below and whose nodes keep the per-member VLQT
of :mod:`reference_tables`.  Their ``join()`` messages carry flat
``RewrittenQuery`` tuples (and one projection per query), exactly as
protocol version 1 did.  :class:`RewrittenQuery` and :func:`expand` — a
group record's per-member view — live here too: nothing in ``src/``
reads a rewritten query one member at a time any more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core import engine as engine_module
from repro.core.base import Algorithm
from repro.core.dai_q import DAIQuery
from repro.core.dai_t import DAITuple
from repro.core.dai_v import DAIValue
from repro.core.index_choice import ArrivalStats
from repro.core.sai import SingleAttributeIndex
from repro.core.notifications import Notification
from repro.core.tables import StoredProjection
from repro.errors import QueryError
from repro.sql.expr import (
    AttrRef,
    Const,
    Expression,
    attributes_of,
    canonical_value,
    evaluate,
    substitute,
)
from repro.sql.query import (
    BoundValue,
    GroupMember,
    LocalFilter,
    PendingAttr,
    RewrittenGroup,
    SelectItem,
    Subscriber,
    select_row,
)

from .reference_tables import FlatValueLevelQueryTable, StoredRewritten


# ----------------------------------------------------------------------
# The flat rewritten query: one member of a group record
# ----------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class RewrittenQuery:
    """A select-project query produced by rewriting a join query: one
    member of a :class:`RewrittenGroup`, expanded.

    Slotted and not frozen (a frozen dataclass pays
    ``object.__setattr__`` per field on *every* construction).
    Immutable by convention; identity/equality is always taken on
    ``key`` (Section 4.3.3), never on field-wise comparison.

    Example from Section 4.3.2: triggering
    ``SELECT R.A, S.B FROM R, S WHERE R.C = S.C`` with ``S(3, 4, 7)``
    yields ``SELECT R.A, 4 FROM R WHERE R.C = 7``, reindexed at
    ``Successor(Hash("R" + "C" + "7"))``.
    """

    #: ``Key(q') = Key(q) + v_1 + ... + v_l + valDA`` (Section 4.3.3).
    key: str
    original_key: str
    group_signature: str
    subscriber: Subscriber
    insertion_time: float
    #: The load-distributing relation whose tuples can satisfy this query.
    relation: str
    #: The dis-side join expression (over ``relation``).
    expr: Expression
    #: The value the dis-side *expression* must take (``valJC``).
    required_value: Any
    #: ``DisA``; ``None`` when the dis side is not invertible.
    dis_attribute: Optional[str]
    #: ``valDA``; ``None`` when the dis side is not invertible.
    dis_value: Any
    filters: tuple[LocalFilter, ...]
    select: tuple[SelectItem, ...]
    #: ``pubT`` of the tuple that triggered the rewrite.
    trigger_pub_time: float

    def matches(self, tuple_like, *, check_value: bool = True) -> bool:
        """Does a dis-relation tuple satisfy this rewritten query?

        Checks the local filters, the time semantics
        (``pubT >= insT(q)``) and — unless the caller already guarantees
        it through hash placement — the join-value equality.
        """
        if tuple_like.pub_time < self.insertion_time:
            return False
        if not all(f.holds(tuple_like) for f in self.filters):
            return False
        if not check_value:
            return True
        try:
            return evaluate(self.expr, tuple_like) == self.required_value
        except QueryError:
            return False

    def result_row(self, tuple_like) -> tuple[Any, ...]:
        """Materialize the notification row from a matching tuple."""
        return select_row(self.select, tuple_like)

    @property
    def needed_attributes(self) -> tuple[str, ...]:
        """Dis-relation attributes required to evaluate and project:
        select attributes still pending, the join-expression attributes,
        and filter attributes."""
        needed = {item.attribute for item in self.select if isinstance(item, PendingAttr)}
        needed.update(ref.attribute for ref in attributes_of(self.expr))
        needed.update(f.attribute for f in self.filters)
        return tuple(sorted(needed))


def expand(record: RewrittenGroup, member: GroupMember) -> RewrittenQuery:
    """The flat per-subscriber query of one member of ``record``."""
    index = member.select_index
    query_key = member.query_key
    shape = record.shape
    return RewrittenQuery(
        query_key + record.suffixes[index], query_key,
        shape.group_signature, member.subscriber, member.insertion_time,
        shape.relation, shape.expr, record.required_value, shape.dis_attribute,
        record.dis_value, shape.filters, record.selects[index], record.trigger_pub_time,
    )


def member_keys(record: RewrittenGroup) -> tuple[str, ...]:
    """The rewritten key of every member of ``record``, in member order."""
    suffixes = record.suffixes
    return tuple(m.query_key + suffixes[m.select_index] for m in record.shape.members)


def side_needed_attributes(query, label: str) -> tuple[str, ...]:
    """The attributes a DAI-V projection of side ``label`` must carry:
    select attributes of the side's relation, its join-expression
    attributes and its filter attributes (sorted)."""
    side = query.side(label)
    needed = {ref.attribute for ref in query.select if ref.relation == side.relation}
    needed.update(ref.attribute for ref in attributes_of(side.expr))
    needed.update(f.attribute for f in side.filters)
    return tuple(sorted(needed))


def reference_sent_keys(group) -> set[str]:
    """The per-key never-resend memory (DAI-T, Section 4.4.3) the
    reference keeps on a rewriter's group: full rewritten keys."""
    return group.__dict__.setdefault("reference_sent_keys", set())


def sent_keys(group) -> list[str]:
    """What a group's rewriter will never resend, as sorted rewritten
    keys: the reference's per-key memory or the shipped per-suffix one
    (``group.sent``) spelled out — a group only ever fills one of them."""
    shipped = {
        query_key + suffix
        for suffix, query_keys in group.sent.items()
        for query_key in query_keys
    }
    return sorted(shipped | reference_sent_keys(group))


# ----------------------------------------------------------------------
# rewrite(): one flat RewrittenQuery per (query, trigger)
# ----------------------------------------------------------------------

def reference_rewrite(query, index_label: str, trigger) -> RewrittenQuery:
    """Section 4.3.2 for one query, with nothing shared or precomputed."""
    index_side = query.side(index_label)
    dis_side = query.side(query.other_label(index_label))
    if trigger.relation.name != index_side.relation:
        raise QueryError(
            f"tuple of {trigger.relation.name} cannot trigger side "
            f"{index_label} ({index_side.relation}) of query {query.key!r}"
        )
    if type(index_side.expr) is AttrRef:
        value = trigger.value(index_side.expr.attribute)
        required_value = value if type(value) is int else canonical_value(value)
    else:
        substituted = substitute(index_side.expr, index_side.relation, trigger)
        if not isinstance(substituted, Const):
            raise QueryError(f"{index_side.expr} did not fold for {trigger}")
        required_value = canonical_value(substituted.value)

    dis_attribute = dis_side.invertible_attribute
    form = dis_side._linear_form
    if dis_attribute is None:
        dis_value = None
    elif form[1] == 1 and form[2] == 0:
        dis_value = required_value
    else:
        dis_value = canonical_value((required_value - form[2]) / form[1])

    select_items = []
    key_parts = [query.key]
    for ref in query.select:
        if ref.relation == index_side.relation:
            value = trigger.value(ref.attribute)
            select_items.append(BoundValue(value))
            key_parts.append(str(value))
        else:
            select_items.append(PendingAttr(ref.attribute))
    key_parts.append(str(required_value))

    return RewrittenQuery(
        key="+".join(key_parts),
        original_key=query.key,
        group_signature=query.join_signature(),
        subscriber=query.subscriber,
        insertion_time=query.insertion_time,
        relation=dis_side.relation,
        expr=dis_side.expr,
        required_value=required_value,
        dis_attribute=dis_attribute,
        dis_value=dis_value,
        filters=dis_side.filters,
        select=tuple(select_items),
        trigger_pub_time=trigger.pub_time,
    )


# ----------------------------------------------------------------------
# Rewriter: the per-member loop
# ----------------------------------------------------------------------

class PerMemberRewriter(Algorithm):
    """``on_al_index`` and the value-level helper as they were."""

    def on_al_index(self, engine, node, msg) -> None:
        state = engine.state(node)
        state.load.messages_processed += 1
        tup = msg.tuple
        relation = tup.relation.name
        attribute = msg.index_attribute
        if not msg.refresh:
            stats = state.arrivals.setdefault((relation, attribute), ArrivalStats())
            stats.record(tup.value(attribute))

        groups = state.alqt.groups_for(relation, attribute)
        if not groups:
            return
        state.load.add_attribute_level(sum(len(group) for group in groups))

        batches: dict[int, tuple[list[RewrittenQuery], list[Any]]] = {}
        sent_by_group = []
        for group in groups:
            sent_keys = self._rewrite_group(
                engine, group, tup, batches, force_resend=msg.refresh
            )
            if sent_keys:
                sent_by_group.append((group, sent_keys))
        if batches:
            self._dispatch_join_batches(engine, node, batches)
            for group, keys in sent_by_group:
                reference_sent_keys(group).update(keys)

    def _rewrite_group(self, engine, group, tup, batches, *, force_resend) -> list[str]:
        sent_keys: list[str] = []
        seen_keys: set[str] = set()
        projection = None
        remembers = self.remembers_sent_keys(engine)
        for entry in group.entries:
            query = entry.query
            side = query.side(entry.index_label)
            if tup.pub_time < query.insertion_time:
                continue
            if not side.accepts(tup):
                continue
            rewritten = reference_rewrite(query, entry.index_label, tup)
            key = rewritten.key
            if key in seen_keys:
                continue
            seen_keys.add(key)
            if remembers and not force_resend and key in reference_sent_keys(group):
                continue
            batch = batches.setdefault(self.flat_ident(engine, rewritten), ([], []))
            batch[0].append(rewritten)
            if self.wants_projection:
                if projection is None:
                    needed: set[str] = set()
                    for other in group.entries:
                        needed.update(
                            side_needed_attributes(other.query, other.index_label)
                        )
                    projection = tup.project(tuple(sorted(needed)))
                batch[1].append(projection)
            sent_keys.append(key)
        return sent_keys if remembers else []

    def flat_ident(self, engine, rewritten: RewrittenQuery) -> int:
        return engine.network.hash.hash_parts(
            rewritten.relation, rewritten.dis_attribute, rewritten.dis_value
        )

    def _emit(self, engine, state, rewritten: RewrittenQuery, match, trigger_time):
        """Create one notification unless its identity was already emitted."""
        row = rewritten.result_row(match)
        identity = (rewritten.original_key, repr(rewritten.required_value), row)
        if identity in state.emitted:
            return None
        state.emitted.add(identity)
        state.load.notifications_created += 1
        return Notification(
            query_key=rewritten.original_key,
            subscriber_ident=rewritten.subscriber.ident,
            row=row,
            join_value_repr=repr(rewritten.required_value),
            trigger_pub_time=trigger_time,
            match_pub_time=match.pub_time,
            created_at=engine.clock.now,
        )

    def _match_tuple_against_rewritten(self, engine, state, tup, attribute):
        """An arriving tuple against the per-member VLQT, entry by entry
        (DAI-T: the entries first triggered no later than it)."""
        candidates = state.vlqt.candidates(
            tup.relation.name, attribute, tup.value(attribute)
        )
        if self.orders_pairs:
            candidates = [
                entry for entry in candidates
                if entry.rewritten.trigger_pub_time <= tup.pub_time
            ]
        state.load.add_value_level(len(candidates))
        notifications = []
        for entry in candidates:
            if not _within_window(engine, tup.pub_time, entry.latest_trigger_time):
                continue
            if not entry.rewritten.matches(tup, check_value=False):
                continue
            notification = self._emit(
                engine, state, entry.rewritten, tup, entry.latest_trigger_time
            )
            if notification is not None:
                notifications.append(notification)
        return notifications

    def _match_flat_against_tuples(self, engine, state, rewritten: RewrittenQuery):
        candidates = state.vltt.candidates(
            rewritten.relation, rewritten.dis_attribute or "", rewritten.dis_value
        )
        if self.orders_pairs:  # DAI-Q: tuples published no later than the trigger
            candidates = [
                stored for stored in candidates
                if stored.tuple.pub_time <= rewritten.trigger_pub_time
            ]
        state.load.add_value_level(len(candidates))
        notifications = []
        for stored in candidates:
            if not _within_window(
                engine, stored.tuple.pub_time, rewritten.trigger_pub_time
            ):
                continue
            if not rewritten.matches(stored.tuple, check_value=False):
                continue
            notification = self._emit(
                engine, state, rewritten, stored.tuple, rewritten.trigger_pub_time
            )
            if notification is not None:
                notifications.append(notification)
        return notifications


def _within_window(engine, time_a: float, time_b: float) -> bool:
    """A pair joins only when its publication times are at most one
    window apart (symmetric: either side may have been stored first)."""
    window = engine.config.window
    return window is None or abs(time_b - time_a) <= window


def _vlqt_add_flat(table, rewritten: RewrittenQuery, ident: int) -> bool:
    """``ValueLevelQueryTable.add`` as it was for one flat query."""
    is_new = table.peek(rewritten) is None
    table.insert_entry(StoredRewritten(rewritten, ident, rewritten.trigger_pub_time))
    return is_new


# ----------------------------------------------------------------------
# Evaluators: one fetch, one store, one refresh per member
# ----------------------------------------------------------------------

class ReferenceSAI(PerMemberRewriter, SingleAttributeIndex):
    def on_join(self, engine, node, msg) -> None:
        state = engine.state(node)
        state.load.messages_processed += 1
        window = engine.config.window
        notifications = []
        for rewritten in msg.rewritten:
            ident = self.flat_ident(engine, rewritten)
            previous = state.vlqt.peek(rewritten)
            was_expired = (
                previous is not None
                and window is not None
                and rewritten.trigger_pub_time - previous.latest_trigger_time > window
            )
            is_new = _vlqt_add_flat(state.vlqt, rewritten, ident)
            if is_new or was_expired:
                notifications.extend(
                    self._match_flat_against_tuples(engine, state, rewritten)
                )
        engine.deliver_notifications(node, notifications)


class ReferenceDAIQ(PerMemberRewriter, DAIQuery):
    def on_join(self, engine, node, msg) -> None:
        state = engine.state(node)
        state.load.messages_processed += 1
        notifications = []
        for rewritten in msg.rewritten:
            notifications.extend(
                self._match_flat_against_tuples(engine, state, rewritten)
            )
        engine.deliver_notifications(node, notifications)


class ReferenceDAIT(PerMemberRewriter, DAITuple):
    def on_join(self, engine, node, msg) -> None:
        state = engine.state(node)
        state.load.messages_processed += 1
        for rewritten in msg.rewritten:
            _vlqt_add_flat(state.vlqt, rewritten, self.flat_ident(engine, rewritten))


class ReferenceDAIV(PerMemberRewriter, DAIValue):
    def flat_ident(self, engine, rewritten: RewrittenQuery) -> int:
        if engine.config.daiv_keyed:
            return engine.network.hash.hash_parts(
                rewritten.original_key, rewritten.required_value
            )
        return engine.network.hash.hash_parts(rewritten.required_value)

    def on_join(self, engine, node, msg) -> None:
        state = engine.state(node)
        state.load.messages_processed += 1
        assert len(msg.projections) == len(msg.rewritten)
        notifications = []
        for rewritten, projection in zip(msg.rewritten, msg.projections):
            candidates = state.projections.candidates(
                rewritten.group_signature, rewritten.relation, rewritten.required_value
            )
            state.load.add_value_level(len(candidates))
            for stored in candidates:
                if not _within_window(
                    engine, stored.projection.pub_time, rewritten.trigger_pub_time
                ):
                    continue
                if not rewritten.matches(stored.projection, check_value=True):
                    continue
                notification = self._emit(
                    engine,
                    state,
                    rewritten,
                    stored.projection,
                    rewritten.trigger_pub_time,
                )
                if notification is not None:
                    notifications.append(notification)
            state.projections.add(
                StoredProjection(
                    projection=projection,
                    group_signature=rewritten.group_signature,
                    value=rewritten.required_value,
                    routing_ident=self.flat_ident(engine, rewritten),
                )
            )
        engine.deliver_notifications(node, notifications)


REFERENCE_ALGORITHMS = {
    "sai": ReferenceSAI,
    "dai-q": ReferenceDAIQ,
    "dai-t": ReferenceDAIT,
    "dai-v": ReferenceDAIV,
}


class ReferenceEngine(engine_module.ContinuousQueryEngine):
    """Every adopted node keeps the per-member VLQT."""

    def adopt(self, node):
        state = super().adopt(node)
        if not isinstance(state.vlqt, FlatValueLevelQueryTable):
            state.vlqt = FlatValueLevelQueryTable()
        return state


def reference_engine(network, config):
    """An engine over ``network`` running the per-member reference."""
    make_algorithm = engine_module.make_algorithm
    engine_module.make_algorithm = lambda name: REFERENCE_ALGORITHMS[name]()
    try:
        return ReferenceEngine(network, config)
    finally:
        engine_module.make_algorithm = make_algorithm


def flat_fields(rewritten: RewrittenQuery) -> tuple:
    """Every field of a flat rewritten query, for equality checks."""
    return tuple(getattr(rewritten, name) for name in RewrittenQuery.__slots__)
