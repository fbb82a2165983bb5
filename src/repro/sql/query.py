"""Continuous two-way equi-join queries and their rewritten forms.

Implements the query model of Section 3.2 and the rewriting vocabulary
of Chapter 4:

* a :class:`JoinQuery` is ``SELECT ... FROM R, S WHERE α = β`` with
  optional conjoined local equality filters (``AND S.C = 10``);
* queries are **type T1** when both ``α`` and ``β`` are single
  attributes (so the equality has a unique solution over the attribute
  domains) and **type T2** otherwise;
* a :class:`RewrittenQuery` is the select-project query produced when an
  incoming tuple triggers a query at a rewriter node: the triggering
  relation's attributes are replaced by values and the query is
  reindexed at the value level;
* a :class:`RewrittenGroup` is one trigger's rewrite of every query that
  shares a join condition (Section 4.3.5) — what :func:`rewrite`
  produces, a ``join()`` message carries and an evaluator stores and
  matches; :meth:`RewrittenGroup.expand` gives the per-member
  :class:`RewrittenQuery` view of it.  It is a :class:`GroupShape` —
  what the group alone decides, built once per rewrite plan — bound to
  one trigger's values by :func:`bind`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Optional

from ..errors import QueryError
from ..perf import PERF
from .expr import (
    AttrRef,
    Const,
    Expression,
    attributes_of,
    canonical_text,
    canonical_value,
    evaluate,
    is_single_attribute,
    linear_form,
    relations_of,
    substitute,
)

#: Labels for the two sides of a join condition.  The DAI algorithms
#: index a query once per side (``q_L`` / ``q_R`` in the paper).
LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True, slots=True)
class LocalFilter:
    """A conjoined equality predicate over one relation (``A.Surname = 'Smith'``)."""

    attribute: str
    value: Any

    def holds(self, tuple_like) -> bool:
        """Test the predicate against a tuple of the filter's relation."""
        return tuple_like.value(self.attribute) == self.value

    def __str__(self) -> str:
        rendered = repr(self.value) if isinstance(self.value, str) else str(self.value)
        return f"{self.attribute}={rendered}"


@dataclass(frozen=True)
class QuerySide:
    """One side of the join: a relation, its join expression, filters.

    The classification helpers (``join_attributes``, ``linear_form`` and
    friends) are pure functions of the immutable fields but are consulted
    on *every* query trigger — hundreds of thousands of times per run —
    so they are ``cached_property``s.  ``cached_property`` stores into
    ``__dict__`` directly, which sidesteps the frozen ``__setattr__``,
    and dataclass equality/hash only look at declared fields, so the
    caches never leak into comparisons.
    """

    relation: str
    expr: Expression
    filters: tuple[LocalFilter, ...] = ()

    def __post_init__(self):
        referenced = relations_of(self.expr)
        if referenced - {self.relation}:
            raise QueryError(
                f"side expression {self.expr} references relations "
                f"{referenced - {self.relation}} outside {self.relation}"
            )
        if not referenced:
            raise QueryError(
                f"side expression {self.expr} references no attribute of "
                f"{self.relation}"
            )

    @cached_property
    def join_attributes(self) -> tuple[str, ...]:
        """Attributes of this relation appearing in the join expression,
        sorted for determinism."""
        return tuple(sorted(ref.attribute for ref in attributes_of(self.expr)))

    @cached_property
    def single_attribute(self) -> Optional[str]:
        """The attribute name if the expression is a bare attribute."""
        return self.expr.attribute if is_single_attribute(self.expr) else None

    @cached_property
    def _linear_form(self):
        """Memoized ``linear_form(self.expr)`` — the expression never changes."""
        return linear_form(self.expr)

    @cached_property
    def invertible_attribute(self) -> Optional[str]:
        """The attribute if the side is linear in exactly one attribute.

        This is the paper's full T1 criterion: ``a * X + b = v`` has the
        unique solution ``X = (v - b) / a``, so the side can be solved
        for the attribute value that satisfies the join condition.
        Bare attributes are the ``a = 1, b = 0`` special case.
        """
        form = self._linear_form
        return form[0].attribute if form is not None else None

    def solve_for_attribute(self, target_value: Any) -> Any:
        """The value this side's attribute must take so expr == target.

        Only valid when :attr:`invertible_attribute` is not None.
        """
        form = self._linear_form
        if form is None:
            raise QueryError(
                f"side expression {self.expr} is not invertible"
            )
        _, a, b = form
        if a == 1 and b == 0:
            # Identity: also covers non-numeric domains (string joins).
            return canonical_value(target_value)
        try:
            return canonical_value((target_value - b) / a)
        except TypeError as exc:
            raise QueryError(
                f"cannot solve {self.expr} = {target_value!r}: {exc}"
            ) from exc

    def accepts(self, tuple_like) -> bool:
        """True when a tuple satisfies every local filter of this side."""
        if not self.filters:  # the common case; skip the genexpr
            return True
        return all(f.holds(tuple_like) for f in self.filters)

    @cached_property
    def _signature(self) -> str:
        filters = ",".join(str(f) for f in sorted(self.filters, key=str))
        return f"{self.relation}:{canonical_text(self.expr)}[{filters}]"

    def signature(self) -> str:
        """Canonical text used for query grouping (Section 4.3.5)."""
        return self._signature


@dataclass(frozen=True, slots=True)
class Subscriber:
    """Identity of the node that posed a query (Section 4.6).

    ``ident`` is ``Id(n) = Hash(Key(n))`` and ``ip`` the address used
    for one-hop notification delivery while the subscriber is online.
    """

    key: str
    ident: int
    ip: str


@dataclass(frozen=True)
class JoinQuery:
    """A continuous two-way equi-join query.

    Built by the parser without subscription metadata; the engine binds
    ``key``, ``insertion_time`` and ``subscriber`` via
    :meth:`with_subscription` when the query enters the network.
    """

    select: tuple[AttrRef, ...]
    left: QuerySide
    right: QuerySide
    key: str = ""
    insertion_time: float = 0.0
    subscriber: Optional[Subscriber] = None

    def __post_init__(self):
        if self.left.relation == self.right.relation:
            raise QueryError(
                "self-joins are not supported (both sides reference "
                f"{self.left.relation})"
            )
        for ref in self.select:
            if ref.relation not in (self.left.relation, self.right.relation):
                raise QueryError(
                    f"select attribute {ref} references a relation outside "
                    f"the FROM clause"
                )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def query_type(self) -> str:
        """``"T1"`` or ``"T2"`` (Section 3.2).

        T1: each side involves a single attribute and the equality has
        a unique solution — i.e. both sides are linear in one attribute
        (bare attributes are the common special case).  Everything else
        (multi-attribute or non-linear sides) is T2 and can only be
        evaluated by DAI-V.
        """
        if self.left.invertible_attribute and self.right.invertible_attribute:
            return "T1"
        return "T2"

    # ------------------------------------------------------------------
    # Side access
    # ------------------------------------------------------------------
    def side(self, label: str) -> QuerySide:
        if label == LEFT:
            return self.left
        if label == RIGHT:
            return self.right
        raise QueryError(f"unknown side label {label!r}")

    def other_label(self, label: str) -> str:
        if label == LEFT:
            return RIGHT
        if label == RIGHT:
            return LEFT
        raise QueryError(f"unknown side label {label!r}")

    def side_for_relation(self, relation: str) -> str:
        """Which side (label) a relation sits on."""
        if relation == self.left.relation:
            return LEFT
        if relation == self.right.relation:
            return RIGHT
        raise QueryError(f"relation {relation} not part of query {self.key!r}")

    def index_attribute(self, label: str) -> str:
        """The attribute used to index this query on side ``label``.

        For T1 sides it is *the* join attribute; for T2 sides (DAI-V)
        one representative attribute is chosen deterministically —
        "the query will be indexed ... according to one of the
        attributes in the left part of the join condition" (§4.5).
        """
        side = self.side(label)
        single = side.single_attribute
        if single is not None:
            return single
        return side.join_attributes[0]

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------
    @cached_property
    def _rewrite_plans(self) -> dict:
        return {LEFT: RewritePlan((self,), LEFT), RIGHT: RewritePlan((self,), RIGHT)}

    def rewrite_plan(self, index_label: str) -> "RewritePlan":
        """This query as a group of one (built on first trigger)."""
        return self._rewrite_plans[index_label]

    @cached_property
    def side_needed_attributes(self) -> dict[str, tuple[str, ...]]:
        """Per side: the attributes a DAI-V projection of that side must
        carry — select attributes of the side's relation, its
        join-expression attributes and its filter attributes (sorted).
        """
        result = {}
        for label in (LEFT, RIGHT):
            side = self.side(label)
            needed = {
                ref.attribute for ref in self.select if ref.relation == side.relation
            }
            needed.update(ref.attribute for ref in attributes_of(side.expr))
            needed.update(f.attribute for f in side.filters)
            result[label] = tuple(sorted(needed))
        return result

    @cached_property
    def _join_signature(self) -> str:
        return f"{self.left.signature()}={self.right.signature()}"

    def join_signature(self) -> str:
        """Canonical identity of the join condition, for grouping.

        "All queries that have equivalent join condition are grouped
        together at each rewriter and evaluator node" (Section 4.3.5).
        """
        return self._join_signature

    # ------------------------------------------------------------------
    # Subscription binding
    # ------------------------------------------------------------------
    def with_subscription(
        self, key: str, insertion_time: float, subscriber: Subscriber
    ) -> "JoinQuery":
        """Return a copy bound to a subscriber at submission time."""
        return replace(
            self, key=key, insertion_time=insertion_time, subscriber=subscriber
        )

    def __str__(self) -> str:
        select = ", ".join(str(ref) for ref in self.select)
        conjuncts = [f"{self.left.expr} = {self.right.expr}"]
        for side in (self.left, self.right):
            conjuncts.extend(f"{side.relation}.{f}" for f in side.filters)
        return (
            f"SELECT {select} FROM {self.left.relation}, {self.right.relation} "
            f"WHERE {' AND '.join(conjuncts)}"
        )


# ----------------------------------------------------------------------
# Select items of rewritten queries
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BoundValue:
    """A select item already replaced by a value from the trigger tuple."""

    value: Any


@dataclass(frozen=True, slots=True)
class PendingAttr:
    """A select item still to be read from a matching dis-side tuple."""

    attribute: str


SelectItem = BoundValue | PendingAttr


def _satisfies(tuple_like, filters, expr, required_value, check_value: bool) -> bool:
    """Local filters hold and (on request) ``expr`` takes ``required_value``."""
    for f in filters:
        if not f.holds(tuple_like):
            return False
    if check_value:
        try:
            return evaluate(expr, tuple_like) == required_value
        except QueryError:
            return False
    return True


def select_row(select: tuple[SelectItem, ...], tuple_like) -> tuple[Any, ...]:
    """The notification row of one bound select list for a matching
    dis-side tuple: bound values as they are, pending attributes read."""
    return tuple(
        [
            item.value if type(item) is BoundValue else tuple_like.value(item.attribute)
            for item in select
        ]
    )


@dataclass(slots=True, eq=False)
class RewrittenQuery:
    """A select-project query produced by rewriting a join query: one
    member of a :class:`RewrittenGroup`, expanded.

    The engine works on group records throughout; this flat form is the
    per-(query, trigger tuple) view of one.  Slotted, and it skips the
    frozen machinery (a frozen dataclass pays ``object.__setattr__`` per
    field on *every* construction, ~8x slower).  Instances are immutable
    by convention: nothing mutates one after
    :meth:`RewrittenGroup.expand` returns, and identity/equality is
    always taken on ``key`` (Section 4.3.3), never on field-wise
    comparison.

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
    #: ``DisA`` — the level-1 VLQT key for SAI/DAI-Q/DAI-T; ``None``
    #: when the dis side is not invertible (T2, DAI-V only).
    dis_attribute: Optional[str]
    #: ``valDA`` — the solved value of ``DisA`` (equals
    #: ``required_value`` for bare-attribute sides); ``None`` when the
    #: dis side is not invertible.
    dis_value: Any
    filters: tuple[LocalFilter, ...]
    select: tuple[SelectItem, ...]
    #: ``pubT`` of the tuple that triggered the rewrite — "the time
    #: information is necessary when creating notifications".
    trigger_pub_time: float

    def matches(self, tuple_like, *, check_value: bool = True) -> bool:
        """Does a dis-relation tuple satisfy this rewritten query?

        Checks the local filters, the time semantics
        (``pubT >= insT(q)``) and — unless the caller already guarantees
        it through hash placement — the join-value equality.
        """
        return tuple_like.pub_time >= self.insertion_time and _satisfies(
            tuple_like, self.filters, self.expr, self.required_value, check_value
        )

    def result_row(self, tuple_like) -> tuple[Any, ...]:
        """Materialize the notification row from a matching tuple."""
        return select_row(self.select, tuple_like)

    @property
    def needed_attributes(self) -> tuple[str, ...]:
        """Dis-relation attributes required to evaluate and project.

        Determines the DAI-V projection: select attributes still
        pending, the join-expression attributes, and filter attributes.
        """
        needed = {item.attribute for item in self.select if isinstance(item, PendingAttr)}
        needed.update(ref.attribute for ref in attributes_of(self.expr))
        needed.update(f.attribute for f in self.filters)
        return tuple(sorted(needed))


@dataclass(slots=True)
class GroupMember:
    """What tells the queries of one group apart (Section 4.3.5): key,
    subscriber, insertion time and — through ``select_index`` into the
    group's distinct select lists — the select list."""

    query_key: str
    subscriber: Subscriber
    insertion_time: float
    select_index: int


@dataclass(slots=True)
class GroupShape:
    """The trigger-independent half of a group record: everything about
    a rewrite that is decided by the group alone.

    Built once per :class:`RewritePlan` and shared by every record the
    plan produces (and, on a receiving peer, by every record decoded
    from equal wire bytes), so nothing may mutate a shape or the members
    it holds.  :func:`bind` adds one trigger's values to make a record.
    """

    group_signature: str
    #: The load-distributing relation whose tuples can satisfy the group.
    relation: str
    #: The dis-side join expression (over ``relation``).
    expr: Expression
    #: ``DisA`` — the level-1 VLQT key for SAI/DAI-Q/DAI-T; ``None``
    #: when the dis side is not invertible (T2, DAI-V only).
    dis_attribute: Optional[str]
    filters: tuple[LocalFilter, ...]
    members: tuple[GroupMember, ...]
    #: Per distinct select list, per item: the ``PendingAttr`` every
    #: record reuses, or ``None`` where a value of the trigger binds.
    select_specs: tuple[tuple[Optional[PendingAttr], ...], ...]
    #: The wire form, kept here by the codec after the first encode so
    #: that it dies with the shape — with the plan, when the group changes.
    sealed: Optional[bytes] = field(default=None, compare=False, repr=False)

    def restrict(self, positions) -> "GroupShape":
        """The same shape over ``members[i] for i in positions`` only
        (select lists keep their numbering; not sealed yet)."""
        members = self.members
        return GroupShape(
            self.group_signature, self.relation, self.expr, self.dis_attribute,
            self.filters, tuple([members[i] for i in positions]), self.select_specs,
        )


@dataclass(slots=True)
class RewrittenGroup:
    """One trigger's rewrite of a whole query group — the unit a rewriter
    ships, ``join()`` carries and an evaluator consumes.

    A record is a :class:`GroupShape` (join condition, filters, members,
    select-list layout — held once per group, not per trigger) bound to
    one trigger's values by :func:`bind`: ``valJC``, ``valDA``,
    ``pubT(t)`` and the trigger values the select lists use.  ``selects``
    and ``suffixes`` — the bound select items and the key suffix
    ``+v_1..+v_l+valJC``, once per distinct select list — are derived
    from those by :func:`bind` and nowhere else, so they do not travel.
    A member's rewritten key is
    ``member.query_key + suffixes[member.select_index]`` — the
    ``Key(q) + v_1 + ... + v_l + valDA`` of Section 4.3.3.  Immutable by
    convention; ``keys`` only memoizes :meth:`member_keys`.
    """

    shape: GroupShape
    #: The value the dis-side *expression* must take (``valJC``).
    required_value: Any
    #: ``valDA`` — the solved value of ``DisA`` (equals
    #: ``required_value`` for bare-attribute sides); ``None`` when the
    #: dis side is not invertible.
    dis_value: Any
    #: ``pubT`` of the tuple that triggered the rewrite — "the time
    #: information is necessary when creating notifications".
    trigger_pub_time: float
    #: The trigger values the select lists bind, flat, in list order.
    bound: tuple[Any, ...]
    selects: tuple[tuple[SelectItem, ...], ...]
    suffixes: tuple[str, ...]
    keys: Optional[tuple[str, ...]] = field(default=None, compare=False, repr=False)

    # The shape's fields, readable on the record (``record.shape.members``
    # is the same tuple without the call, for code that runs per trigger).
    group_signature = property(lambda self: self.shape.group_signature)
    relation = property(lambda self: self.shape.relation)
    expr = property(lambda self: self.shape.expr)
    dis_attribute = property(lambda self: self.shape.dis_attribute)
    filters = property(lambda self: self.shape.filters)
    members = property(lambda self: self.shape.members)

    def accepts(self, tuple_like, *, check_value: bool = True) -> bool:
        """The part of :meth:`RewrittenQuery.matches` every member
        shares: the local filters and the join-value equality.  The time
        semantics (``pubT >= insT(q)``) stay per member."""
        shape = self.shape
        return _satisfies(
            tuple_like, shape.filters, shape.expr, self.required_value, check_value
        )

    def member_keys(self) -> tuple[str, ...]:
        """The rewritten key of every member, aligned with ``members``."""
        keys = self.keys
        if keys is None:
            suffixes = self.suffixes
            keys = self.keys = tuple(
                [m.query_key + suffixes[m.select_index] for m in self.shape.members]
            )
        return keys

    def restrict(self, positions) -> "RewrittenGroup":
        """The same rewrite covering only ``members[i] for i in positions``."""
        keys = self.keys
        # Spelled out: ``dataclasses.replace`` re-reads the field list on
        # every call, and evaluators restrict a record per split or store.
        return RewrittenGroup(
            self.shape.restrict(positions), self.required_value, self.dis_value,
            self.trigger_pub_time, self.bound, self.selects, self.suffixes,
            None if keys is None else tuple([keys[i] for i in positions]),
        )

    def split(self) -> list["RewrittenGroup"]:
        """One single-member record per member."""
        return [self.restrict((i,)) for i in range(len(self.shape.members))]

    def expand(self, member: GroupMember) -> RewrittenQuery:
        """The flat per-subscriber query of one member."""
        index = member.select_index
        query_key = member.query_key
        shape = self.shape
        return RewrittenQuery(
            query_key + self.suffixes[index], query_key,
            shape.group_signature, member.subscriber, member.insertion_time,
            shape.relation, shape.expr, self.required_value, shape.dis_attribute,
            self.dis_value, shape.filters, self.selects[index], self.trigger_pub_time,
        )


def bind(
    shape: GroupShape,
    required_value: Any,
    dis_value: Any,
    trigger_pub_time: float,
    bound: tuple[Any, ...],
) -> RewrittenGroup:
    """The group record of ``shape`` for one trigger's values.

    Both :func:`rewrite` and the wire decoder build records here, so this
    is the one place a bound select list and its key suffix
    ``+v_1..+v_l+valJC`` are formed.  ``bound`` must hold one value per
    ``None`` item of the shape's select lists: fewer is an
    :class:`IndexError`, more a :class:`QueryError`.
    """
    tail = str(required_value)
    selects = []
    suffixes = []
    position = 0
    for spec in shape.select_specs:
        items: list[SelectItem] = []
        key_parts = [""]
        for pending in spec:
            if pending is None:
                value = bound[position]
                position += 1
                items.append(BoundValue(value))
                key_parts.append(str(value))
            else:
                items.append(pending)
        key_parts.append(tail)
        selects.append(tuple(items))
        suffixes.append("+".join(key_parts))
    if position != len(bound):
        raise QueryError(
            f"{len(bound)} bound values for the {position} a record of "
            f"{shape.group_signature} binds"
        )
    return RewrittenGroup(
        shape, required_value, dis_value, trigger_pub_time, bound,
        tuple(selects), tuple(suffixes),
    )


class RewritePlan:
    """The trigger-independent skeleton of a group rewrite.

    Most of what ``rewrite()`` computes depends only on the group: which
    side is the index side, whether the dis side is invertible, who the
    members are and which select items bind from the trigger versus stay
    pending.  A plan precomputes that for the queries of one group
    indexed on side ``index_label`` (a lone query is a group of one) —
    the part a record carries as its :class:`GroupShape`, the rest as
    lookup positions — so the per-trigger work shrinks to value lookups
    and :func:`bind`.
    """

    def __init__(self, queries, index_label: str):
        query = queries[0]
        index_side = query.side(index_label)
        dis_side = query.side(query.other_label(index_label))
        self.index_relation = index_side.relation
        self.index_side = index_side
        self.dis_side = dis_side
        group_signature = query.join_signature()
        #: Bare-attribute fast path: substitution folds straight to the
        #: trigger's value of this attribute.
        self.index_attr = (
            index_side.expr.attribute if type(index_side.expr) is AttrRef else None
        )
        form = dis_side._linear_form
        self.dis_identity = form is not None and form[1] == 1 and form[2] == 0
        select_specs: list[tuple[Optional[PendingAttr], ...]] = []
        bound_attributes: list[str] = []
        select_index: dict[tuple[AttrRef, ...], int] = {}
        members: dict[str, GroupMember] = {}
        needed: set[str] = set()
        for query in queries:
            if query.key in members:
                continue  # another replica's copy of the same query
            index = select_index.get(query.select)
            if index is None:
                index = select_index[query.select] = len(select_specs)
                spec = []
                for ref in query.select:
                    if ref.relation == index_side.relation:
                        spec.append(None)
                        bound_attributes.append(ref.attribute)
                    else:
                        spec.append(PendingAttr(ref.attribute))
                select_specs.append(tuple(spec))
                needed.update(query.side_needed_attributes[index_label])
            members[query.key] = GroupMember(
                query.key, query.subscriber, query.insertion_time, index
            )
        #: What every record of this plan shares; its members are one
        #: per distinct query key, in installation order.
        self.shape = GroupShape(
            group_signature, dis_side.relation, dis_side.expr,
            dis_side.invertible_attribute, dis_side.filters,
            tuple(members.values()), tuple(select_specs),
        )
        self.newest_insertion = max(m.insertion_time for m in self.shape.members)
        #: The trigger attributes a record binds, flat, in the order of
        #: the shape's ``None`` select items.
        self.bound_attributes = tuple(bound_attributes)
        #: Index-side attributes a DAI-V projection of the trigger must
        #: carry to later satisfy the opposite-side rewritten queries of
        #: *every* member (select, join-expression and filter attributes).
        self.needed_attributes = tuple(sorted(needed))
        #: Positional variants of :attr:`index_attr`/:attr:`bound_attributes`,
        #: bound lazily to the first trigger's ``Relation`` object so
        #: ``rewrite()`` can index ``trigger.values`` directly instead of
        #: going through ``DataTuple.value`` name lookups.
        self.pos_relation = None
        self.index_pos: Optional[int] = None
        #: ``trigger.values`` -> the flat tuple of values a record binds.
        self.bound_values: Optional[Callable[[tuple], tuple]] = None

    def bind_positions(self, relation) -> None:
        """Resolve attribute names to positions in ``relation``.

        Called once per (plan, Relation object); re-bound if a trigger
        arrives with a distinct schema object of the same name.
        """
        positions = relation._positions
        if self.index_attr is not None:
            self.index_pos = positions[self.index_attr]
        bound = [positions[attribute] for attribute in self.bound_attributes]
        if len(bound) > 1:
            self.bound_values = itemgetter(*bound)  # the tuple, built in C
        elif bound:
            (only,) = bound
            self.bound_values = lambda values: (values[only],)
        else:
            self.bound_values = lambda values: ()
        self.pos_relation = relation


def rewrite(source, index_label: str, trigger) -> Optional[RewrittenGroup]:
    """Rewrite a query group triggered by tuple ``trigger`` on side ``index_label``.

    ``source`` is anything with a ``rewrite_plan(index_label)`` — a
    :class:`JoinQuery` (a group of one) or a rewriter's query group.
    Replaces every attribute of the index relation in the Select and
    Where clauses with the trigger tuple's values (Section 4.3.2) and
    computes the value the remaining side must take — once for the whole
    group (§4.3.5); :func:`bind` makes the record from the plan's shape.
    Returns ``None`` when the trigger fails the index side's filters or
    predates every member (``pubT < insT``).
    """
    plan = source.rewrite_plan(index_label)
    relation = trigger.relation
    shape = plan.shape
    if relation.name != plan.index_relation:
        raise QueryError(
            f"tuple of {relation.name} cannot trigger side {index_label} "
            f"({plan.index_relation}) of {shape.group_signature}"
        )
    pub_time = trigger.pub_time
    if pub_time < plan.newest_insertion:
        old_enough = [
            i for i, m in enumerate(shape.members) if pub_time >= m.insertion_time
        ]
        if not old_enough:
            return None
        shape = shape.restrict(old_enough)
    if not plan.index_side.accepts(trigger):
        return None
    if PERF.enabled:
        PERF.count("sql.rewrites")
        PERF.count("sql.rewrite.members", len(shape.members))
    if plan.pos_relation is not relation:
        plan.bind_positions(relation)

    trigger_values = trigger.values
    if plan.index_pos is not None:
        value = trigger_values[plan.index_pos]
        required_value = value if type(value) is int else canonical_value(value)
    else:
        index_expr = plan.index_side.expr
        substituted = substitute(index_expr, plan.index_relation, trigger)
        if not isinstance(substituted, Const):
            raise QueryError(
                f"index-side expression {index_expr} did not fold to a "
                f"constant for tuple {trigger}"
            )
        required_value = canonical_value(substituted.value)

    if shape.dis_attribute is None:
        dis_value = None
    elif plan.dis_identity:
        # Identity linear form: already canonical (also covers strings).
        dis_value = required_value
    else:
        dis_value = plan.dis_side.solve_for_attribute(required_value)

    return bind(
        shape, required_value, dis_value, pub_time,
        plan.bound_values(trigger_values),
    )
