"""Continuous two-way equi-join queries and their rewritten forms.

Implements the query model of Section 3.2 and the rewriting vocabulary
of Chapter 4:

* a :class:`JoinQuery` is ``SELECT ... FROM R, S WHERE α = β`` with
  optional conjoined local equality filters (``AND S.C = 10``);
* queries are **type T1** when both ``α`` and ``β`` are single
  attributes (so the equality has a unique solution over the attribute
  domains) and **type T2** otherwise;
* a :class:`RewrittenGroup` is one trigger's rewrite of every query that
  shares a join condition (Section 4.3.5): the select-project queries
  produced when an incoming tuple triggers the group at a rewriter node,
  with the triggering relation's attributes replaced by values and the
  group reindexed at the value level.  It is what :func:`rewrite`
  produces, a ``join()`` message carries and an evaluator stores and
  matches: a :class:`GroupShape` — what the group alone decides, built
  once per rewrite plan — bound to one trigger's values by :func:`bind`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


class _memo:
    """``functools.cached_property`` as Python 3.12 has it: no lock (up to
    3.11 every miss takes an ``RLock``, and a fresh query misses each
    helper once).  The value goes into the instance ``__dict__``, where
    every later read finds it without calling the descriptor."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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

    The classification helpers (``invertible_attribute``, the linear
    form, the signature) are pure functions of the immutable fields,
    consulted on every subscription and trigger, so they are ``_memo``s:
    computed on first read — never in ``__post_init__``, which a workload
    generator pays for — lock-free (3.11's ``cached_property`` locks
    every miss, and a fresh query misses each once), stored in
    ``__dict__`` past the frozen ``__setattr__`` and out of equality.
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

    @_memo
    def join_attributes(self) -> tuple[str, ...]:
        """Attributes of this relation appearing in the join expression,
        sorted for determinism."""
        return tuple(sorted(ref.attribute for ref in attributes_of(self.expr)))

    @property
    def single_attribute(self) -> Optional[str]:
        """The attribute name if the expression is a bare attribute."""
        return self.expr.attribute if is_single_attribute(self.expr) else None

    @_memo
    def _linear_form(self):
        """Memoized ``linear_form(self.expr)`` — the expression never changes."""
        return linear_form(self.expr)

    @_memo
    def invertible_attribute(self) -> Optional[str]:
        """The attribute if the side is linear in exactly one attribute.

        This is the paper's full T1 criterion: ``a * X + b = v`` has the
        unique solution ``X = (v - b) / a``, so the side can be solved
        for the attribute value that satisfies the join condition.
        Bare attributes are the ``a = 1, b = 0`` special case, answered
        without decomposing the expression.
        """
        expr = self.expr
        if type(expr) is AttrRef:
            return expr.attribute
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

    @_memo
    def _signature(self) -> str:
        filters = self.filters
        text = ",".join(sorted([str(f) for f in filters])) if filters else ""
        return f"{self.relation}:{canonical_text(self.expr)}[{text}]"

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
    @_memo
    def _rewrite_plans(self) -> dict:
        return {LEFT: RewritePlan((self,), LEFT), RIGHT: RewritePlan((self,), RIGHT)}

    def rewrite_plan(self, index_label: str) -> "RewritePlan":
        """This query as a group of one (built on first trigger)."""
        return self._rewrite_plans[index_label]

    @_memo
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
        """Return a copy bound to a subscriber at submission time, built
        without re-validating its fields.  It keeps this query's join
        signature if read already, never its rewrite plans (their group
        of one holds the key and the subscriber)."""
        bound = object.__new__(JoinQuery)
        bound.__dict__.update(
            select=self.select, left=self.left, right=self.right, key=key,
            insertion_time=insertion_time, subscriber=subscriber,
        )
        if "_join_signature" in self.__dict__:
            bound.__dict__["_join_signature"] = self._join_signature
        return bound

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


@dataclass(slots=True)
class GroupMember:
    """What tells the queries of one group apart (Section 4.3.5): key,
    subscriber, insertion time and — through ``select_index`` into the
    group's distinct select lists — the select list."""

    query_key: str
    subscriber: Subscriber
    insertion_time: float
    select_index: int


@dataclass(frozen=True, slots=True, eq=False)
class BindingLayout:
    """Which select lists of a shape share a *binding* — the run of
    ``bound`` positions a list reads, in list order — and so one key
    suffix from any trigger.  Decided by position, never by value: ``1``,
    ``1.0`` and ``True`` are equal but print differently in a key."""

    #: How many values a record of the shape binds (``len(bound)``).
    n_bound: int
    #: The distinct runs, in order of first use.
    bindings: tuple[tuple[int, ...], ...]
    #: Per select list, the index of its run in ``bindings``.
    select_binding: tuple[int, ...]
    #: Per-binding suffixes -> per-list suffixes (``tuple`` if one each).
    spread: Callable[[list], tuple]

    @classmethod
    def of(cls, select_specs) -> "BindingLayout":
        """The layout of ``select_specs``, whose ``int`` items must be
        exactly the positions ``0 .. n - 1`` (``QueryError`` otherwise)."""
        runs: dict[tuple[int, ...], int] = {}
        select_binding = []
        positions: set[int] = set()
        for spec in select_specs:
            run = tuple([item for item in spec if type(item) is int])
            positions.update(run)
            select_binding.append(runs.setdefault(run, len(runs)))
        if positions != set(range(len(positions))):
            raise QueryError(f"select lists bind positions {sorted(positions)}")
        one_each = select_binding == list(range(len(runs)))
        spread = tuple if one_each else itemgetter(*select_binding)
        return cls(len(positions), tuple(runs), tuple(select_binding), spread)


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
    #: record reuses, or the position in a record's ``bound`` of the
    #: trigger value that binds it (one position per distinct
    #: index-side attribute the lists read).
    select_specs: tuple[tuple[PendingAttr | int, ...], ...]
    #: The wire form, kept here by the codec after the first encode so
    #: that it dies with the shape — with the plan, when the group changes.
    sealed: Optional[bytes] = field(default=None, compare=False, repr=False)
    #: ``BindingLayout.of(select_specs)``; plan, decoder or :func:`bind` sets it.
    layout: Optional[BindingLayout] = field(default=None, compare=False, repr=False)

    def restrict(self, positions) -> "GroupShape":
        """The same shape over ``members[i] for i in positions`` only
        (select lists keep their numbering; not sealed yet)."""
        members = self.members
        return GroupShape(
            self.group_signature, self.relation, self.expr, self.dis_attribute,
            self.filters, tuple([members[i] for i in positions]), self.select_specs,
            None, self.layout,
        )


@dataclass(slots=True)
class RewrittenGroup:
    """One trigger's rewrite of a whole query group — the unit a rewriter
    ships, ``join()`` carries and an evaluator consumes.

    A record is a :class:`GroupShape` (join condition, filters, members,
    select-list layout — held once per group, not per trigger) bound to
    one trigger's values by :func:`bind`: ``valJC``, ``valDA``,
    ``pubT(t)`` and the trigger values the select lists read.
    ``suffixes`` — the key suffix ``+v_1..+v_l+valJC`` of each distinct
    select list — is derived from those by :func:`bind` and nowhere
    else, so it does not travel.  A member's rewritten key is
    ``member.query_key + suffixes[member.select_index]`` — the
    ``Key(q) + v_1 + ... + v_l + valDA`` of Section 4.3.3; nothing in
    the engine builds one (see ``QueryGroup.sent`` and the VLQT slots).
    Immutable by convention; ``bound_selects`` only memoizes :attr:`selects`.
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
    #: One trigger value per distinct index-side attribute the select
    #: lists read; the shape's ``int`` select items index into it.
    bound: tuple[Any, ...]
    suffixes: tuple[str, ...]
    bound_selects: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def selects(self) -> tuple[tuple[SelectItem, ...], ...]:
        """Per select list, its items bound to this trigger's values —
        built on first read, which only an answer row needs."""
        if self.bound_selects is None:
            bound = self.bound
            self.bound_selects = tuple([
                tuple([BoundValue(bound[i]) if type(i) is int else i for i in spec])
                for spec in self.shape.select_specs
            ])
        return self.bound_selects

    def accepts(self, tuple_like, *, check_value: bool = True) -> bool:
        """What every member's match shares: the local filters and the
        join-value equality.  The time semantics (``pubT >= insT(q)``)
        stay per member."""
        shape = self.shape
        return _satisfies(
            tuple_like, shape.filters, shape.expr, self.required_value, check_value
        )

    def restrict(self, positions) -> "RewrittenGroup":
        """The same rewrite covering only ``members[i] for i in positions``."""
        # Spelled out: ``dataclasses.replace`` re-reads the field list on
        # every call, and evaluators restrict a record per split or store.
        return RewrittenGroup(
            self.shape.restrict(positions), self.required_value, self.dis_value,
            self.trigger_pub_time, self.bound, self.suffixes, self.bound_selects,
        )

    def split(self) -> list["RewrittenGroup"]:
        """One single-member record per member."""
        return [self.restrict((i,)) for i in range(len(self.shape.members))]


def bind(
    shape: GroupShape,
    required_value: Any,
    dis_value: Any,
    trigger_pub_time: float,
    bound: tuple[Any, ...],
) -> RewrittenGroup:
    """The group record of ``shape`` for one trigger's values.

    Both :func:`rewrite` and the wire decoder build records here, so this
    is the one place a key suffix ``+v_1..+v_l+valJC`` is formed: once
    per distinct binding of the shape's select lists, shared by every
    list with that binding.  ``bound`` must hold exactly the shape's
    ``n_bound`` values (:class:`QueryError` otherwise).
    """
    layout = shape.layout
    if layout is None:
        layout = shape.layout = BindingLayout.of(shape.select_specs)
    if len(bound) != layout.n_bound:
        raise QueryError(
            f"{len(bound)} bound values for the {layout.n_bound} a record of "
            f"{shape.group_signature} binds"
        )
    tail = "+" + str(required_value)
    suffixes = []  # a plain loop: a comprehension costs a frame per call
    for run in layout.bindings:
        suffixes.append("+" + str(bound[run[0]]) + tail if len(run) == 1
                        else "".join(["+" + str(bound[p]) for p in run]) + tail)
    return RewrittenGroup(
        shape, required_value, dis_value, trigger_pub_time, bound,
        layout.spread(suffixes),
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
        select_specs: list[tuple[PendingAttr | int, ...]] = []
        #: index-side attribute -> its position in a record's ``bound``.
        bound_at: dict[str, int] = {}
        select_index: dict[tuple[AttrRef, ...], int] = {}
        members: dict[str, GroupMember] = {}
        for query in queries:
            if query.key in members:
                continue  # another replica's copy of the same query
            index = select_index.get(query.select)
            if index is None:
                index = select_index[query.select] = len(select_specs)
                select_specs.append(tuple([
                    bound_at.setdefault(ref.attribute, len(bound_at))
                    if ref.relation == index_side.relation
                    else PendingAttr(ref.attribute)
                    for ref in query.select
                ]))
            members[query.key] = GroupMember(
                query.key, query.subscriber, query.insertion_time, index
            )
        specs = tuple(select_specs)
        #: What every record of this plan shares; its members are one
        #: per distinct query key, in installation order.
        self.shape = GroupShape(
            group_signature, dis_side.relation, dis_side.expr,
            dis_side.invertible_attribute, dis_side.filters,
            tuple(members.values()), specs, None, BindingLayout.of(specs),
        )
        self.newest_insertion = max(m.insertion_time for m in self.shape.members)
        #: The trigger attributes a record binds, in ``bound`` order.
        self.bound_attributes = tuple(bound_at)
        #: Positional variants of :attr:`index_attr`/:attr:`bound_attributes`,
        #: bound lazily to the first trigger's ``Relation`` object so
        #: ``rewrite()`` can index ``trigger.values`` directly instead of
        #: going through ``DataTuple.value`` name lookups.
        self.pos_relation = None
        self.index_pos: Optional[int] = None
        #: ``trigger.values`` -> the tuple of values a record binds.
        self.bound_values: Optional[Callable[[tuple], tuple]] = None

    @_memo
    def needed_attributes(self) -> tuple[str, ...]:
        """Index-side attributes a DAI-V projection of the trigger must
        carry for *every* member: what the select lists read, the join
        expression's and the filters' attributes (sorted; DAI-V only)."""
        side = self.index_side
        needed = set(self.bound_attributes)
        needed.update(ref.attribute for ref in attributes_of(side.expr))
        needed.update(f.attribute for f in side.filters)
        return tuple(sorted(needed))

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
