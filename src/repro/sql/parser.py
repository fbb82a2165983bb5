"""A parser for the continuous-query SQL subset of Section 3.2.

Grammar (case-insensitive keywords)::

    query      := SELECT select_list
                  FROM relation [AS alias] ("," relation [AS alias])+
                  WHERE conjunct (AND conjunct)*
    select_list:= attr ("," attr)*
    conjunct   := expr "=" expr
    expr       := term (("+" | "-") term)*
    term       := factor (("*" | "/") factor)*
    factor     := NUMBER | STRING | attr | "(" expr ")" | "-" factor
    attr       := IDENT "." IDENT

A conjunct over two relations is a join conjunct; every other
conjunct must be a local equality filter of the form ``attr = literal``
(or ``literal = attr``) over a single relation, like ``A.Surname =
'Smith'`` in the paper's e-learning example.  :func:`parse_clauses`
returns these parts for any number of relations; :func:`parse_query`
adds the two-way rules: exactly two relations, one join conjunct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from ..errors import ParseError, QueryError
from .expr import AttrRef, BinaryOp, Const, Expression, Negate, relations_of
from .query import JoinQuery, LocalFilter, QuerySide
from .schema import Schema

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol>[(),.=*/+-])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "from", "where", "and", "as"}


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "string" | "ident" | "keyword" | "symbol" | "eof"
    text: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Split query text into tokens; raises :class:`ParseError` on junk."""
    tokens: list[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(f"unexpected character {text[position]!r} at {position}")
        position = match.end()
        if match.lastgroup == "ws":
            continue
        value = match.group()
        kind = match.lastgroup or "symbol"
        if kind == "ident" and value.lower() in _KEYWORDS:
            kind = "keyword"
            value = value.lower()
        tokens.append(Token(kind, value, match.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class Clauses(NamedTuple):
    """A parsed query before the two-way rules: the select list, the
    FROM relations in order, every join conjunct (an equality that
    relates two relations) and the local filters by relation."""

    select: tuple[AttrRef, ...]
    relations: tuple[str, ...]
    join_conjuncts: tuple[tuple[Expression, Expression], ...]
    filters: dict[str, tuple[LocalFilter, ...]]


class _Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: list[Token], schema: Optional[Schema]):
        self.tokens = tokens
        self.index = 0
        self.schema = schema
        self.aliases: dict[str, str] = {}

    # -- token plumbing -------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            raise ParseError(
                f"expected {wanted!r} at position {token.position}, "
                f"found {token.text!r}"
            )
        return self.advance()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        token = self.current
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    # -- grammar --------------------------------------------------------
    def parse_clauses(self) -> Clauses:
        self.expect("keyword", "select")
        # FROM must be parsed before the select refs can be resolved
        # against aliases, so scan ahead: find the FROM clause first.
        select_start = self.index
        depth = 0
        while not (self.current.kind == "keyword" and self.current.text == "from" and depth == 0):
            if self.current.kind == "eof":
                raise ParseError("missing FROM clause")
            if self.current.text == "(":
                depth += 1
            elif self.current.text == ")":
                depth -= 1
            self.advance()
        from_index = self.index
        self.expect("keyword", "from")
        self._parse_from()
        where_index = self.index

        # Now parse the select list with aliases known.
        self.index = select_start
        select = self._parse_select_list(stop_at=from_index)
        self.index = where_index

        self.expect("keyword", "where")
        join_conjuncts, filters = self._parse_where()
        self.expect("eof")
        relations = tuple(dict.fromkeys(self.aliases.values()))
        if len(relations) != len(self.aliases):
            raise ParseError("self-joins are not supported")
        return Clauses(
            tuple(select),
            relations,
            tuple(join_conjuncts),
            {name: tuple(found) for name, found in filters.items()},
        )

    def _parse_from(self) -> None:
        while True:
            name = self.expect("ident").text
            if self.schema is not None and name not in self.schema:
                raise ParseError(f"unknown relation {name!r}")
            alias = name
            if self.accept("keyword", "as"):
                alias = self.expect("ident").text
            if alias in self.aliases:
                raise ParseError(f"duplicate relation alias {alias!r}")
            self.aliases[alias] = name
            if not self.accept("symbol", ","):
                break
        if len(self.aliases) < 2:
            raise ParseError("at least two relations are required in FROM")

    def _parse_select_list(self, stop_at: int) -> list[AttrRef]:
        refs = [self._parse_attr()]
        while self.index < stop_at and self.accept("symbol", ","):
            refs.append(self._parse_attr())
        if self.index != stop_at:
            raise ParseError(
                f"unexpected token {self.current.text!r} in SELECT list"
            )
        return refs

    def _parse_attr(self) -> AttrRef:
        name = self.expect("ident").text
        self.expect("symbol", ".")
        attribute = self.expect("ident").text
        relation = self.aliases.get(name)
        if relation is None:
            raise ParseError(f"unknown relation or alias {name!r}")
        if self.schema is not None:
            rel = self.schema.relation(relation)
            if not rel.has_attribute(attribute):
                raise ParseError(
                    f"relation {relation} has no attribute {attribute!r}"
                )
        return AttrRef(relation, attribute)

    def _parse_where(self):
        join_conjuncts: list[tuple[Expression, Expression]] = []
        filters: dict[str, list[LocalFilter]] = {}
        while True:
            left = self._parse_expr()
            self.expect("symbol", "=")
            right = self._parse_expr()
            relations = relations_of(left) | relations_of(right)
            if len(relations) == 2:
                join_conjuncts.append((left, right))
            elif len(relations) == 1:
                relation = next(iter(relations))
                filters.setdefault(relation, []).append(
                    self._as_filter(left, right, relation)
                )
            elif len(relations) > 2:
                raise ParseError(
                    "a conjunct may reference at most two relations"
                )
            else:
                raise ParseError("conjunct references no relation")
            if not self.accept("keyword", "and"):
                break
        if not join_conjuncts:
            raise ParseError("missing join condition relating the relations")
        return join_conjuncts, filters

    @staticmethod
    def _as_filter(left: Expression, right: Expression, relation: str) -> LocalFilter:
        if isinstance(left, AttrRef) and isinstance(right, Const):
            return LocalFilter(left.attribute, right.value)
        if isinstance(right, AttrRef) and isinstance(left, Const):
            return LocalFilter(right.attribute, left.value)
        raise ParseError(
            f"local predicates must be attribute = literal (relation {relation})"
        )

    # -- expressions ----------------------------------------------------
    def _parse_expr(self) -> Expression:
        expr = self._parse_term()
        while True:
            if self.accept("symbol", "+"):
                expr = BinaryOp("+", expr, self._parse_term())
            elif self.accept("symbol", "-"):
                expr = BinaryOp("-", expr, self._parse_term())
            else:
                return expr

    def _parse_term(self) -> Expression:
        expr = self._parse_factor()
        while True:
            if self.accept("symbol", "*"):
                expr = BinaryOp("*", expr, self._parse_factor())
            elif self.accept("symbol", "/"):
                expr = BinaryOp("/", expr, self._parse_factor())
            else:
                return expr

    def _parse_factor(self) -> Expression:
        token = self.current
        if token.kind == "number":
            self.advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return Const(value)
        if token.kind == "string":
            self.advance()
            raw = token.text[1:-1]
            return Const(raw.replace("\\'", "'").replace("\\\\", "\\"))
        if token.text == "(":
            self.advance()
            expr = self._parse_expr()
            self.expect("symbol", ")")
            return expr
        if token.text == "-":
            self.advance()
            return Negate(self._parse_factor())
        if token.kind == "ident":
            return self._parse_attr()
        raise ParseError(
            f"unexpected token {token.text!r} at position {token.position}"
        )


def parse_clauses(text: str, schema: Optional[Schema] = None) -> Clauses:
    """Parse SQL text into its :class:`Clauses`, over any number of
    relations and join conjuncts (:func:`parse_query` adds the two-way
    rules).

    >>> parse_clauses("SELECT R.A FROM R, S, T WHERE R.B = S.E AND S.F = T.Y").relations
    ('R', 'S', 'T')
    """
    return _Parser(tokenize(text), schema).parse_clauses()


def parse_query(text: str, schema: Optional[Schema] = None) -> JoinQuery:
    """Parse SQL text into a :class:`~repro.sql.query.JoinQuery`.

    When ``schema`` is given, relation and attribute names are
    validated against it.

    >>> q = parse_query(
    ...     "SELECT D.Title, D.Conference FROM Document AS D, Authors AS A "
    ...     "WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'"
    ... )
    >>> q.query_type
    'T1'
    """
    try:
        clauses = parse_clauses(text, schema)
        if len(clauses.relations) > 2:
            raise ParseError(
                f"at most 2 relations allowed here, got {len(clauses.relations)}"
            )
        if len(clauses.join_conjuncts) > 1:
            raise ParseError("only one join condition is supported")
        # Orient the join condition: each side may reference exactly one
        # relation (Section 3.2), the left one first.
        left, right = clauses.relations
        first, second = clauses.join_conjuncts[0]
        first_rels, second_rels = relations_of(first), relations_of(second)
        if len(first_rels) != 1 or len(second_rels) != 1:
            raise ParseError(
                "each side of the join condition may reference exactly one "
                "relation"
            )
        if first_rels != {left}:
            first, second = second, first
        return JoinQuery(
            select=clauses.select,
            left=QuerySide(left, first, clauses.filters.get(left, ())),
            right=QuerySide(right, second, clauses.filters.get(right, ())),
        )
    except QueryError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc)) from exc
