"""Relational data model, expressions, queries, and the SQL parser."""

from .expr import AttrRef, BinaryOp, Const, Expression, Negate, evaluate, substitute
from .multiway import ChainCondition, MultiwayQuery, parse_multiway_query
from .parser import parse_query
from .query import (
    LEFT,
    RIGHT,
    BoundValue,
    JoinQuery,
    LocalFilter,
    PendingAttr,
    QuerySide,
    Subscriber,
    rewrite,
)
from .schema import Relation, Schema, example_elearning_schema
from .tuples import DataTuple, ProjectedTuple

__all__ = [
    "AttrRef",
    "ChainCondition",
    "MultiwayQuery",
    "parse_multiway_query",
    "BinaryOp",
    "BoundValue",
    "Const",
    "DataTuple",
    "Expression",
    "JoinQuery",
    "LEFT",
    "LocalFilter",
    "Negate",
    "PendingAttr",
    "ProjectedTuple",
    "QuerySide",
    "Relation",
    "RIGHT",
    "Schema",
    "Subscriber",
    "evaluate",
    "example_elearning_schema",
    "parse_query",
    "rewrite",
    "substitute",
]
