"""Continuous N-way chain joins as pipelines of two-way joins.

A client program of the public :mod:`repro` API (the paper builds
two-way joins; multi-way joins are its stated future work):
:mod:`.chain` holds the chain query model, :mod:`.pipeline` installs a
chain as two-way stage queries, and ``python -m multiway`` (with
``src/`` and ``examples/`` on ``PYTHONPATH``) runs a 4-way demo.
"""

from .chain import ChainCondition, MultiwayQuery, parse_multiway_query
from .pipeline import MultiwaySubscription, brute_force_rows, subscribe_multiway

__all__ = [
    "ChainCondition",
    "MultiwayQuery",
    "MultiwaySubscription",
    "brute_force_rows",
    "parse_multiway_query",
    "subscribe_multiway",
]
