"""Common steps of the double-attribute index algorithms (Section 4.4.1).

A DAI query is indexed **twice** at the attribute level — once per join
attribute — so it has two rewriters (``q_L`` and ``q_R``) and the
rewriting load of a query is split between them.  Because both
rewriters react to tuples, evaluating rewritten queries exactly as in
SAI would create duplicate notifications (Figure 4.3); DAI-Q and DAI-T
each disable one of the two value-level match directions to restore
exactly-once semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..chord.node import ChordNode
from ..sql.query import LEFT, RIGHT, JoinQuery
from .base import Algorithm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


class DoubleAttributeIndex(Algorithm):
    """Shared behaviour of DAI-Q, DAI-T and DAI-V."""

    def index_labels(
        self, engine: "ContinuousQueryEngine", origin: ChordNode, query: JoinQuery
    ) -> list[str]:
        """Both sides: ``Hash(R + B)`` and ``Hash(S + E)`` (Section 4.4.1)."""
        return [LEFT, RIGHT]
