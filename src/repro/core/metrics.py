"""Load snapshots over a running engine (the paper's load metrics).

One of the thesis' stated technical contributions is "the introduction
of appropriate metrics for capturing individual node load and total
system load".  This module materializes them:

* **filtering load** ``F(n)`` — match candidates examined by node
  ``n`` (split by attribute/value level, i.e. rewriter/evaluator role);
* **storage load** ``S(n)`` — items resident at ``n`` (same split,
  plus parked notifications);
* totals ``TF`` / ``TS`` and distribution summaries (sorted vectors,
  Gini coefficient, top-share, participation).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ..sim import stats as distribution
from .base import NodeState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


@dataclass
class LoadSnapshot:
    """Per-node load vectors at one instant, keyed by node identifier."""

    filtering: dict[int, int]
    attribute_level_filtering: dict[int, int]
    value_level_filtering: dict[int, int]
    storage: dict[int, int]
    attribute_level_storage: dict[int, int]
    value_level_storage: dict[int, int]
    parked_notifications: dict[int, int]
    notifications_created: dict[int, int]
    messages_processed: dict[int, int]
    lease_reinstalls: dict[int, int]

    @classmethod
    def union(cls, parts: list["LoadSnapshot"]) -> "LoadSnapshot":
        """One snapshot from snapshots of disjoint node sets."""
        return cls(
            **{
                f.name: {i: v for part in parts for i, v in getattr(part, f.name).items()}
                for f in fields(cls)
            }
        )

    @property
    def total_lease_reinstalls(self) -> int:
        """Soft-state query copies actually restored by lease renewal."""
        return sum(self.lease_reinstalls.values())

    # -- totals ---------------------------------------------------------
    @property
    def total_filtering(self) -> int:
        """``TF`` over all nodes."""
        return sum(self.filtering.values())

    @property
    def total_storage(self) -> int:
        """``TS`` over all nodes."""
        return sum(self.storage.values())

    @property
    def total_evaluator_filtering(self) -> int:
        """Filtering performed at the value level only (evaluator role)."""
        return sum(self.value_level_filtering.values())

    @property
    def total_evaluator_storage(self) -> int:
        """Storage held at the value level only (evaluator role)."""
        return sum(self.value_level_storage.values())

    # -- distributions ----------------------------------------------------
    def sorted_filtering(self) -> np.ndarray:
        """Per-node filtering loads, most loaded first."""
        return distribution.sorted_loads(self.filtering.values())

    def filtering_gini(self) -> float:
        return distribution.gini(self.filtering.values())

    def filtering_top_share(self, fraction: float = 0.01) -> float:
        return distribution.top_share(self.filtering.values(), fraction)

    def filtering_participation(self) -> float:
        """Fraction of nodes doing any filtering work (utilization)."""
        return distribution.participation(self.filtering.values())


def snapshot(engine: "ContinuousQueryEngine", nodes=None) -> LoadSnapshot:
    """Collect the current load vectors from every live node (or from
    ``nodes``, a forked shard's own)."""
    filtering: dict[int, int] = {}
    al_filtering: dict[int, int] = {}
    vl_filtering: dict[int, int] = {}
    storage: dict[int, int] = {}
    al_storage: dict[int, int] = {}
    vl_storage: dict[int, int] = {}
    parked: dict[int, int] = {}
    created: dict[int, int] = {}
    processed: dict[int, int] = {}
    reinstalls: dict[int, int] = {}
    for node in engine.network if nodes is None else nodes:
        ident = node.ident
        state = node.app
        if not isinstance(state, NodeState):
            # A node no message ever reached holds no engine state, so
            # its load row is all zeros — recorded explicitly to keep
            # the distribution vectors (Gini, participation, ...) over
            # the whole node population.
            filtering[ident] = 0
            al_filtering[ident] = 0
            vl_filtering[ident] = 0
            storage[ident] = 0
            al_storage[ident] = 0
            vl_storage[ident] = 0
            parked[ident] = 0
            created[ident] = 0
            processed[ident] = 0
            reinstalls[ident] = 0
            continue
        breakdown = state.storage_breakdown()
        filtering[ident] = state.load.filtering
        al_filtering[ident] = state.load.attribute_level_filtering
        vl_filtering[ident] = state.load.value_level_filtering
        storage[ident] = breakdown.total
        al_storage[ident] = breakdown.attribute_level
        vl_storage[ident] = breakdown.value_level
        parked[ident] = breakdown.parked_notifications
        created[ident] = state.load.notifications_created
        processed[ident] = state.load.messages_processed
        reinstalls[ident] = state.load.lease_reinstalls
    return LoadSnapshot(
        filtering=filtering,
        attribute_level_filtering=al_filtering,
        value_level_filtering=vl_filtering,
        storage=storage,
        attribute_level_storage=al_storage,
        value_level_storage=vl_storage,
        parked_notifications=parked,
        notifications_created=created,
        messages_processed=processed,
        lease_reinstalls=reinstalls,
    )
