"""The paper's contribution: continuous equi-join evaluation over DHTs.

Four algorithms (SAI, DAI-Q, DAI-T, DAI-V) built on a shared two-level
indexing template, plus the optimizations of Section 4.7 (JFRT,
attribute-level replication) and the load metrics of Chapter 5.
"""

from .base import Algorithm, NodeState, StorageBreakdown
from .dai_q import DAIQuery
from .dai_t import DAITuple
from .dai_v import DAIValue
from .engine import ALGORITHMS, ContinuousQueryEngine, EngineConfig, make_algorithm
from .index_choice import (
    ArrivalStats,
    IndexChoiceStrategy,
    MaxRateChoice,
    MinRateChoice,
    RandomChoice,
    UniformityChoice,
    make_strategy,
)
from .jfrt import JoinFingersRoutingTable
from .metrics import LoadSnapshot, snapshot
from .notifications import Notification, group_by_subscriber
from .oracle import CentralizedOracle
from .replication import ReplicationScheme
from .sai import SingleAttributeIndex

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "ArrivalStats",
    "CentralizedOracle",
    "ContinuousQueryEngine",
    "DAIQuery",
    "DAITuple",
    "DAIValue",
    "EngineConfig",
    "IndexChoiceStrategy",
    "JoinFingersRoutingTable",
    "LoadSnapshot",
    "MaxRateChoice",
    "MinRateChoice",
    "NodeState",
    "Notification",
    "RandomChoice",
    "ReplicationScheme",
    "SingleAttributeIndex",
    "StorageBreakdown",
    "UniformityChoice",
    "group_by_subscriber",
    "make_algorithm",
    "make_strategy",
    "snapshot",
]
