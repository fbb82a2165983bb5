"""repro — continuous two-way equi-join queries over structured overlays.

A from-scratch reproduction of *"Distributed Evaluation of Continuous
Equi-join Queries over Large Structured Overlay Networks"* (Idreos,
Tryfonopoulos, Koubarakis — ICDE 2006 / TU Crete thesis 2005): the
Chord DHT substrate, the extended ``send``/``multisend`` routing API,
and the four continuous-join algorithms SAI, DAI-Q, DAI-T and DAI-V
with their optimizations (join fingers routing table, attribute-level
replication), evaluated by a discrete-event simulation.

Quickstart::

    from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema

    schema = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
    network = ChordNetwork.build(128)
    engine = ContinuousQueryEngine(network, EngineConfig(algorithm="dai-t"))

    subscriber = network.nodes[0]
    engine.subscribe(subscriber, "SELECT R.A, S.D FROM R, S WHERE R.B = S.E",
                     schema)
    engine.publish(network.nodes[1], schema.relation("R"), {"A": 1, "B": 7})
    engine.publish(network.nodes[2], schema.relation("S"), {"D": 2, "E": 7})
    print(engine.notifications(subscriber))
"""

from .chord import ChordNetwork, ChordNode, ConsistentHash, IdentifierSpace, Router
from .core import (
    ALGORITHMS,
    CentralizedOracle,
    ContinuousQueryEngine,
    EngineConfig,
    LoadSnapshot,
    MultiwaySubscription,
    Notification,
    subscribe_multiway,
)
from .errors import (
    DeliveryError,
    NetworkError,
    ParseError,
    QueryError,
    ReproError,
    RoutingError,
    SchemaError,
)
from .faults import ChaosHarness, DelaySpec, FaultInjector, FaultPlan
from .sim import LogicalClock, TrafficStats
from .sql import (
    DataTuple,
    JoinQuery,
    MultiwayQuery,
    Relation,
    Schema,
    parse_multiway_query,
    parse_query,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "CentralizedOracle",
    "ChaosHarness",
    "ChordNetwork",
    "ChordNode",
    "ConsistentHash",
    "ContinuousQueryEngine",
    "DataTuple",
    "DelaySpec",
    "DeliveryError",
    "EngineConfig",
    "FaultInjector",
    "FaultPlan",
    "IdentifierSpace",
    "JoinQuery",
    "LoadSnapshot",
    "LogicalClock",
    "MultiwayQuery",
    "MultiwaySubscription",
    "NetworkError",
    "Notification",
    "ParseError",
    "QueryError",
    "Relation",
    "ReproError",
    "Router",
    "RoutingError",
    "Schema",
    "SchemaError",
    "TrafficStats",
    "parse_multiway_query",
    "parse_query",
    "subscribe_multiway",
    "__version__",
]
