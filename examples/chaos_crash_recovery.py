#!/usr/bin/env python3
"""Continuous queries surviving message loss, delays and node crashes.

A chaos-engineering take on the paper's setting: while an order/stock
stream runs, every routed delivery can be dropped (retried with backoff
by the router) or delayed (landing later, possibly out of order), and
nodes crash abruptly — losing their installed queries and value-level
state.  Recovery is pure soft state: subscribers re-install their
queries as leases and publishers republish windowed tuples; receivers
deduplicate, so the delivered answer set still converges to exactly the
centralized oracle's ground truth, with zero duplicate notifications.

Run with::

    python examples/chaos_crash_recovery.py
"""

import random

from repro import (
    ChordNetwork,
    ContinuousQueryEngine,
    DataTuple,
    EngineConfig,
    Schema,
    parse_query,
)
from repro.bench.harness import run_workload
from repro.core.oracle import CentralizedOracle
from repro.faults import ChaosHarness, DelaySpec, FaultInjector, FaultPlan, churn_schedule
from repro.workload.generator import Workload, WorkloadEvent, WorkloadParams

N_EVENTS = 300
CRASH_EVERY = 60
ALGORITHM = "dai-t"


def main() -> None:
    schema = Schema.from_dict(
        {"Orders": ["OrderId", "Item"], "Stock": ["Item", "Depot"]}
    )
    plan = FaultPlan(
        loss_probability=0.08,
        delay=DelaySpec(probability=0.15, minimum=0.5, maximum=3.0),
        crash_every=float(CRASH_EVERY),  # one publish per time unit
        seed=7,
    )
    injector = FaultInjector(plan)
    network = ChordNetwork.build(128, injector=injector)
    engine = ContinuousQueryEngine(network, EngineConfig(algorithm=ALGORITHM))

    # One subscription, then the order/stock stream one time unit apart.
    sql = (
        "SELECT O.OrderId, S.Depot FROM Orders AS O, Stock AS S "
        "WHERE O.Item = S.Item"
    )
    events = [WorkloadEvent(0.0, "query", parse_query(sql, schema))]
    orders = schema.relation("Orders")
    stock = schema.relation("Stock")
    rng = random.Random(3)
    for index in range(N_EVENTS):
        if rng.random() < 0.5:
            tup = (orders, {"OrderId": index, "Item": rng.randrange(20)})
        else:
            tup = (stock, {"Item": rng.randrange(20), "Depot": rng.randrange(5)})
        events.append(WorkloadEvent(1.0 + index, "tuple", tup))
    workload = Workload(schema, events, WorkloadParams(n_queries=1, n_tuples=N_EVENTS))

    # The replay lands delayed deliveries as the stream goes and crashes
    # a node (never the subscriber) every CRASH_EVERY time units.
    harness = ChaosHarness(engine, injector)
    run_workload(engine, workload, seed=3, schedule=churn_schedule(plan, harness, workload))
    (query,) = engine.queries.values()
    print(f"monitored order/stock matches ({query.key}) under chaos\n")
    for key in harness.crashed_keys:
        print(f"  node {key} crashed")

    harness.settle()

    oracle = CentralizedOracle()
    oracle.subscribe(query)
    for event in events[1:]:
        oracle.insert(DataTuple.make(*event.payload, pub_time=event.time))
    stats = network.stats.snapshot()
    got = engine.delivered_rows(query.key)
    want = oracle.rows_for(query.key)
    print(
        f"\nchaos: {injector.crashes} crashes, "
        f"{stats.messages_dropped} drops, "
        f"{stats.retries} retries, "
        f"{stats.messages_delayed} delayed deliveries"
    )
    print(f"rows delivered: {len(got)}; oracle ground truth: {len(want)}")
    print(f"duplicate notifications: {engine.duplicate_deliveries}")
    if got == want and engine.duplicate_deliveries == 0:
        print("exact convergence despite loss, delay and crashes ✔")
    else:
        print(f"divergence! missing={len(want - got)} extra={len(got - want)}")


if __name__ == "__main__":
    main()
