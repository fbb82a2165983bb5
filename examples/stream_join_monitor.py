#!/usr/bin/env python3
"""Windowed stream-join monitoring, replayed by the serial driver.

Two sensor streams — ``Temp(SensorId, RoomId, Celsius)`` and
``Smoke(DetectorId, RoomId, Level)`` — are joined on ``RoomId`` with a
sliding window: an alert fires only when a hot reading and a smoke
reading from the *same room* occur within the window.  DAI-T is used so
that, after warm-up, each new reading produces alerts with no traffic
beyond its own indexing (the paper's headline optimization).

Run with::

    python examples/stream_join_monitor.py
"""

import random

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema, parse_query
from repro.bench.harness import run_workload
from repro.workload.generator import Workload, WorkloadEvent, WorkloadParams

WINDOW = 20.0
N_ROOMS = 8
N_READINGS = 300


def main() -> None:
    schema = Schema.from_dict(
        {
            "Temp": ["SensorId", "RoomId", "Celsius"],
            "Smoke": ["DetectorId", "RoomId", "Level"],
        }
    )
    network = ChordNetwork.build(256)
    engine = ContinuousQueryEngine(
        network, EngineConfig(algorithm="dai-t", window=WINDOW)
    )
    rng = random.Random(11)

    alert = parse_query(
        "SELECT T.RoomId, S.Level FROM Temp AS T, Smoke AS S "
        "WHERE T.RoomId = S.RoomId",
        schema,
    )
    events = [WorkloadEvent(0.0, "query", alert)]
    temp = schema.relation("Temp")
    smoke = schema.relation("Smoke")
    for index in range(N_READINGS):
        room = rng.randrange(N_ROOMS)
        if rng.random() < 0.7:
            reading = (
                temp,
                {"SensorId": rng.randrange(100), "RoomId": room, "Celsius": 20 + rng.randrange(60)},
            )
        else:
            reading = (
                smoke,
                {"DetectorId": rng.randrange(100), "RoomId": room, "Level": rng.randrange(10)},
            )
        events.append(WorkloadEvent(float(index), "tuple", reading))
    workload = Workload(schema, events, WorkloadParams(n_queries=1, n_tuples=N_READINGS))

    # Window eviction every 10 events keeps evaluator state bounded; the
    # replay evicts once more at the end.
    run_workload(engine, workload, seed=11, evict_every=10)
    (query,) = engine.queries.values()
    control_room = engine.network.node_at(query.subscriber.ident)
    print(f"alert query installed ({query.key}), window = {WINDOW} time units\n")

    alerts = engine.notifications(control_room)
    by_room: dict[int, int] = {}
    for alert in alerts:
        room, _level = alert.row
        by_room[room] = by_room.get(room, 0) + 1
    print(f"{len(alerts)} alerts over {N_READINGS} readings:")
    for room in sorted(by_room):
        print(f"  room {room}: {by_room[room]} correlated temp/smoke alerts")

    load = engine.load_snapshot()
    print(
        f"\nevaluator state after final eviction: "
        f"{load.total_evaluator_storage} items "
        f"(window keeps it bounded); "
        f"traffic: {engine.traffic.hops} hops total"
    )


if __name__ == "__main__":
    main()
