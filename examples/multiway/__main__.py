"""Continuous 4-way chain join via the pipeline extension.

The paper evaluates two-way joins and leaves multi-way joins as future
work; this program runs the pipeline of this package: a 4-way
supply-chain monitor decomposed into ordinary two-way continuous
queries whose intermediate results are re-published into the overlay.

Query: alert when an *order* for an *item* that is in *stock* at a
*depot* can be assigned to a carrier serving that depot::

    SELECT O.OrderId, C.Carrier
    FROM Orders O, Items I, Stock S, Routes C
    WHERE O.Item = I.ItemId AND I.ItemId = S.Item AND S.Depot = C.Depot

Run with::

    PYTHONPATH=src:examples python -m multiway
"""

import random

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema

from .pipeline import subscribe_multiway

SCHEMA = Schema.from_dict(
    {
        "Orders": ["OrderId", "Item"],
        "Items": ["ItemId", "Category"],
        "Stock": ["Item", "Depot"],
        "Routes": ["Depot", "Carrier"],
    }
)

QUERY = (
    "SELECT O.OrderId, C.Carrier "
    "FROM Orders AS O, Items AS I, Stock AS S, Routes AS C "
    "WHERE O.Item = I.ItemId AND I.ItemId = S.Item AND S.Depot = C.Depot"
)


def main() -> None:
    network = ChordNetwork.build(256)
    engine = ContinuousQueryEngine(network, EngineConfig(algorithm="dai-t"))
    rng = random.Random(21)

    control = network.nodes[0]
    subscription = subscribe_multiway(engine, control, QUERY, SCHEMA)
    print("pipeline installed:")
    for index, stage in enumerate(subscription.stage_queries):
        print(f"  stage {index}: {stage}")
    print()

    relations = {name: SCHEMA.relation(name) for name in SCHEMA.names}
    for step in range(300):
        engine.clock.advance(1)
        origin = network.random_node(rng)
        roll = rng.random()
        if roll < 0.35:
            engine.publish(
                origin,
                relations["Orders"],
                {"OrderId": step, "Item": rng.randrange(12)},
            )
        elif roll < 0.55:
            engine.publish(
                origin,
                relations["Items"],
                {"ItemId": rng.randrange(12), "Category": rng.randrange(3)},
            )
        elif roll < 0.8:
            engine.publish(
                origin,
                relations["Stock"],
                {"Item": rng.randrange(12), "Depot": rng.randrange(5)},
            )
        else:
            engine.publish(
                origin,
                relations["Routes"],
                {"Depot": rng.randrange(5), "Carrier": rng.randrange(4)},
            )

    print(f"{len(subscription.results)} distinct (order, carrier) assignments found")
    sample = sorted(subscription.results)[:8]
    for order_id, carrier in sample:
        print(f"  order {order_id} -> carrier {carrier}")
    print(
        f"\nintermediate tuples re-published per stage: "
        f"{subscription.republished}; overlay traffic {engine.traffic.hops} hops"
    )


if __name__ == "__main__":
    main()
