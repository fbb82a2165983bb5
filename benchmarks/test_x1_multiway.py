"""X1 — extension benchmark: multiway pipelines vs. chain length.

Not a paper figure — the thesis names multi-way joins as future work.
This benchmark measures the pipeline decomposition of
``examples/multiway/``: traffic per inserted tuple grows with the
chain length (each intermediate match is re-published and re-indexed),
and the answers always equal the brute-force ground truth.
"""

import random

from multiway import brute_force_rows, parse_multiway_query, subscribe_multiway
from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema

SCHEMA = Schema.from_dict(
    {
        "R0": ["a", "b"],
        "R1": ["a", "b"],
        "R2": ["a", "b"],
        "R3": ["a", "b"],
    }
)


def chain_sql(length):
    relations = [f"R{i}" for i in range(length)]
    conditions = " AND ".join(
        f"R{i}.b = R{i + 1}.a" for i in range(length - 1)
    )
    return (
        f"SELECT {relations[0]}.a, {relations[-1]}.b "
        f"FROM {', '.join(relations)} WHERE {conditions}"
    )


def run_chain(length, n_tuples=240, domain=5, seed=3):
    rng = random.Random(seed)
    network = ChordNetwork.build(64)
    engine = ContinuousQueryEngine(
        network, EngineConfig(algorithm="dai-t", index_choice="random")
    )
    sql = chain_sql(length)
    subscription = subscribe_multiway(engine, network.nodes[0], sql, SCHEMA)
    inserted = []
    before = engine.traffic.hops
    for _ in range(n_tuples):
        engine.clock.advance(1)
        relation = SCHEMA.relation(f"R{rng.randrange(length)}")
        values = {"a": rng.randrange(domain), "b": rng.randrange(domain)}
        inserted.append(
            engine.publish(network.random_node(rng), relation, values)
        )
    hops = engine.traffic.hops - before
    expected = brute_force_rows(
        parse_multiway_query(sql, SCHEMA), inserted, insertion_time=0.0
    )
    return subscription, hops / n_tuples, expected


def test_x1_multiway(benchmark):
    def experiment():
        return {length: run_chain(length) for length in (2, 3, 4)}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    for length, (subscription, _, expected) in results.items():
        assert subscription.results == expected, f"chain of {length} diverged"
        assert expected, f"chain of {length} was vacuous"

    # Longer chains cost more traffic per insertion (intermediates are
    # re-published and fully re-indexed).
    hops = {length: per_tuple for length, (_, per_tuple, _) in results.items()}
    assert hops[3] > hops[2]
    assert hops[4] > hops[3]
