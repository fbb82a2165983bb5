"""A ring whose members are created on first touch ≡ the ring created whole.

``ChordNetwork.build`` creates no node: a member exists once a routed
leg ends at it, an origin draw picks it, or someone asks for it by
identifier.  Nothing a run reports may depend on which members exist:
the same run over a ring forced whole by ``network.nodes`` before it
starts must give the same exact columns — per-type traffic, digest,
load vectors, evictions — on every executor, stripped and featured.
"""

from __future__ import annotations

import pytest

from repro.bench.configs import Scale
from repro.bench.harness import run_workload, workload_for
from repro.chord.network import ChordNetwork
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.sim.shard import fork_available, run_sharded

ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

POINT = Scale(
    name="lazy-ring-test", n_nodes=512, n_queries=20, n_tuples=40, domain_size=30
)
WORKLOAD = workload_for(POINT)

CONFIGS = {
    "stripped": {},
    "featured": {"window": 20.0, "replication_factor": 2, "jfrt_capacity": 4},
}

EXECUTORS = ("serial", "staged", "forked")


def run(algorithm: str, config: str, executor: str, *, whole: bool):
    network = ChordNetwork.build(POINT.n_nodes)
    if whole:
        network.nodes
    engine = ContinuousQueryEngine(
        network,
        EngineConfig(algorithm, index_choice="random", seed=1, **CONFIGS[config]),
    )
    if executor == "serial":
        report = run_workload(engine, WORKLOAD, seed=1, evict_every=16)
    else:
        shards = 2 if executor == "forked" else 1
        report = run_sharded(
            engine, WORKLOAD, shards=shards, batch_size=16, seed=1, evict_every=16
        )
    return network, report.to_row()


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_lazy_ring_matches_the_ring_created_whole(algorithm, config, executor):
    if executor == "forked" and not fork_available():
        pytest.skip("requires fork start method")
    network, lazy = run(algorithm, config, executor, whole=False)
    _, whole = run(algorithm, config, executor, whole=True)
    assert lazy == whole
    assert lazy["load"]["nodes"] == POINT.n_nodes
    assert len(network._nodes) < POINT.n_nodes  # the regime under test


def test_load_of_a_large_staged_run_creates_no_member():
    """Every member has a load row, created or not; reading them
    creates none, and a run creates only what it delivers to or
    publishes from."""
    n_nodes = 20_000
    network = ChordNetwork.build(n_nodes)
    origins = set()
    draw = network.random_node

    def recorded_draw(rng):
        node = draw(rng)
        origins.add(node.ident)
        return node

    network.random_node = recorded_draw
    engine = ContinuousQueryEngine(
        network, EngineConfig("sai", index_choice="random", seed=1)
    )
    workload = workload_for(
        Scale("large", n_nodes=n_nodes, n_queries=20, n_tuples=200, domain_size=1500)
    )
    run_sharded(engine, workload, shards=1, seed=1)
    created = set(network._nodes)
    load = engine.load_snapshot()
    assert set(network._nodes) == created
    for vector in vars(load).values():
        assert len(vector) == n_nodes
    adopted = {ident for ident, _ in engine.adopted_states()}
    assert created <= adopted | origins
    assert len(created) < n_nodes // 2
