"""The headline chaos guarantee: exact convergence under faults.

For every algorithm (SAI, DAI-Q, DAI-T, DAI-V), a workload run under
>= 5% message loss, injected delivery delays and at least three abrupt
node crashes — with soft-state lease recovery — delivers *exactly* the
answer set a centralized oracle computes, with zero duplicate
notifications.  Runs are deterministic in ``(workload seed, plan
seed)``.
"""

import dataclasses
import random

import pytest

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig, Schema
from repro.bench.harness import run_workload
from repro.faults import ChaosHarness, DelaySpec, FaultInjector, FaultPlan, churn_schedule

from .scripted import oracle_of, scripted

ALGORITHMS = ["sai", "dai-q", "dai-t", "dai-v"]

SCHEMA = Schema.from_dict({"R": ["A", "B"], "S": ["D", "E"]})
QUERY = "SELECT R.A, S.D FROM R, S WHERE R.B = S.E"

CHAOS_PLAN = FaultPlan(
    loss_probability=0.05,
    delay=DelaySpec(probability=0.2, minimum=0.5, maximum=4.0),
    seed=17,
)


def run_chaos_workload(
    algorithm,
    seed,
    *,
    plan=CHAOS_PLAN,
    n_events=160,
    n_nodes=48,
    domain=6,
    crash_every=40,
):
    """One seeded chaos run; returns (engine, oracle, harness, queries).

    Two subscribers pose the query, then ``n_events`` tuples stream one
    time unit apart through ``run_workload``, which lands delayed
    deliveries as the stream goes; a node crashes just before every
    ``crash_every``-th publish (``plan`` with ``crash_every`` set, via
    ``churn_schedule``), then the harness settles.
    """
    plan = dataclasses.replace(plan, crash_every=float(crash_every))
    injector = FaultInjector(plan)
    network = ChordNetwork.build(n_nodes, injector=injector)
    engine = ContinuousQueryEngine(
        network, EngineConfig(algorithm=algorithm, index_choice="random", seed=seed)
    )
    rng = random.Random(seed)
    tuples = [
        ("R", {"A": index, "B": rng.randrange(domain)})
        if rng.random() < 0.5
        else ("S", {"D": index, "E": rng.randrange(domain)})
        for index in range(n_events)
    ]
    workload = scripted(SCHEMA, [QUERY, QUERY], tuples)
    harness = ChaosHarness(engine, injector)
    run_workload(
        engine, workload, seed=seed, schedule=churn_schedule(plan, harness, workload)
    )
    harness.settle()
    return engine, oracle_of(engine), harness, list(engine.queries.values())


class TestChaosConvergence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_exact_oracle_equivalence_under_faults(self, algorithm):
        engine, oracle, harness, queries = run_chaos_workload(algorithm, seed=42)
        assert harness.injector.crashes >= 3
        stats = engine.traffic.snapshot()
        assert stats.messages_dropped > 0  # the plan really did bite
        assert stats.messages_delayed > 0
        for query in queries:
            got = engine.delivered_rows(query.key)
            want = oracle.rows_for(query.key)
            assert got == want, (
                f"{algorithm}: delivered {len(got)} rows, oracle has "
                f"{len(want)} (missing={len(want - got)}, extra={len(got - want)})"
            )
        assert engine.duplicate_deliveries == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_subscriber_inboxes_have_no_duplicates(self, algorithm):
        engine, _, _, queries = run_chaos_workload(algorithm, seed=43)
        for query in queries:
            subscriber = engine.network.node_at(query.subscriber.ident)
            inbox = engine.notifications(subscriber)
            identities = [n.identity for n in inbox if n.query_key == query.key]
            assert len(identities) == len(set(identities))


class TestChaosMetrics:
    def test_fault_metrics_surface_in_snapshots(self):
        engine, _, harness, queries = run_chaos_workload("dai-t", seed=44)
        traffic = engine.traffic.snapshot()
        assert traffic.messages_dropped > 0
        assert traffic.retries > 0
        assert harness.injector.backoff_total > 0.0
        # Crash every rewriter holding the first query's attribute-level
        # copies; the next lease refresh must restore them — and count it.
        key = queries[0].key
        holders = [
            node
            for node in engine.network.nodes
            if any(stored.query.key == key for stored in engine.state(node).alqt)
        ]
        assert holders
        for holder in holders:
            harness.crash(holder)
        harness.settle()
        load = engine.load_snapshot()
        assert load.total_lease_reinstalls >= 1
        assert sum(load.lease_reinstalls.values()) == load.total_lease_reinstalls

    def test_windowed_chaos_converges_too(self):
        plan = FaultPlan(
            loss_probability=0.06,
            delay=DelaySpec(probability=0.15, minimum=0.5, maximum=3.0),
            seed=23,
        )
        engine, oracle, harness, queries = run_chaos_workload(
            "sai", seed=45, plan=plan
        )
        assert harness.injector.crashes >= 3
        for query in queries:
            assert engine.delivered_rows(query.key) == oracle.rows_for(query.key)


class TestChaosDeterminism:
    def test_identical_seeds_identical_outcome(self):
        first_engine, _, _, first_queries = run_chaos_workload("dai-q", seed=46)
        second_engine, _, _, second_queries = run_chaos_workload("dai-q", seed=46)
        for fq, sq in zip(first_queries, second_queries):
            assert first_engine.delivered_rows(fq.key) == second_engine.delivered_rows(
                sq.key
            )
        first = first_engine.traffic.snapshot()
        second = second_engine.traffic.snapshot()
        assert first.hops == second.hops
        assert first.messages == second.messages
        assert first.messages_dropped == second.messages_dropped
        assert first.messages_delayed == second.messages_delayed

    def test_different_plan_seed_changes_fault_pattern(self):
        base = run_chaos_workload("dai-q", seed=46)[0].traffic.snapshot()
        other_plan = FaultPlan(
            loss_probability=0.05,
            delay=DelaySpec(probability=0.2, minimum=0.5, maximum=4.0),
            seed=99,
        )
        other = run_chaos_workload("dai-q", seed=46, plan=other_plan)[0]
        assert other.traffic.snapshot().messages_dropped != base.messages_dropped
