"""Load-generator correctness: pipelining must never change answers.

The pipelined driver removes the per-event drain, so DAI-Q/DAI-T pair
races become possible (both one-shot probes overtake the other tuple's
store); the settle pass — a paced soft-state replay — must close them.
These tests pin the whole contract on a small point: the pipelined run
produces the simulator's exact notification set and gates itself, a
benign run really takes the zero-copy relay, and the engine's stepwise
lease refresh is equivalent to the one-shot form.
"""

import asyncio

import pytest

from repro.bench.harness import run_workload
from repro.bench.macro import notification_digest
from repro.chord.network import ChordNetwork
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.net.cluster import ClusterConfig, LiveCluster, simulate_reference
from repro.net.loadgen import LoadgenConfig, build_report, compare_reports
from repro.perf import PERF
from repro.workload.generator import WorkloadParams, build_workload

POINT = LoadgenConfig(n_nodes=6, n_queries=8, n_tuples=48, domain_size=16, seed=3)


def test_loadgen_matches_simulator_and_gates_itself():
    # build_report itself raises on any digest disagreement: between
    # repeated runs and against the simulator oracle.
    report = build_report(POINT, algorithms=("dai-t",), check_sim=True)
    entry = report["algorithms"]["dai-t"]
    measured = entry["batched"]
    assert entry["digest"] == entry["sim_digest"]
    assert measured["batches_sent"] > 0
    # The settle pass may legitimately recover nothing at this size,
    # but must never *lose* notifications.
    assert measured["recovered_notifications"] >= 0
    assert measured["settle_seconds"] >= 0.0
    assert measured["total_seconds"] == pytest.approx(
        measured["install_seconds"]
        + measured["wall_seconds"]
        + measured["settle_seconds"],
        abs=2e-4,
    )

    # The report gates green against itself.
    assert compare_reports(report, report) == []

    # ... and trips loudly when the recorded answers change.
    tampered = {
        **report,
        "algorithms": {
            "dai-t": {**entry, "digest": "0" * 40, "notifications": 1}
        },
    }
    problems = compare_reports(report, tampered)
    assert any("digest changed" in problem for problem in problems)

    # ... or when the whole path (install + stream + settle) got slow:
    # a baseline a third of today's total is a 3x regression.
    faster = {
        **report,
        "algorithms": {
            "dai-t": {
                **entry,
                "batched": {
                    **measured,
                    "total_seconds": measured["total_seconds"] / 3,
                },
            }
        },
    }
    problems = compare_reports(report, faster)
    assert any("throughput regression" in problem for problem in problems)


def test_benign_run_takes_raw_relay_and_matches_simulator():
    """The zero-copy relay forwards original bytes; answers identical."""
    workload = build_workload(
        WorkloadParams(n_queries=6, n_tuples=30, domain_size=12, seed=5)
    )

    async def run() -> str:
        cluster = LiveCluster(
            ClusterConfig(algorithm="sai", n_nodes=6, seed=5)
        )
        await cluster.start()
        try:
            report = await cluster.run(workload)
        finally:
            await cluster.stop()
        return report.notification_digest

    PERF.reset()
    PERF.enable()
    try:
        digest = asyncio.run(run())
    finally:
        PERF.disable()
    relayed = PERF.counter("net.frames_relayed_raw")
    PERF.reset()
    assert relayed > 0
    assert digest == simulate_reference(
        workload, algorithm="sai", n_nodes=6, seed=5
    )[0]


def _sim_engine():
    workload = build_workload(
        WorkloadParams(n_queries=6, n_tuples=30, domain_size=12, seed=9)
    )
    engine = ContinuousQueryEngine(
        ChordNetwork.build(8), EngineConfig(algorithm="dai-q", seed=9)
    )
    run_workload(engine, workload, seed=9)
    return engine


def test_stepwise_lease_refresh_equals_one_shot():
    one_shot = _sim_engine()
    counts = one_shot.refresh_leases()

    stepwise = _sim_engine()
    kinds = []
    for kind, replay in stepwise.lease_refresh_steps():
        kinds.append(kind)
        replay()

    assert counts == {
        "queries": kinds.count("query"),
        "tuples": kinds.count("tuple"),
    }
    assert notification_digest(stepwise) == notification_digest(one_shot)


def test_lease_refresh_is_idempotent_on_answers():
    engine = _sim_engine()
    before = notification_digest(engine)
    delivered_before = sum(len(b) for b in engine.delivered.values())
    engine.refresh_leases()
    assert notification_digest(engine) == before
    assert sum(len(b) for b in engine.delivered.values()) == delivered_before
    assert engine.duplicate_deliveries == 0
