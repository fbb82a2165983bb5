"""Load-generator correctness: pipelining must never change answers.

The pipelined driver removes the per-event drain, so a DAI-Q/DAI-T pair
can reach its value nodes in either order; the value nodes decide which
side answers by the publish times the messages carry, so no settle pass
follows the stream.  These tests pin the whole contract on small
points: every algorithm's pipelined run produces the simulator's exact
notification set with no answer created twice, its expdb row gates
itself and cannot finish once it leaves the simulator, a benign run
really takes the zero-copy relay, and the engine's stepwise lease
refresh (after a loss) is equivalent to the one-shot form.
"""

import asyncio
import logging
from dataclasses import replace

import pytest

from repro.bench.harness import run_workload
from repro.bench.rows import notification_digest
from repro.chord.network import ChordNetwork
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.expdb.db import decode_params, normalize_params
from repro.expdb.gate import gate_rows
from repro.expdb.runner import run_experiment
from repro.net.cluster import ClusterConfig, LiveCluster, simulate_reference
from repro.net.loadgen import LoadgenConfig, _drive, run_load_sync
from repro.perf import PERF
from repro.workload.generator import WorkloadParams, build_workload

from ..expdb.gate_fakes import export_rows

POINT = LoadgenConfig(n_nodes=6, n_queries=8, n_tuples=48, domain_size=16, seed=3)

LIVE_ROW = {
    "transport": "live",
    "algorithm": "dai-t",
    "n_nodes": POINT.n_nodes,
    "n_queries": POINT.n_queries,
    "n_tuples": POINT.n_tuples,
    "domain_size": POINT.domain_size,
    "seed": POINT.seed,
}


def test_loadgen_matches_simulator_and_gates_itself():
    config = replace(POINT, algorithm="dai-t")
    report = run_load_sync(config)
    assert (report.digest, report.notifications) == simulate_reference(
        config.workload(), algorithm="dai-t", n_nodes=POINT.n_nodes, seed=POINT.seed
    )
    assert report.batches_sent > 0

    # The same point as a ``live`` row: the runner checks it against the
    # simulator itself, and stores the whole path in the one wall column.
    outcome = run_experiment(decode_params(normalize_params(LIVE_ROW)))
    measured = outcome.metrics["live"]
    assert outcome.metrics["notification_digest"] == report.digest
    assert outcome.resources["wall_seconds"] == measured["total_seconds"]
    assert outcome.resources["stream_seconds"] == measured["wall_seconds"]
    assert measured["total_seconds"] == pytest.approx(
        measured["install_seconds"] + measured["wall_seconds"], abs=2e-4
    )

    # The recorded row gates green against the live path itself (a
    # 60 ms wall is all noise, so the stored one is made generous) ...
    (row,) = export_rows([(LIVE_ROW, outcome.metrics, outcome.resources)])
    row["wall_seconds"] = 60.0
    assert gate_rows([row]) == []

    # ... and trips loudly when the recorded answers change.
    tampered = {**row, "notification_digest": "0" * 40, "notifications_delivered": 1}
    problems = gate_rows([tampered])
    assert any("notification_digest changed" in problem for problem in problems)
    assert any("notifications_delivered changed" in problem for problem in problems)


async def _pipelined(config):
    """One pipelined run; returns the report and the engine's
    subscriber-side counters."""
    cluster = LiveCluster(
        ClusterConfig(
            algorithm=config.algorithm,
            n_nodes=config.n_nodes,
            seed=config.seed,
            net=config.net_config(),
        )
    )
    await cluster.start()
    try:
        report = await _drive(cluster, config.workload(), config)
        engine = cluster.engine
        held = sum(len(entries) for _, state in engine.adopted_states()
                   for entries in state.held.values())
        assert held == 0 and not cluster.in_flight.ledger  # quiescent
        assert list(engine.lease_refresh_steps()) == []  # nothing was lost
        return report, engine.duplicate_deliveries + engine.suppressed_renotifications
    finally:
        await cluster.stop()


@pytest.mark.parametrize("budget", [256, 1024])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("algorithm", ["sai", "dai-q", "dai-t", "dai-v"])
def test_pipelined_run_equals_simulator_without_settle(algorithm, seed, budget):
    """No settle pass: the simulator's exact answer set, and no answer
    created that the simulator does not create.  Two pairs can give one
    answer row (same selected values); the simulator then suppresses the
    second before its hop, a pipelined run also delivers it as a
    duplicate when both are in flight — together exactly the
    simulator's count.  DAI-T creates at most that: its rewriter may
    meet a later trigger of a rewritten key first and send only that."""
    config = replace(POINT, algorithm=algorithm, seed=seed, inflight_budget=budget)
    report, repeated = asyncio.run(_pipelined(config))
    network = ChordNetwork.build(config.n_nodes)
    engine = ContinuousQueryEngine(network, EngineConfig(algorithm=algorithm, seed=seed))
    run_workload(engine, config.workload(), seed=seed)
    assert (report.digest, report.notifications) == (
        notification_digest(engine),
        sum(len(batch) for batch in engine.delivered.values()),
    )
    if algorithm == "dai-t":
        assert repeated <= engine.suppressed_renotifications
    else:
        assert repeated == engine.suppressed_renotifications


def test_a_live_row_that_leaves_the_simulator_cannot_finish(monkeypatch):
    """A live row raises on a digest or a count the oracle does not
    confirm, so the worker records an error and the gate a failure."""
    import repro.net.loadgen as loadgen_module

    params = decode_params(normalize_params(LIVE_ROW))
    real = loadgen_module.simulate_reference
    for tamper in (
        lambda digest, delivered: ("0" * 40, delivered),
        lambda digest, delivered: (digest, delivered + 1),
    ):
        monkeypatch.setattr(
            loadgen_module,
            "simulate_reference",
            lambda *args, **kwargs: tamper(*real(*args, **kwargs)),
        )
        with pytest.raises(RuntimeError, match="diverged from the simulator"):
            run_experiment(params)


def test_benign_run_takes_raw_relay_and_matches_simulator(caplog):
    """The zero-copy relay forwards original bytes; answers identical.
    The loop's own work is counted (chunks, frames, flushes, recoveries,
    dials) and a run nothing went wrong in logs nothing."""
    workload = build_workload(
        WorkloadParams(n_queries=6, n_tuples=30, domain_size=12, seed=5)
    )

    async def run() -> tuple[str, int]:
        cluster = LiveCluster(
            ClusterConfig(algorithm="sai", n_nodes=6, seed=5)
        )
        await cluster.start()
        try:
            report = await cluster.run(workload)
            outboxes = sum(len(p._outboxes) for p in cluster.peers.values())
        finally:
            await cluster.stop()
        return report.notification_digest, outboxes

    PERF.reset()
    PERF.enable()
    try:
        with caplog.at_level(logging.DEBUG, logger="repro.net"):
            digest, outboxes = asyncio.run(run())
    finally:
        PERF.disable()
    counters = {
        name: PERF.counter(f"net.{name}")
        for name in (
            "frames_relayed_raw", "chunks", "frames_received",
            "flushes", "writes", "recoveries", "connects",
        )
    }
    PERF.reset()
    assert counters["frames_relayed_raw"] > 0
    # Frames per chunk and writes per flush are derivable, and sane.
    assert 0 < counters["chunks"] <= counters["frames_received"]
    assert 0 < counters["writes"] <= counters["flushes"] + counters["recoveries"]
    # Benign: the only thing ever awaited was each outbox's first dial
    # (or, rarely, a drain) — no retry, hence no log record at all.
    assert counters["connects"] == outboxes <= counters["recoveries"]
    assert [r for r in caplog.records if r.name == "repro.net"] == []
    assert digest == simulate_reference(
        workload, algorithm="sai", n_nodes=6, seed=5
    )[0]


def _sim_engine():
    """A replayed engine whose ring then lost a node (the lease refresh
    replays only after a loss)."""
    workload = build_workload(
        WorkloadParams(n_queries=6, n_tuples=30, domain_size=12, seed=9)
    )
    network = ChordNetwork.build(8)
    engine = ContinuousQueryEngine(network, EngineConfig(algorithm="dai-q", seed=9))
    run_workload(engine, workload, seed=9)
    network.fail(network.nodes[3])
    network.run_stabilization(2, fix_all_fingers=True)
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
    } == {"queries": 6, "tuples": 30}
    assert notification_digest(stepwise) == notification_digest(one_shot)


def test_lease_refresh_is_idempotent_on_answers():
    engine = _sim_engine()
    before = notification_digest(engine)
    delivered_before = sum(len(b) for b in engine.delivered.values())
    engine.refresh_leases()
    assert notification_digest(engine) == before
    assert sum(len(b) for b in engine.delivered.values()) == delivered_before
    assert engine.duplicate_deliveries == 0
