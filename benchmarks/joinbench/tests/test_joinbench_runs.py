"""End-to-end behaviour of the benchmark itself, at smoke size."""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from joinbench import bench, spec
from joinbench.drivers import AlgRun, drive_live
from joinbench.trace import leftover_wrappers

RUN_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py"
)
SIM = spec.WORKLOAD_BY_NAME["sim_window"]


def smoke(workload, seed, trace=False):
    return bench.run_workload(
        workload, seed=seed, seconds=0.0, trace=trace, smoke=True
    )


def counted(outcome):
    return {name: outcome.end_to_end[name] for name in spec.EXACT_METRICS}


def test_same_seed_repeats_exactly_and_another_seed_does_not():
    first, again, other = smoke(SIM, 1), smoke(SIM, 1), smoke(SIM, 2)
    assert first.verdict.correct and first.verdict.failed == 0
    assert first.verdict.digest == again.verdict.digest
    assert counted(first) == counted(again)
    assert other.verdict.correct
    assert other.verdict.digest != first.verdict.digest


def test_a_traced_run_leaves_no_wrapper_and_changes_no_count():
    before = smoke(SIM, 1)
    traced = smoke(SIM, 1, trace=True)
    assert leftover_wrappers() == []
    after = smoke(SIM, 1)
    assert counted(before) == counted(traced) == counted(after)
    assert before.verdict.digest == traced.verdict.digest == after.verdict.digest
    layers = traced.per_layer
    assert set(layers) == {metric.name for metric in spec.PER_LAYER}
    assert layers["core.engine.publish.calls"] == len(spec.ALGORITHMS) * SIM.smoke.n_tuples
    assert layers["core.tables.evict.calls"] > 0
    assert layers["trace.covered_share"] > 0.6
    assert layers["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("name", [w.name for w in spec.WORKLOADS])
def test_every_workload_is_correct_at_smoke_size(name):
    outcome = smoke(spec.WORKLOAD_BY_NAME[name], 1)
    assert outcome.verdict.problems == []
    assert outcome.verdict.failed == 0 and outcome.verdict.attempted > 0
    assert set(outcome.end_to_end) == {metric.name for metric in spec.END_TO_END}
    assert all(value > 0 for value in outcome.end_to_end.values())


@pytest.mark.parametrize("trace, table", [(0, spec.END_TO_END), (1, spec.PER_LAYER)])
def test_last_stdout_line_is_the_contract_result(trace, table):
    completed = subprocess.run(
        [
            sys.executable, RUN_PY,
            "--workload", "live_paced", "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric.name for metric in table]
    units = {metric.name: metric.unit for metric in table}
    assert all(
        entry["unit"] == units[name] and isinstance(entry["value"], (int, float))
        for name, entry in result["metrics"].items()
    )


def test_failure_counts_add_up_shed_frames_and_missing_notifications():
    size = spec.Size(n_nodes=4, n_queries=5, n_tuples=10, domain_size=8)
    clean = AlgRun("sai", notifications=20)
    assert bench.failure_counts(clean, size, 20, live=True) == (35, 0)
    shed = AlgRun("sai", notifications=20, frames_shed=3, delivery_failures=3)
    assert bench.failure_counts(shed, size, 20, live=True) == (35, 3)
    missing = AlgRun("sai", notifications=18, raised=1)
    assert bench.failure_counts(missing, size, 20, live=True) == (35, 3)
    duplicated = AlgRun("sai", notifications=20, duplicates=2)
    assert bench.failure_counts(duplicated, size, 20, live=False) == (35, 2)
    stalled = AlgRun("sai", notifications=20, unsustainable=True)
    assert bench.failure_counts(stalled, size, 20, live=True) == (35, 35)


def test_a_saturated_send_window_sheds_frames_and_counts_them_failed():
    """Force ``frames_shed`` for real: one-frame send windows on a live
    cluster make peers shed, the answers go missing, and both show up
    in the failure count instead of raising."""
    from repro.net.cluster import ClusterConfig, LiveCluster, simulate_reference
    from repro.net.peer import NetConfig
    from repro.workload.generator import WorkloadParams, build_workload

    workload = build_workload(
        WorkloadParams(n_queries=12, n_tuples=40, domain_size=6, seed=5)
    )
    run = AlgRun("sai")

    async def session():
        cluster = LiveCluster(
            ClusterConfig(
                algorithm="sai", n_nodes=6, seed=5, net=NetConfig(send_window=1)
            )
        )
        try:
            await cluster.start()
            await drive_live(cluster, workload, run, seed=5, rate=None)
        finally:
            await cluster.stop()

    asyncio.run(session())
    _, expected = simulate_reference(workload, algorithm="sai", n_nodes=6, seed=5)
    size = spec.Size(n_nodes=6, n_queries=12, n_tuples=40, domain_size=6)
    attempted, failed = bench.failure_counts(run, size, expected, live=True)
    assert run.frames_shed > 0
    assert run.delivery_failures >= run.frames_shed
    assert 0 < failed <= attempted
