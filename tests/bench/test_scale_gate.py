"""The sharded sweep point: its sample, its row under the gate, the
committed baselines and the ``diff`` differential at a small ring."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench.configs import Scale
from repro.bench.scale import run_scale_point
from repro.expdb.db import (
    PARAM_FIELDS,
    decode_done_row,
    decode_params,
    normalize_params,
    read_export,
)
from repro.expdb.cli import main as expdb_main
from repro.expdb.gate import DIFF_BATCH, gate_rows
from repro.expdb.runner import run_experiment
from repro.sim.shard import _Stream

from ..expdb.gate_fakes import export_rows

REPO_ROOT = Path(__file__).resolve().parents[2]

TINY = Scale(
    name="scale-tiny",
    n_nodes=48,
    n_queries=16,
    n_tuples=32,
    domain_size=30,
    zipf_s=0.75,
)

TINY_ROW = {
    "transport": "shard",
    "algorithm": "sai",
    "n_nodes": TINY.n_nodes,
    "n_queries": TINY.n_queries,
    "n_tuples": TINY.n_tuples,
    "domain_size": TINY.domain_size,
    "zipf_s": TINY.zipf_s,
}


@pytest.fixture(scope="module")
def sample():
    return run_scale_point("sai", TINY, shards=1, batch_size=8)


class TestReportShape:
    def test_identity_fields(self, sample):
        report, wall = sample
        assert report.shard["shards"] == 1
        assert wall > 0
        row = report.to_row()
        assert row["kind"] == "shard"
        assert row["events"] == TINY.n_queries + TINY.n_tuples

    def test_metrics_vocabulary(self, sample):
        report, _ = sample
        assert set(report.to_row()) == {
            "row_version",
            "kind",
            "install_traffic",
            "stream_traffic",
            "notifications_delivered",
            "notification_digest",
            "suppressed_renotifications",
            "duplicate_deliveries",
            "evictions",
            "events",
            "load",
            "shard",
            "live",
        }

    def test_resource_columns(self, sample):
        report, _ = sample
        assert report.load.total_filtering > 0
        assert report.shard["exchange_records"] == 0  # shards=1
        # Stripped config: no lifted modes engaged.
        assert report.shard["features"] == []
        assert report.to_row()["live"] is None

    def test_json_round_trip(self, sample):
        row = sample[0].to_row()
        assert json.loads(json.dumps(row)) == row


@pytest.fixture(scope="module")
def recorded() -> list[dict]:
    """The tiny point as a stored ``shard`` row, run by the real runner."""
    outcome = run_experiment(decode_params(normalize_params(TINY_ROW)), shards=1)
    return export_rows([(TINY_ROW, outcome.metrics, outcome.resources)])


class TestGate:
    """The real ``shard`` transport under the gate (a 20 ms wall is all
    noise, so the stored wall is set to what each test needs)."""

    def test_self_comparison_passes(self, recorded):
        rows = copy.deepcopy(recorded)
        rows[0]["wall_seconds"] = 60.0
        assert gate_rows(rows) == []

    def test_metric_drift_fails(self, recorded):
        rows = copy.deepcopy(recorded)
        rows[0]["wall_seconds"] = 60.0
        rows[0]["hops"] += 1
        problems = gate_rows(rows)
        assert len(problems) == 1
        assert "shard/sai n=48 seed=1: hops changed" in problems[0]

    def test_wall_regression_fails(self, recorded):
        rows = copy.deepcopy(recorded)
        rows[0]["wall_seconds"] = 1e-6
        problems = gate_rows(rows)
        assert len(problems) == 1
        assert "wall_seconds" in problems[0]

    def test_repeats_are_deterministic(self, recorded):
        # An over-budget row is run three times and every run must
        # repeat the exact columns: the only complaint left is the wall.
        rows = copy.deepcopy(recorded)
        rows[0]["wall_seconds"] = 1e-6
        calls = []

        def counting(params, *, shards=None):
            calls.append(params)
            return run_experiment(params, shards=shards)

        problems = gate_rows(rows, runner=counting)
        assert len(calls) == 3
        assert len(problems) == 1 and "non-deterministic" not in problems[0]


class TestCommittedBaseline:
    POINTS = {
        "sim": (512, 200, 350, 900, 0.75),
        "shard": (20_000, 400, 800, 900, 0.75),
        "live": (16, 30, 400, 40, 0.9),
    }

    def test_baseline_matches_cli_defaults(self):
        """BENCH_baseline.json holds exactly the three gated points plus
        one faulted ``sim`` row."""
        rows = read_export(str(REPO_ROOT / "BENCH_baseline.json"))
        (faulted,) = [row for row in rows if row["fault_plan"]]
        assert (faulted["transport"], faulted["algorithm"], faulted["n_nodes"]) == (
            "sim", "dai-t", 64
        )
        rows = [row for row in rows if not row["fault_plan"]]
        assert sorted((row["transport"], row["algorithm"]) for row in rows) == sorted(
            (transport, algorithm)
            for transport in ("sim", "shard", "live")
            for algorithm in ("sai", "dai-q", "dai-t", "dai-v")
        )
        for row in rows:
            assert (
                row["n_nodes"],
                row["n_queries"],
                row["n_tuples"],
                row["domain_size"],
                row["zipf_s"],
            ) == self.POINTS[row["transport"]]
            assert row["seed"] == 1
            assert row["notification_digest"] and row["wall_seconds"] > 0

    def test_every_row_round_trips_the_parameter_codec(self):
        for name in ("BENCH_baseline.json", "BENCH_history.json"):
            for row in read_export(str(REPO_ROOT / name)):
                stored = {field: row[field] for field in PARAM_FIELDS}
                params, metrics, resources = decode_done_row(row)
                assert normalize_params(params) == stored
                assert metrics["notification_digest"] == row["notification_digest"]
                assert resources["wall_seconds"] == row["wall_seconds"]

    def test_history_keeps_the_million_node_point(self):
        row, *figures, proxy = read_export(str(REPO_ROOT / "BENCH_history.json"))
        params, _, resources = decode_done_row(row)
        assert (params["transport"], params["n_nodes"]) == ("shard", 1_000_000)
        assert (params["window"], params["evict_every"]) == (256.0, 8192)
        assert (resources["batch_size"], resources["shards"]) == (8192, 1)
        # It ran the workload draw every row ran before the seed column
        # reached the generator, and its identity says so.
        assert params["overrides"] == {"workload": {"seed": 0}}
        # The rest is what EXPERIMENTS.md's figures are read from.
        assert len(figures) == 435
        assert {(r["transport"], r["seed"]) for r in figures} == {
            ("sim", seed) for seed in (1, 2, 3, 4, 5)
        }
        # Last, the same configuration at 10^5 nodes and 20 000 tuples,
        # drawn from its seed column (EXPERIMENTS.md X3).
        params, _, resources = decode_done_row(proxy)
        assert (params["transport"], params["n_nodes"]) == ("shard", 100_000)
        assert (params["n_queries"], params["n_tuples"]) == (400, 20_000)
        assert (params["window"], params["evict_every"]) == (256.0, 8192)
        assert (params["replication_factor"], params["jfrt_capacity"]) == (2, 128)
        assert params["overrides"] is None and resources["shards"] == 1


class TestDiffSmall:
    def test_diff_holds_shard_to_sim_at_small_ring(self, capsys, monkeypatch):
        """CI's ``diff`` differential at unit-test scale, one algorithm:
        the staged executor, in process and forked, equals the serial
        simulator on every exact column the table does not exempt,
        across an epoch barrier every ``DIFF_BATCH`` events."""
        barriers = []
        real_barrier = _Stream.barrier

        def counting(stream, size):
            barriers.append(size)
            return real_barrier(stream, size)

        monkeypatch.setattr(_Stream, "barrier", counting)
        code = expdb_main(
            [
                "diff", "--transports", "sim,shard", "--algorithms", "sai",
                "--nodes", "64", "--queries", "400", "--tuples", "800",
                "--domains", "900", "--zipf", "0.75",
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[:2] == ["ok   sim/sai n=64 seed=1", "ok   shard/sai n=64 seed=1 shards=1"]
        assert lines[2:] in ([], ["ok   shard/sai n=64 seed=1 shards=4"])
        runs = len(lines) - 1
        assert len(barriers) == 13 * runs and set(barriers) == {DIFF_BATCH, 800 % DIFF_BATCH}
