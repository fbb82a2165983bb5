"""The sharded sweep point: its sample, its row under the gate, the
committed baselines and the ``--verify`` differential."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench.configs import Scale
from repro.bench.scale import run_scale_point, scale_point, verify_equivalence
from repro.expdb.db import (
    PARAM_FIELDS,
    decode_done_row,
    decode_params,
    normalize_params,
    read_export,
)
from repro.expdb.gate import gate_rows
from repro.expdb.runner import run_experiment

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
        assert sample["shards"] == 1
        assert 0 < sample["build_seconds"] < sample["wall_seconds"]
        assert sample["row"]["kind"] == "shard"
        assert sample["row"]["events"] == TINY.n_queries + TINY.n_tuples

    def test_metrics_vocabulary(self, sample):
        assert set(sample["metrics"]) == {
            "hops",
            "messages",
            "stream_hops_by_type",
            "stream_messages_by_type",
            "notifications_delivered",
            "notification_digest",
            "evictions",
        }

    def test_resource_columns(self, sample):
        resources = sample["resources"]
        assert resources["peak_rss_kb"] > 0
        assert resources["events_per_sec"] > 0
        assert resources["exchange_records"] == 0  # shards=1
        # Stripped config: no lifted modes engaged.
        assert sample["features"] == []

    def test_json_round_trip(self, sample):
        assert json.loads(json.dumps(sample)) == sample


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
        "live": (16, 30, 400, 40, 0.9),
    }

    def test_baseline_matches_cli_defaults(self):
        """BENCH_baseline.json holds exactly the three gated points, and
        its ``shard`` rows are the point ``bench.scale`` runs by default."""
        rows = read_export(str(REPO_ROOT / "BENCH_baseline.json"))
        assert sorted((row["transport"], row["algorithm"]) for row in rows) == sorted(
            (transport, algorithm)
            for transport in ("sim", "shard", "live")
            for algorithm in ("sai", "dai-q", "dai-t", "dai-v")
        )
        default = scale_point(20_000)
        points = {
            **self.POINTS,
            "shard": (
                default.n_nodes,
                default.n_queries,
                default.n_tuples,
                default.domain_size,
                default.zipf_s,
            ),
        }
        for row in rows:
            assert (
                row["n_nodes"],
                row["n_queries"],
                row["n_tuples"],
                row["domain_size"],
                row["zipf_s"],
            ) == points[row["transport"]]
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


class TestVerifySmall:
    def test_verify_equivalence_at_small_ring(self):
        """The --verify differential at unit-test scale, one algorithm."""
        assert verify_equivalence(n_nodes=64, algorithms=("sai",)) == []
