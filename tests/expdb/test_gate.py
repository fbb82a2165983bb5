"""``python -m repro.expdb gate``: the re-run policy, what is refused,
the command, and the committed baseline held to a 3× regression.

The comparison rules themselves (identical / faster / 1.49× / 1.51× /
drift / digest) are in ``tests/bench/test_macro_gate.py``; the real
``shard`` and ``live`` transports gate themselves in
``tests/bench/test_scale_gate.py`` and ``tests/net/test_loadgen.py``.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.expdb.cli import main
from repro.expdb.db import decode_done_row, decode_params, normalize_params
from repro.expdb.gate import MAX_RUNS, exact_columns, gate_rows
from repro.expdb.runner import run_experiment

from .gate_fakes import Replay, export_rows, two_rows

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = json.loads((REPO_ROOT / "BENCH_baseline.json").read_text())


class TestRerunPolicy:
    def test_a_slow_first_run_is_forgiven_by_a_second(self):
        rows = two_rows()[:1]
        runner = Replay(rows, wall=lambda stored, nth: stored * (2.0, 1.2)[nth])
        assert gate_rows(rows, runner=runner) == []
        assert len(runner.calls) == 2

    def test_re_runs_wait_for_the_next_pass_over_the_file(self):
        # A slow spell of the machine outlasts three runs in a row.
        rows = two_rows()
        runner = Replay(rows, wall=lambda stored, nth: stored * (2.0, 1.0)[nth])
        assert gate_rows(rows, runner=runner) == []
        assert [params["algorithm"] for params, _ in runner.calls] == [
            "sai",
            "dai-t",
            "sai",
            "dai-t",
        ]

    def test_smallest_wall_is_the_one_reported(self):
        rows = two_rows(wall=10.0)[:1]
        walls = (40.0, 16.0, 20.0)
        runner = Replay(rows, wall=lambda stored, nth: walls[nth])
        kept = []
        problems = gate_rows(
            rows, runner=runner, on_row=lambda row, outcome, found: kept.append(outcome)
        )
        assert "16.000s > stored 10.000s * 1.5 = 15.000s" in problems[0]
        assert [outcome.resources["wall_seconds"] for outcome in kept] == [16.0]

    def test_runs_that_disagree_with_each_other_are_non_deterministic(self):
        rows = two_rows()[:1]

        def flaky(metrics, nth):
            metrics["notifications_delivered"] += nth  # second run differs
            return metrics

        runner = Replay(rows, wall=lambda stored, nth: stored * 2, metrics=flaky)
        problems = gate_rows(rows, runner=runner)
        assert len(problems) == 1
        assert "non-deterministic" in problems[0]
        assert "notifications_delivered" in problems[0]
        assert len(runner.calls) == 2

    def test_per_type_traffic_drift_is_caught_when_the_columns_agree(self):
        rows = two_rows()[:1]

        def shifted(metrics, nth):
            by_type = metrics["stream_traffic"]["hops_by_type"]
            by_type["join"] -= 1
            by_type["notification"] += 1
            return metrics

        stored = decode_done_row(rows[0])[1]
        moved = exact_columns(shifted(copy.deepcopy(stored), 0))
        assert moved["hops"] == exact_columns(stored)["hops"]
        problems = gate_rows(rows, runner=Replay(rows, metrics=shifted))
        assert sorted(problems) == [
            "#1 sim/sai n=512 seed=1: stream_traffic.hops_by_type.join "
            "changed: 89 -> 88",
            "#1 sim/sai n=512 seed=1: stream_traffic.hops_by_type.notification "
            "changed: 1 -> 2",
        ]

    def test_a_shard_row_is_re_run_over_its_recorded_shard_count(self):
        rows = export_rows(
            [
                (
                    {"transport": "shard", "algorithm": "sai", "n_nodes": 48,
                     "n_queries": 16, "n_tuples": 32, "domain_size": 30},
                    decode_done_row(two_rows()[0])[1],
                    {"wall_seconds": 1.0, "shards": 3},
                )
            ]
        )
        runner = Replay(rows)
        assert gate_rows(rows, runner=runner) == []
        assert [shards for _, shards in runner.calls] == [3]


class TestLoadBlock:
    """A stored ``load`` block is an exact column like the traffic."""

    TINY = {"algorithm": "dai-t", "n_nodes": 16, "n_queries": 12,
            "n_tuples": 30, "domain_size": 12, "seed": 3}

    @pytest.fixture(scope="class")
    def recorded(self):
        outcome = run_experiment(decode_params(normalize_params(self.TINY)))
        assert outcome.metrics["load"]["TF"] == sum(outcome.metrics["load"]["filtering"])
        return export_rows([(self.TINY, outcome.metrics, {**outcome.resources, "wall_seconds": 60.0})])

    def test_load_round_trips_through_export_import_and_the_gate(self, recorded, tmp_path):
        exported, again = tmp_path / "a.json", tmp_path / "b.json"
        exported.write_text(json.dumps(recorded))
        db = str(tmp_path / "copy.sqlite")
        assert main(["--db", db, "import-json", str(exported)]) == 0
        assert main(["--db", db, "export", "--json", str(again)]) == 0
        (copy_row,) = json.loads(again.read_text())
        assert copy_row["metrics_json"] == recorded[0]["metrics_json"]
        assert "load" in exact_columns(json.loads(copy_row["metrics_json"]))
        assert main(["gate", str(again)]) == 0

    def test_a_changed_tf_fails_the_gate(self, recorded):
        rows = copy.deepcopy(recorded)
        metrics = json.loads(rows[0]["metrics_json"])
        stored_tf = metrics["load"]["TF"]
        metrics["load"]["TF"] += 1
        rows[0]["metrics_json"] = json.dumps(metrics)
        assert gate_rows(rows) == [
            f"#1 sim/dai-t n=16 seed=3: load.TF changed: {stored_tf + 1} -> {stored_tf}"
        ]

    def test_rows_stored_without_a_load_block_are_gated_without_it(self):
        rows = two_rows()[:1]
        with_load = lambda metrics, nth: {**metrics, "load": {"TF": 1}}
        assert gate_rows(rows, runner=Replay(rows, metrics=with_load)) == []


class TestRefusals:
    @pytest.mark.parametrize("status", ["open", "running", "error"])
    def test_a_row_that_is_not_done_is_refused(self, status):
        rows = two_rows()
        rows[1]["status"] = status
        runner = Replay(two_rows())
        with pytest.raises(ValueError, match=f"sim/dai-t n=512 seed=1 is '{status}'"):
            gate_rows(rows, runner=runner)
        assert runner.calls == []

    def test_row_without_wall_is_refused(self):
        rows = two_rows()
        rows[0]["wall_seconds"] = None
        with pytest.raises(ValueError, match="stores no wall_seconds"):
            gate_rows(rows, runner=Replay(two_rows()))


def row_id(index: int) -> str:
    row = COMMITTED[index]
    return "{transport}-{algorithm}".format(**row) + ("-faulted" if row["fault_plan"] else "")


@pytest.mark.parametrize("victim", range(len(COMMITTED)), ids=row_id)
def test_a_3x_regression_of_any_committed_row_fails(victim):
    """Today's walls against a baseline a third of them: the gate must
    fail, on exactly that row, after exactly three runs."""
    rows = copy.deepcopy(COMMITTED)
    rows[victim]["wall_seconds"] /= 3
    runner = Replay(COMMITTED)
    problems = gate_rows(rows, runner=runner)
    assert len(problems) == 1
    label = "#{id} {transport}/{algorithm} n={n_nodes} seed={seed}".format(**rows[victim])
    assert problems[0].startswith(f"{label}: wall_seconds")
    assert len(runner.calls) == len(COMMITTED) - 1 + MAX_RUNS


TINY_SIM = {
    "transport": "sim",
    "algorithm": "dai-t",
    "n_nodes": 16,
    "n_queries": 12,
    "n_tuples": 30,
    "domain_size": 12,
    "seed": 3,
}


@pytest.fixture(scope="module")
def tiny_baseline() -> list[dict]:
    """One real ``sim`` row, recorded the way the committed ones were."""
    outcome = run_experiment(decode_params(normalize_params(TINY_SIM)))
    return export_rows([(TINY_SIM, outcome.metrics, outcome.resources)])


class TestRealRunner:
    def test_a_recorded_row_gates_green_against_todays_code(self, tiny_baseline):
        rows = copy.deepcopy(tiny_baseline)
        rows[0]["wall_seconds"] = 60.0  # a 10 ms wall is all noise
        assert gate_rows(rows) == []

    def test_altered_counts_are_named(self, tiny_baseline):
        rows = copy.deepcopy(tiny_baseline)
        rows[0]["wall_seconds"] = 60.0
        rows[0]["hops"] += 1
        metrics = json.loads(rows[0]["metrics_json"])
        metrics["stream_traffic"]["messages_by_type"]["join"] += 1
        rows[0]["metrics_json"] = json.dumps(metrics)
        problems = gate_rows(rows)
        assert len(problems) == 2
        assert "sim/dai-t n=16 seed=3: hops changed" in problems[0]
        assert "stream_traffic.messages_by_type.join changed" in problems[1]


class TestGateCommand:
    def run(self, monkeypatch, rows, tmp_path, *extra, **shape):
        import repro.expdb.gate as gate_module

        monkeypatch.setattr(gate_module, "run_experiment", Replay(rows, **shape))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(rows))
        return main(["gate", str(baseline), *extra])

    def test_green_gate_exits_zero_and_writes_the_fresh_rows(
        self, monkeypatch, tmp_path, capsys
    ):
        output = tmp_path / "fresh.json"
        rows = two_rows(wall=10.0)
        rows[0]["wall_seconds"] = 20.0  # ... whose first run is slow:

        def wall(stored, nth):
            return 50.0 if (stored, nth) == (20.0, 0) else 5.0

        status = self.run(
            monkeypatch, rows, tmp_path, "--output", str(output), wall=wall
        )
        assert status == 0
        captured = capsys.readouterr()
        assert "2 rows repeat exactly" in captured.out
        assert "5.000s vs stored 10.000s (0.50x)" in captured.err
        fresh = json.loads(output.read_text())
        # File order, although the first row settled last.
        assert [row["algorithm"] for row in fresh] == ["sai", "dai-t"]
        assert [row["wall_seconds"] for row in fresh] == [5.0, 5.0]
        assert [row["status"] for row in fresh] == ["done", "done"]
        # The artifact is itself a baseline: same shape, same exact columns.
        assert gate_rows(fresh, runner=Replay(fresh)) == []

    def test_red_gate_exits_nonzero_and_names_the_row(
        self, monkeypatch, tmp_path, capsys
    ):
        status = self.run(
            monkeypatch, two_rows()[:1], tmp_path, wall=lambda stored, nth: stored * 3
        )
        assert status == 1
        err = capsys.readouterr().err
        assert "GATE FAIL: #1 sim/sai n=512 seed=1: wall_seconds" in err
        assert "(3.00x)" in err

    def test_a_file_that_is_not_a_baseline_exits_nonzero(self, tmp_path, capsys):
        bogus = tmp_path / "BENCH_bogus.json"
        bogus.write_text(json.dumps({"name": "mystery-benchmark"}))
        assert main(["gate", str(bogus)]) != 0
        assert "not an 'export --json' file" in capsys.readouterr().err
        assert main(["gate", str(tmp_path / "missing.json")]) != 0
        assert "error:" in capsys.readouterr().err
