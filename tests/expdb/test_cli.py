"""The management CLI, driven through ``main`` with a fast runner."""

import csv
import json
from pathlib import Path

import pytest

from repro.expdb.cli import main
from repro.expdb.db import ExperimentDB
from repro.expdb.runner import ExperimentOutcome

METRICS = {
    "notifications_delivered": 5,
    "notification_digest": "dead" * 10,
}

REPO_ROOT = Path(__file__).resolve().parents[2]


def baseline(name):
    return str(REPO_ROOT / name)


@pytest.fixture
def fast_runner(monkeypatch):
    def runner(params, *, shards=None):
        return ExperimentOutcome(
            metrics=dict(METRICS), resources={"wall_seconds": 0.01}
        )

    import repro.expdb.worker as worker_module

    monkeypatch.setattr(worker_module, "run_experiment", runner)
    return runner


def run(db_path, *argv):
    return main(["--db", str(db_path)] + list(argv))


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "exp.sqlite"


def fill_tiny(db_path):
    assert (
        run(
            db_path,
            "fill",
            "--algorithms",
            "sai,dai-v",
            "--nodes",
            "16",
            "--queries",
            "12",
            "--tuples",
            "30",
            "--domains",
            "12",
            "--seeds",
            "1,2",
        )
        == 0
    )


class TestFill:
    def test_fill_reports_added_and_existing(self, db_path, capsys):
        fill_tiny(db_path)
        assert "4 added, 0 already present" in capsys.readouterr().out
        fill_tiny(db_path)
        assert "0 added, 4 already present" in capsys.readouterr().out

    def test_fill_from_grid_file(self, db_path, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"algorithms": ["sai"], "seeds": [1, 2, 3]}))
        assert run(db_path, "fill", "--grid", str(spec)) == 0
        assert "3 added" in capsys.readouterr().out

    def test_flags_override_grid_file(self, db_path, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"algorithms": ["sai"], "seeds": [1, 2, 3]}))
        assert run(db_path, "fill", "--grid", str(spec), "--seeds", "7") == 0
        assert "1 added" in capsys.readouterr().out

    def test_missing_grid_file_exits_nonzero(self, db_path, capsys):
        assert run(db_path, "fill", "--grid", "no/such/grid.json") != 0
        assert "error:" in capsys.readouterr().err

    def test_unknown_algorithm_exits_nonzero(self, db_path, capsys):
        assert run(db_path, "fill", "--algorithms", "dai-x") != 0
        assert "unknown algorithm" in capsys.readouterr().err


class TestWorkerCommand:
    def test_drains_and_reports(self, db_path, fast_runner, capsys):
        fill_tiny(db_path)
        assert run(db_path, "worker", "--drain") == 0
        captured = capsys.readouterr()
        assert "4 done, 0 error" in captured.out
        assert "claimed #1" in captured.err

    def test_missing_database_exits_nonzero(self, db_path, capsys):
        assert run(db_path, "worker", "--drain") != 0
        assert "run 'fill' first" in capsys.readouterr().err

    def test_worker_failures_exit_nonzero(self, db_path, monkeypatch, capsys):
        fill_tiny(db_path)

        def exploding(params, *, shards=None):
            raise RuntimeError("boom")

        import repro.expdb.worker as worker_module

        monkeypatch.setattr(worker_module, "run_experiment", exploding)
        assert run(db_path, "worker", "--drain") == 2
        assert "4 error" in capsys.readouterr().out


class TestStatusAndReset:
    def test_assert_done_gates(self, db_path, fast_runner, capsys):
        fill_tiny(db_path)
        assert run(db_path, "status", "--assert-done") != 0
        assert "not done" in capsys.readouterr().err
        assert run(db_path, "worker", "--drain") == 0
        assert run(db_path, "status", "--assert-done") == 0
        assert "4 done" in capsys.readouterr().out

    def test_assert_done_on_empty_database_fails(self, db_path, capsys):
        run(db_path, "fill", "--algorithms", "sai", "--seeds", "1")
        with ExperimentDB(str(db_path)) as db:
            db._conn.execute("DELETE FROM experiments")
        assert run(db_path, "status", "--assert-done") != 0
        assert "no experiments" in capsys.readouterr().err

    def test_status_lists_running_claims(self, db_path, capsys):
        fill_tiny(db_path)
        with ExperimentDB(str(db_path)) as db:
            db.claim("w-hung")
        assert run(db_path, "status") == 0
        out = capsys.readouterr().out
        assert "w-hung" in out
        assert "heartbeat_age_s" in out

    def test_reset_requires_a_selection(self, db_path, capsys):
        fill_tiny(db_path)
        assert run(db_path, "reset") != 0
        assert "nothing selected" in capsys.readouterr().err

    def test_reset_errors_reopens(self, db_path, capsys):
        fill_tiny(db_path)
        with ExperimentDB(str(db_path)) as db:
            claim = db.claim("w1")
            db.fail(claim.id, "w1", "boom")
        assert run(db_path, "reset", "--errors") == 0
        assert "reset 1 experiments" in capsys.readouterr().out


class TestExportAndReport:
    def test_export_requires_a_target(self, db_path, capsys):
        fill_tiny(db_path)
        assert run(db_path, "export") != 0
        assert "--csv" in capsys.readouterr().err

    def test_export_unknown_status_exits_nonzero(self, db_path, capsys):
        fill_tiny(db_path)
        assert run(db_path, "export", "--csv", "x.csv", "--status", "finished") != 0
        assert "unknown status" in capsys.readouterr().err

    def test_export_csv_and_json(self, db_path, tmp_path, fast_runner, capsys):
        fill_tiny(db_path)
        run(db_path, "worker", "--drain")
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        assert (
            run(db_path, "export", "--csv", str(csv_path), "--json", str(json_path))
            == 0
        )
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert {row["status"] for row in rows} == {"done"}
        with open(json_path) as handle:
            assert len(json.load(handle)) == 4

    def test_report_renders_rows(self, db_path, fast_runner, capsys):
        fill_tiny(db_path)
        run(db_path, "worker", "--drain")
        assert run(db_path, "report") == 0
        out = capsys.readouterr().out
        assert "dai-v" in out
        assert "digest" in out

    def test_report_group_by_aggregates(self, db_path, fast_runner, capsys):
        fill_tiny(db_path)
        run(db_path, "worker", "--drain")
        assert run(db_path, "report", "--group-by", "algorithm") == 0
        out = capsys.readouterr().out
        assert "mean_notifications_delivered" in out
        assert "sai" in out

    def test_report_unknown_group_axis_exits_nonzero(self, db_path, capsys):
        fill_tiny(db_path)
        assert run(db_path, "report", "--group-by", "vibes") != 0
        assert "cannot group by" in capsys.readouterr().err

    def test_report_empty_database(self, db_path, capsys):
        run(db_path, "fill", "--algorithms", "sai", "--seeds", "1")
        assert run(db_path, "report", "--status", "done") == 0
        assert "no experiments match" in capsys.readouterr().out


class TestImportJson:
    """``import-json`` is the inverse of ``export --json``."""

    #: Columns an import cannot (and should not) reproduce.
    VOLATILE = ("id", "created_at", "started_at", "finished_at", "heartbeat")

    def test_backfills_all_committed_baselines(self, db_path, capsys):
        assert (
            run(
                db_path,
                "import-json",
                baseline("BENCH_baseline.json"),
                baseline("BENCH_history.json"),
            )
            == 0
        )
        out = capsys.readouterr().out
        # 12 gated rows + the X3 point + the 435 figure rows, four of which
        # are the gated `sim` identities measured again (not re-imported).
        assert "imported 444 experiments total" in out
        with ExperimentDB(str(db_path)) as db:
            rows = db.rows(status="done")
            assert len(rows) == 444
            transports = {row["transport"] for row in rows}
        assert transports == {"sim", "shard", "live"}

    def test_import_is_idempotent(self, db_path, capsys):
        run(db_path, "import-json", baseline("BENCH_baseline.json"))
        capsys.readouterr()
        assert run(db_path, "import-json", baseline("BENCH_baseline.json")) == 0
        assert "imported 0 experiments" in capsys.readouterr().out

    def test_imported_macro_rows_keep_baseline_metrics(self, db_path, tmp_path):
        """export -> import into a fresh database -> export: equal rows."""
        run(db_path, "import-json", baseline("BENCH_baseline.json"))
        exported = tmp_path / "again.json"
        assert run(db_path, "export", "--json", str(exported)) == 0
        with open(baseline("BENCH_baseline.json")) as handle:
            committed = json.load(handle)
        with open(exported) as handle:
            again = json.load(handle)

        def stable(rows):
            return [
                {k: v for k, v in row.items() if k not in self.VOLATILE}
                for row in rows
            ]

        assert stable(again) == stable(committed)
        macro = [row for row in again if row["transport"] == "sim"]
        assert [row["hops"] for row in macro] == [38887, 40317, 40305, 19670]

    def test_unknown_baseline_exits_nonzero(self, db_path, tmp_path, capsys):
        bogus = tmp_path / "BENCH_bogus.json"
        bogus.write_text(json.dumps({"name": "mystery-benchmark"}))
        assert run(db_path, "import-json", str(bogus)) != 0
        assert "not an 'export --json' file" in capsys.readouterr().err
        unfinished = tmp_path / "open.json"
        unfinished.write_text(json.dumps([{"algorithm": "sai", "n_nodes": 8}]))
        assert run(db_path, "import-json", str(unfinished)) != 0
        assert "missing parameters ['transport'" in capsys.readouterr().err
        with ExperimentDB(str(db_path)) as db:
            assert db.rows() == []

    def test_unreadable_file_exits_nonzero(self, db_path, capsys):
        assert run(db_path, "import-json", "no/such/file.json") != 0
        assert "error:" in capsys.readouterr().err
