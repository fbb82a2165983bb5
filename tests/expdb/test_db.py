"""The claim protocol and row lifecycle of the experiment database."""

import csv
import json

import pytest

from repro.expdb.db import (
    EXPORT_COLUMNS,
    ExperimentDB,
    canonical_fault_plan,
    decode_params,
    normalize_params,
)
from repro.expdb.grid import GridSpec

POINT = {
    "algorithm": "sai",
    "n_nodes": 16,
    "n_queries": 12,
    "n_tuples": 30,
    "domain_size": 12,
}

METRICS = {
    "row_version": 1,
    "kind": "run",
    "install_traffic": {"hops": 10, "messages": 5, "hops_by_type": {}, "messages_by_type": {}},
    "stream_traffic": {"hops": 30, "messages": 20, "hops_by_type": {"x": 30}, "messages_by_type": {"x": 20}},
    "notifications_delivered": 7,
    "notification_digest": "cafe" * 10,
    "evictions": 2,
}


def point(**overrides):
    return {**POINT, **overrides}


@pytest.fixture
def db(tmp_path):
    with ExperimentDB(str(tmp_path / "exp.sqlite")) as handle:
        yield handle


class TestNormalize:
    def test_round_trips_through_decode(self):
        params = normalize_params(
            point(window=240, fault_plan={"loss_probability": 0.1}, seed=9)
        )
        decoded = decode_params(params)
        assert decoded["window"] == 240.0
        assert decoded["fault_plan"] == {"loss_probability": 0.1}
        assert normalize_params(decoded) == params

    def test_none_window_and_plan_encode_without_null(self):
        params = normalize_params(point())
        assert params["window"] == 0.0
        assert params["fault_plan"] == ""
        decoded = decode_params(params)
        assert decoded["window"] is None
        assert decoded["fault_plan"] is None

    def test_fault_plan_is_key_order_independent(self):
        a = canonical_fault_plan({"loss_probability": 0.1, "seed": 3})
        b = canonical_fault_plan({"seed": 3, "loss_probability": 0.1})
        assert a == b

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment parameters"):
            normalize_params(point(n_nodez=16))

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            normalize_params({"algorithm": "sai"})

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            normalize_params(point(transport="pigeon"))


class TestFill:
    def test_fill_is_idempotent(self, db):
        grid = GridSpec(algorithms=("sai", "dai-v"), seeds=(1, 2))
        assert db.fill(grid.expand()) == (4, 0)
        assert db.fill(grid.expand()) == (0, 4)
        assert db.status_counts()["open"] == 4

    def test_refill_never_touches_finished_rows(self, db):
        db.fill([point()])
        claim = db.claim("w1")
        db.finish(claim.id, "w1", METRICS)
        assert db.fill([point()]) == (0, 1)
        assert db.get(claim.id)["status"] == "done"

    def test_equivalent_encodings_are_one_row(self, db):
        db.fill([point(window=None)])
        added, existing = db.fill([point(window=0)])
        assert (added, existing) == (0, 1)


class TestClaim:
    def test_claims_lowest_id_first(self, db):
        db.fill(GridSpec(algorithms=("sai", "dai-q")).expand())
        claim = db.claim("w1")
        assert claim.id == 1
        assert claim.params["algorithm"] == "sai"
        assert claim.attempts == 1
        assert not claim.reclaimed
        assert db.get(1)["status"] == "running"
        assert db.get(1)["worker"] == "w1"

    def test_claimed_rows_are_not_reclaimed_while_fresh(self, db):
        db.fill([point()])
        assert db.claim("w1") is not None
        assert db.claim("w2") is None

    def test_stale_running_row_is_reclaimed(self, db):
        db.fill([point()])
        first = db.claim("w1")
        db._conn.execute(
            "UPDATE experiments SET heartbeat = heartbeat - 100 WHERE id = ?",
            (first.id,),
        )
        second = db.claim("w2", stale_after=50)
        assert second is not None
        assert second.id == first.id
        assert second.reclaimed
        assert second.attempts == 2
        assert db.get(first.id)["worker"] == "w2"

    def test_heartbeat_refreshes_only_own_claim(self, db):
        db.fill([point()])
        claim = db.claim("w1")
        assert db.heartbeat(claim.id, "w1")
        assert not db.heartbeat(claim.id, "w2")


class TestFinishAndFail:
    def test_finish_denormalizes_metrics(self, db):
        db.fill([point()])
        claim = db.claim("w1")
        assert db.finish(claim.id, "w1", METRICS, {"wall_seconds": 1.5, "shards": 3})
        row = db.get(claim.id)
        assert row["status"] == "done"
        assert row["hops"] == 40
        assert row["messages"] == 25
        assert row["notifications_delivered"] == 7
        assert row["evictions"] == 2
        assert row["wall_seconds"] == 1.5
        assert json.loads(row["metrics_json"]) == METRICS
        assert json.loads(row["resources_json"]) == {"shards": 3}

    def test_stale_loser_cannot_clobber_new_owner(self, db):
        db.fill([point()])
        first = db.claim("w1")
        db._conn.execute("UPDATE experiments SET heartbeat = heartbeat - 100")
        db.claim("w2", stale_after=50)
        assert not db.finish(first.id, "w1", METRICS)
        assert not db.fail(first.id, "w1", "boom")
        assert db.get(first.id)["status"] == "running"
        assert db.finish(first.id, "w2", METRICS)

    def test_fail_records_traceback(self, db):
        db.fill([point()])
        claim = db.claim("w1")
        assert db.fail(claim.id, "w1", "Traceback: ValueError: boom")
        row = db.get(claim.id)
        assert row["status"] == "error"
        assert "ValueError: boom" in row["error"]

    def test_release_reopens_untouched(self, db):
        db.fill([point()])
        claim = db.claim("w1")
        assert db.release(claim.id, "w1")
        row = db.get(claim.id)
        assert row["status"] == "open"
        assert row["worker"] is None
        assert db.claim("w2").id == claim.id


class TestReset:
    def test_reset_errors_reopens_and_keeps_attempts(self, db):
        db.fill([point()])
        claim = db.claim("w1")
        db.fail(claim.id, "w1", "boom")
        assert db.reset(errors=True) == 1
        row = db.get(claim.id)
        assert row["status"] == "open"
        assert row["error"] is None
        assert row["attempts"] == 1
        again = db.claim("w1")
        assert again.attempts == 2

    def test_reset_stale_only_touches_expired_heartbeats(self, db):
        db.fill(GridSpec(algorithms=("sai", "dai-q")).expand())
        stale = db.claim("w1")
        db._conn.execute(
            "UPDATE experiments SET heartbeat = heartbeat - 100 WHERE id = ?",
            (stale.id,),
        )
        db.claim("w2")
        assert db.reset(stale=True, stale_after=50) == 1
        assert db.get(stale.id)["status"] == "open"

    def test_reset_clears_previous_results(self, db):
        db.fill([point()])
        claim = db.claim("w1")
        db.finish(claim.id, "w1", METRICS)
        db._conn.execute("UPDATE experiments SET status = 'error'")
        db.reset(errors=True)
        row = db.get(claim.id)
        assert row["hops"] is None
        assert row["metrics_json"] is None

    def test_reset_without_selection_is_a_no_op(self, db):
        assert db.reset() == 0


class TestQueriesAndExport:
    def fill_mixed(self, db):
        db.fill(GridSpec(algorithms=("sai", "dai-q", "dai-t")).expand())
        done = db.claim("w1")
        db.finish(done.id, "w1", METRICS, {"wall_seconds": 0.5})
        failed = db.claim("w1")
        db.fail(failed.id, "w1", "boom")

    def test_status_counts_cover_all_statuses(self, db):
        self.fill_mixed(db)
        assert db.status_counts() == {"open": 1, "running": 0, "done": 1, "error": 1}

    def test_rows_filters_validate(self, db):
        with pytest.raises(ValueError, match="unknown status"):
            db.rows(status="finished")
        with pytest.raises(ValueError, match="unknown transport"):
            db.rows(transport="pigeon")

    def test_export_csv_round_trips(self, db, tmp_path):
        self.fill_mixed(db)
        path = tmp_path / "out.csv"
        assert db.export_csv(str(path)) == 3
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 3
        assert list(parsed[0]) == list(EXPORT_COLUMNS)
        done = next(row for row in parsed if row["status"] == "done")
        assert int(done["hops"]) == 40
        assert json.loads(done["metrics_json"]) == METRICS

    def test_export_json_matches_rows(self, db, tmp_path):
        self.fill_mixed(db)
        path = tmp_path / "out.json"
        assert db.export_json(str(path), status="done") == 1
        with open(path) as handle:
            assert json.load(handle) == db.rows(status="done")


class TestImportDone:
    def test_import_creates_a_finished_row(self, db):
        assert db.import_done(point(), METRICS, {"wall_seconds": 2.0})
        row = db.rows(status="done")[0]
        assert row["worker"] == "import"
        assert row["hops"] == 40
        assert row["wall_seconds"] == 2.0

    def test_import_never_overwrites_existing_history(self, db):
        db.import_done(point(), METRICS)
        tampered = {**METRICS, "notifications_delivered": 999}
        assert not db.import_done(point(), tampered)
        assert db.rows()[0]["notifications_delivered"] == 7

    def test_import_accepts_summary_form_metrics(self, db):
        # Committed baselines carry top-level hops/messages instead of
        # traffic snapshots; the projection must pass them through.
        summary = {
            "hops": 123,
            "messages": 45,
            "notifications_delivered": 6,
            "notification_digest": "beef" * 10,
        }
        assert db.import_done(point(seed=2), summary)
        row = db.rows(status="done")[0]
        assert row["hops"] == 123
        assert row["messages"] == 45
