"""Crash consistency and resumability, proven on real worker processes.

``slow_worker.py`` (a child script passing a sleeping ``runner=`` to
``run_worker``) holds an experiment between claim and execution,
giving a deterministic window in which to SIGKILL the worker — the
hardest crash there is: no signal handler, no cleanup, the heartbeat
just stops.  The database
must treat the orphaned row as claimable once its heartbeat expires,
and a restarted worker must complete the sweep with no row finishing
twice.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.expdb.db import ExperimentDB
from repro.expdb.grid import GridSpec
from repro.expdb.runner import ExperimentOutcome
from repro.expdb.worker import WorkerConfig, run_worker

REPO_ROOT = Path(__file__).resolve().parents[2]

TINY = dict(
    algorithms=("sai",),
    n_nodes=(16,),
    n_queries=(12,),
    n_tuples=(30,),
    domain_sizes=(12,),
)


def spawn_worker(db_path, worker_id, *, run_delay=None, stale_after=1.0):
    """The ordinary CLI worker, or — with ``run_delay`` — the sleepy one."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if run_delay is not None:
        command = [
            str(Path(__file__).with_name("slow_worker.py")),
            str(db_path),
            worker_id,
            str(run_delay),
            str(stale_after),
        ]
    else:
        command = [
            "-m",
            "repro.expdb",
            "--db",
            str(db_path),
            "worker",
            "--drain",
            "--worker-id",
            worker_id,
            "--heartbeat-every",
            "0.1",
            "--stale-after",
            str(stale_after),
        ]
    return subprocess.Popen(
        [sys.executable, *command],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def wait_for_running_claim(db_path, worker_id, timeout=30.0):
    """Block until ``worker_id`` holds a running claim; returns its id."""
    deadline = time.monotonic() + timeout
    with ExperimentDB(str(db_path)) as db:
        while time.monotonic() < deadline:
            for row in db.rows(status="running"):
                if row["worker"] == worker_id:
                    return row["id"]
            time.sleep(0.05)
    raise AssertionError(f"worker {worker_id} never claimed a row")


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "exp.sqlite"


class TestSigkillMidRun:
    def test_killed_worker_leaves_row_claimable(self, db_path):
        with ExperimentDB(str(db_path)) as db:
            db.fill(GridSpec(**TINY).expand())

        victim = spawn_worker(db_path, "victim", run_delay=60)
        try:
            orphan_id = wait_for_running_claim(db_path, "victim")
        finally:
            victim.kill()
        victim.wait(timeout=30)

        # SIGKILL gave the worker no chance to clean up: the row is
        # still 'running' under the dead worker's id...
        with ExperimentDB(str(db_path)) as db:
            row = db.get(orphan_id)
            assert row["status"] == "running"
            assert row["worker"] == "victim"

            # ... and stays protected until the heartbeat expires ...
            assert db.claim("rescuer", stale_after=60) is None

            # ... after which it is reclaimed like any abandoned row.
            time.sleep(1.1)
            claim = db.claim("rescuer", stale_after=1.0)
            assert claim is not None
            assert claim.id == orphan_id
            assert claim.reclaimed
            assert claim.attempts == 2

    def test_restarted_worker_completes_the_row(self, db_path):
        with ExperimentDB(str(db_path)) as db:
            db.fill(GridSpec(**TINY).expand())

        victim = spawn_worker(db_path, "victim", run_delay=60)
        try:
            wait_for_running_claim(db_path, "victim")
        finally:
            victim.kill()
        victim.wait(timeout=30)

        time.sleep(1.1)  # let the orphan's heartbeat expire
        stats = run_worker(
            WorkerConfig(
                db_path=str(db_path),
                worker_id="rescuer",
                drain=True,
                heartbeat_every=0.1,
                stale_after=1.0,
            )
        )
        assert stats.completed == 1
        with ExperimentDB(str(db_path)) as db:
            row = db.rows(status="done")[0]
        assert row["worker"] == "rescuer"
        assert row["attempts"] == 2
        assert row["notifications_delivered"] > 0


class TestResumableSweep:
    def test_kill_one_of_two_workers_and_resume(self, db_path, tmp_path):
        """The ISSUE's resumability proof, end to end.

        An 8-row grid, two concurrent worker processes; one is
        SIGKILLed mid-run and a replacement started.  Every row must
        reach ``done``, no row may finish twice (attempts: exactly one
        row needed a second claim), and the export must round-trip.
        """
        grid = GridSpec(
            **{**TINY, "algorithms": ("sai", "dai-v"), "seeds": (1, 2, 3, 4)}
        )
        with ExperimentDB(str(db_path)) as db:
            db.fill(grid.expand())
            assert db.status_counts()["open"] == 8

        victim = spawn_worker(db_path, "victim", run_delay=60)
        survivor = spawn_worker(db_path, "survivor")
        try:
            wait_for_running_claim(db_path, "victim")
        finally:
            victim.kill()
        victim.wait(timeout=30)
        assert survivor.wait(timeout=120) == 0

        # The survivor drained what it could; the orphan may still be
        # parked under the dead worker.  Restarting a worker — the
        # whole resume story — must finish the sweep.
        time.sleep(1.1)
        replacement = spawn_worker(db_path, "replacement")
        assert replacement.wait(timeout=120) == 0

        with ExperimentDB(str(db_path)) as db:
            counts = db.status_counts()
            rows = db.rows()
        assert counts == {"open": 0, "running": 0, "done": 8, "error": 0}
        # Exactly one row (the orphan) was claimed twice; had any row
        # *finished* twice the guarded UPDATE would have dropped the
        # duplicate, and a double execution would show as attempts > 1
        # on more rows.
        assert sorted(row["attempts"] for row in rows) == [1] * 7 + [2]
        assert all(row["worker"] in ("survivor", "replacement") for row in rows)
        assert all(row["metrics_json"] for row in rows)

        # Export round-trips through CSV.
        import csv

        out = tmp_path / "sweep.csv"
        with ExperimentDB(str(db_path)) as db:
            assert db.export_csv(str(out)) == 8
        with open(out, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert len(parsed) == 8
        assert {row["status"] for row in parsed} == {"done"}
        assert sorted(int(row["attempts"]) for row in parsed) == [1] * 7 + [2]
