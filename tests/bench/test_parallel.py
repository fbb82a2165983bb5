"""A figure's table does not depend on who drained its rows.

The database is the parallelism and the cache of the figures: any
number of worker processes may pull a figure's grid, and what was
extracted once cannot be damaged by a caller.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.bench.configs import Scale
from repro.bench.figures import FIGURES, measure
from repro.expdb.db import ExperimentDB

REPO_ROOT = Path(__file__).resolve().parents[2]

TINY = Scale("tiny", n_nodes=24, n_queries=12, n_tuples=40, domain_size=30)

SEEDS = (1, 2)


def fill(figure, db_path):
    with ExperimentDB(db_path) as db:
        db.fill(params for _, params in figure.points(TINY, SEEDS))


def drain_in_a_process(db_path, worker_id):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.expdb", "--db", db_path,
         "worker", "--drain", "--worker-id", worker_id],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestSweepEquivalence:
    def test_scaling_rows_serial_equals_parallel(self, tmp_path):
        figure = FIGURES["E14"]
        serial, _, executed = measure(figure, str(tmp_path / "one.sqlite"), TINY, SEEDS)
        assert executed == 32  # 4 ring sizes x 4 algorithms x 2 seeds

        shared = str(tmp_path / "two.sqlite")
        fill(figure, shared)
        workers = [drain_in_a_process(shared, name) for name in ("w1", "w2")]
        assert [worker.wait(timeout=120) for worker in workers] == [0, 0]
        with ExperimentDB(shared) as db:
            drained_by = {row["worker"] for row in db.rows(status="done")}
        parallel, _, executed = measure(figure, shared, TINY, SEEDS)
        assert executed == 0 and drained_by <= {"w1", "w2"}
        assert parallel == serial

    def test_handed_out_rows_do_not_poison_the_cache(self, tmp_path):
        figure, db_path = FIGURES["E15"], str(tmp_path / "cache.sqlite")
        first, _, _ = measure(figure, db_path, TINY, SEEDS)
        first[0]["algorithm"] = "tampered"
        del first[0]["factor"]
        again, _, executed = measure(figure, db_path, TINY, SEEDS)
        assert executed == 0
        assert again[0]["algorithm"] == "sai"
        assert "factor" in again[0]
