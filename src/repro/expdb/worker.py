"""The pull-based worker loop (``python -m repro.expdb worker``).

Any number of worker processes — on any number of machines sharing the
database file (or each machine draining its own shard of the grid) —
run the same loop:

1. :meth:`~repro.expdb.db.ExperimentDB.claim` the next runnable row
   (atomic under ``BEGIN IMMEDIATE``; stale ``running`` rows whose
   heartbeat expired are reclaimed);
2. start a heartbeat thread that stamps the claim alive every few
   seconds over its **own** connection;
3. execute the row through :func:`repro.expdb.runner.run_experiment`;
4. persist the result (``finish``) or the full traceback (``fail``) —
   both guarded by ``worker=?``, so a claim lost to a stale-reclaim
   while we were merely slow is dropped, never double-written.

A worker killed at *any* point — including SIGKILL mid-run — leaves
the database consistent: the row stays ``running`` until its heartbeat
expires, then becomes claimable again (or is flipped back eagerly with
``reset --stale``).  Ctrl-C between rows exits cleanly; a sweep is
resumed by simply starting workers again.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from .db import ExperimentDB, row_label
from .runner import run_experiment


def default_worker_id() -> str:
    """``host:pid`` — unique enough across machines sharing a database."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WorkerConfig:
    """Knobs of one worker process."""

    db_path: str
    worker_id: str = field(default_factory=default_worker_id)
    #: Seconds between claim attempts while the table has nothing to do.
    poll_interval: float = 2.0
    #: Heartbeat period while running an experiment.
    heartbeat_every: float = 5.0
    #: Age at which another worker may reclaim a running row.  Must be
    #: comfortably larger than ``heartbeat_every``.
    stale_after: float = 300.0
    #: Exit once nothing is claimable (instead of polling forever).
    drain: bool = False
    #: Stop after this many executed rows (0 = unlimited).
    max_runs: int = 0
    #: Shard count for ``transport='shard'`` rows (None = 1, in-process).
    shards: Optional[int] = None


class _Heartbeat(threading.Thread):
    """Stamps one claim alive until stopped (own DB connection)."""

    def __init__(self, db_path: str, experiment_id: int, worker_id: str, every: float):
        super().__init__(name=f"expdb-heartbeat-{experiment_id}", daemon=True)
        self._db_path = db_path
        self._experiment_id = experiment_id
        self._worker_id = worker_id
        self._every = every
        self._halt = threading.Event()
        #: False once the claim stopped being ours (stale-reclaimed).
        self.owned = True

    def run(self) -> None:  # pragma: no cover - exercised via worker tests
        with ExperimentDB(self._db_path) as db:
            while not self._halt.wait(self._every):
                if not db.heartbeat(self._experiment_id, self._worker_id):
                    self.owned = False
                    return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10.0)


@dataclass
class WorkerStats:
    """What one worker loop did before exiting."""

    completed: int = 0
    failed: int = 0
    lost_claims: int = 0

    @property
    def executed(self) -> int:
        return self.completed + self.failed


def run_worker(
    config: WorkerConfig,
    *,
    runner: Optional[Callable] = None,
    on_event: Optional[Callable[[str], None]] = None,
) -> WorkerStats:
    """Drain experiments until told to stop; returns the tally.

    ``runner`` is injectable for tests (default: the real
    :func:`~repro.expdb.runner.run_experiment`, resolved at call time);
    ``on_event`` receives one human-readable line per lifecycle step
    (the CLI prints them).
    """
    if runner is None:
        runner = run_experiment
    emit = on_event or (lambda line: None)
    stats = WorkerStats()
    with ExperimentDB(config.db_path) as db:
        while True:
            claim = db.claim(config.worker_id, stale_after=config.stale_after)
            if claim is None:
                if config.drain:
                    emit("nothing claimable — draining worker exits")
                    return stats
                time.sleep(config.poll_interval)
                continue
            label = row_label(claim.id, claim.params)
            emit(
                f"claimed {label} (attempt {claim.attempts}"
                + (", reclaimed stale" if claim.reclaimed else "")
                + ")"
            )
            heartbeat = _Heartbeat(
                config.db_path, claim.id, config.worker_id, config.heartbeat_every
            )
            heartbeat.start()
            try:
                outcome = runner(claim.params, shards=config.shards)
            except KeyboardInterrupt:
                heartbeat.stop()
                db.release(claim.id, config.worker_id)
                emit(f"interrupted — released {label}")
                raise
            except Exception:
                heartbeat.stop()
                if db.fail(claim.id, config.worker_id, traceback.format_exc()):
                    stats.failed += 1
                    emit(f"error on {label} (recorded; reset with 'reset --errors')")
                else:
                    stats.lost_claims += 1
                    emit(f"lost claim on {label} while failing — dropped")
            else:
                heartbeat.stop()
                if db.finish(
                    claim.id, config.worker_id, outcome.metrics, outcome.resources
                ):
                    stats.completed += 1
                    emit(f"done {label}")
                else:
                    stats.lost_claims += 1
                    emit(f"lost claim on {label} while running — result dropped")
            if config.max_runs and stats.executed >= config.max_runs:
                emit(f"max-runs {config.max_runs} reached — worker exits")
                return stats
