"""Stand-ins for gate tests: export-shaped rows and a replaying runner."""

from __future__ import annotations

import copy
from collections import Counter

from repro.expdb.db import ExperimentDB, decode_done_row, normalize_params
from repro.expdb.runner import ExperimentOutcome


def traffic(hops: int, messages: int) -> dict:
    return {
        "hops": hops,
        "messages": messages,
        "hops_by_type": {"join": hops - 1, "notification": 1},
        "messages_by_type": {"join": messages - 1, "notification": 1},
        "messages_dropped": 0,
        "retries": 0,
        "messages_delayed": 0,
    }


def metrics_row(hops: int = 100) -> dict:
    """A ``RunReport.to_row()``-shaped metrics row."""
    return {
        "row_version": 1,
        "kind": "run",
        "install_traffic": traffic(10, 4),
        "stream_traffic": traffic(hops - 10, 46),
        "notifications_delivered": 7,
        "notification_digest": "ab" * 20,
        "evictions": 0,
    }


def export_rows(entries) -> list[dict]:
    """``(params, metrics, resources)`` triples as ``export --json`` rows."""
    with ExperimentDB(":memory:") as db:
        for params, metrics, resources in entries:
            assert db.import_done(params, metrics, resources, worker="recorded")
        return db.rows()


def two_rows(wall: float = 10.0) -> list[dict]:
    """A two-algorithm baseline at one point, ``wall`` seconds each."""
    point = {"n_nodes": 512, "n_queries": 200, "n_tuples": 350, "domain_size": 900}
    return export_rows(
        (
            {**point, "algorithm": algorithm},
            metrics_row(hops),
            {"wall_seconds": wall, "peak_rss_kb": 1000, "events_per_sec": 55.0},
        )
        for algorithm, hops in (("sai", 100), ("dai-t", 101))
    )


class Replay:
    """A runner answering every row with what the baseline stored.

    ``wall(stored, nth)`` / ``metrics(stored, nth)`` shape the ``nth``
    run (0-based) of a row; the defaults repeat the stored run exactly.
    ``calls`` records the ``(params, shards)`` of every run made.
    """

    def __init__(self, rows, *, wall=None, metrics=None):
        self.stored = {}
        for row in rows:
            params, stored_metrics, resources = decode_done_row(row)
            self.stored[self.identity(params)] = (stored_metrics, resources)
        self.wall = wall or (lambda stored, nth: stored)
        self.metrics = metrics or (lambda stored, nth: stored)
        self.calls: list[tuple] = []
        self.runs: Counter = Counter()

    @staticmethod
    def identity(params: dict) -> tuple:
        return tuple(sorted(normalize_params(params).items()))

    def __call__(self, params, *, shards=None) -> ExperimentOutcome:
        identity = self.identity(params)
        nth = self.runs[identity]
        self.runs[identity] += 1
        self.calls.append((params, shards))
        stored_metrics, resources = self.stored[identity]
        return ExperimentOutcome(
            metrics=self.metrics(copy.deepcopy(stored_metrics), nth),
            resources={
                **resources,
                "wall_seconds": self.wall(resources["wall_seconds"], nth),
            },
        )
