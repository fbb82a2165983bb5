"""The experiment database: one SQLite row per experiment, forever.

Layout (the documented export schema)
-------------------------------------

Every experiment is **uniquely identified by its parameters** — the
grid axes plus the seed — and carries its lifecycle and its results in
the same row:

* parameter columns — ``transport`` (``sim`` / ``shard`` / ``live``),
  ``algorithm``, ``n_nodes``, ``n_queries``, ``n_tuples``,
  ``domain_size``, ``zipf_s``, ``window`` (``0`` = unbounded),
  ``replication_factor``, ``jfrt_capacity``, ``evict_every``,
  ``fault_plan`` (canonical JSON, ``''`` = fault-free), ``overrides``
  (canonical JSON ``{"engine": {...}, "workload": {...}}``, ``''`` =
  none: the config fields no column covers, :data:`OVERRIDABLE`),
  ``seed`` (engine, origin nodes *and* workload, unless
  ``overrides.workload.seed`` pins the workload draw);
* lifecycle columns — ``status`` (``open`` → ``running`` → ``done`` /
  ``error``), ``worker``, ``attempts``, ``created_at`` /
  ``started_at`` / ``finished_at`` / ``heartbeat`` (unix seconds),
  ``error`` (full traceback of the last failure);
* metric columns — the machine-independent results: ``hops``,
  ``messages``, ``notifications_delivered``, ``notification_digest``,
  ``evictions``, ``exchange_records``, plus ``metrics_json`` holding
  the full stable row (:meth:`~repro.bench.rows.RunReport.to_row`)
  with the per-type traffic breakdowns;
* resource columns — the machine-dependent results: ``wall_seconds``,
  ``peak_rss_kb``, ``events_per_sec``, plus ``resources_json`` for
  any extras (rows before row version 3 kept live latency percentiles
  and shard counts there).

Concurrency model
-----------------

The database is the only coordination point between workers — there is
no broker.  WAL journaling lets any number of readers overlap one
writer; every state transition is one short transaction:

* **claim** — ``BEGIN IMMEDIATE`` (taking the write lock up front so
  two workers can never select the same open row), pick the lowest-id
  claimable row, flip it to ``running`` with this worker's id and a
  fresh heartbeat, commit.  A row is *claimable* when it is ``open``,
  or when it is ``running`` but its heartbeat is older than
  ``stale_after`` — that is the whole crash story: a worker killed
  mid-run (SIGKILL included) simply stops heartbeating, and its row
  becomes claimable again once the heartbeat expires.
* **heartbeat** — a single guarded ``UPDATE`` from the worker's
  heartbeat thread.
* **finish/fail** — guarded by ``status='running' AND worker=?`` so a
  worker that lost its claim to a stale-reclaim (it was presumed dead
  but was merely slow) cannot clobber the new owner's run; the stale
  loser's write is dropped and reported.
"""

from __future__ import annotations

import csv
import json
import sqlite3
import time
from dataclasses import dataclass, fields
from typing import Iterable, Optional

from ..bench.rows import METRIC_FIELDS, metric_summary
from ..core.engine import EngineConfig
from ..workload.generator import WorkloadParams

#: Execution back-ends a row can ask for (ISSUE vocabulary:
#: sim / sharded-sim / live-net).
TRANSPORTS = ("sim", "shard", "live")

#: Legal row states, in lifecycle order.
STATUSES = ("open", "running", "done", "error")

#: Parameter columns, in canonical order.  Together with ``seed`` they
#: are the row's identity (UNIQUE constraint); ``window`` uses ``0.0``
#: for "unbounded" and ``fault_plan`` / ``overrides`` use ``''`` for
#: "none" so SQLite's NULL-is-always-distinct UNIQUE semantics can never
#: admit duplicate rows.
PARAM_FIELDS = (
    "transport",
    "algorithm",
    "n_nodes",
    "n_queries",
    "n_tuples",
    "domain_size",
    "zipf_s",
    "window",
    "replication_factor",
    "jfrt_capacity",
    "evict_every",
    "fault_plan",
    "overrides",
    "seed",
)

#: What ``overrides`` may set, per section: every config field that no
#: column already says (one way to state each thing), plus the workload
#: seed, which otherwise follows the ``seed`` column.
OVERRIDABLE = {
    "engine": {f.name for f in fields(EngineConfig)} - set(PARAM_FIELDS),
    "workload": {f.name for f in fields(WorkloadParams)} - set(PARAM_FIELDS) | {"seed"},
}

#: Machine-dependent result columns (besides ``resources_json``).
RESOURCE_FIELDS = ("wall_seconds", "peak_rss_kb", "events_per_sec")

#: Column order of exports, and the documented CSV schema.
EXPORT_COLUMNS = (
    ("id",)
    + PARAM_FIELDS
    + ("status", "worker", "attempts", "created_at", "started_at", "finished_at", "heartbeat", "error")
    + METRIC_FIELDS
    + RESOURCE_FIELDS
    + ("metrics_json", "resources_json")
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS experiments (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    transport TEXT NOT NULL,
    algorithm TEXT NOT NULL,
    n_nodes INTEGER NOT NULL,
    n_queries INTEGER NOT NULL,
    n_tuples INTEGER NOT NULL,
    domain_size INTEGER NOT NULL,
    zipf_s REAL NOT NULL,
    window REAL NOT NULL DEFAULT 0.0,
    replication_factor INTEGER NOT NULL DEFAULT 1,
    jfrt_capacity INTEGER NOT NULL DEFAULT 0,
    evict_every INTEGER NOT NULL DEFAULT 64,
    fault_plan TEXT NOT NULL DEFAULT '',
    overrides TEXT NOT NULL DEFAULT '',
    seed INTEGER NOT NULL,
    status TEXT NOT NULL DEFAULT 'open'
        CHECK (status IN ('open', 'running', 'done', 'error')),
    worker TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    created_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL,
    heartbeat REAL,
    error TEXT,
    hops INTEGER,
    messages INTEGER,
    notifications_delivered INTEGER,
    notification_digest TEXT,
    evictions INTEGER,
    exchange_records INTEGER,
    metrics_json TEXT,
    wall_seconds REAL,
    peak_rss_kb INTEGER,
    events_per_sec REAL,
    resources_json TEXT,
    UNIQUE (transport, algorithm, n_nodes, n_queries, n_tuples,
            domain_size, zipf_s, window, replication_factor,
            jfrt_capacity, evict_every, fault_plan, overrides, seed)
);
CREATE INDEX IF NOT EXISTS experiments_status ON experiments (status, id);
"""


def canonical_fault_plan(plan: Optional[dict]) -> str:
    """The fault-plan column value: sorted-key compact JSON or ``''``."""
    if not plan:
        return ""
    return json.dumps(plan, sort_keys=True, separators=(",", ":"))


def canonical_overrides(overrides) -> str:
    """The ``overrides`` column value, refusing what no run could honour.

    Accepts the dict, its JSON text or nothing; empty sections drop out
    so equal overrides collide whatever their source spelling.  An
    unknown section or field is named.
    """
    if isinstance(overrides, str):
        overrides = json.loads(overrides) if overrides else None
    overrides = overrides or {}
    if not isinstance(overrides, dict):
        raise ValueError(f"overrides must be a dict, got {overrides!r}")
    for section, values in overrides.items():
        if section not in OVERRIDABLE or not isinstance(values, dict):
            raise ValueError(
                f"overrides must map sections {sorted(OVERRIDABLE)} to dicts, "
                f"got {section!r}: {values!r}"
            )
        unknown = sorted(set(values) - OVERRIDABLE[section])
        if unknown:
            raise ValueError(
                f"overrides.{section} cannot set {unknown}; "
                f"choose from {sorted(OVERRIDABLE[section])}"
            )
    overrides = {section: values for section, values in overrides.items() if values}
    return canonical_fault_plan(overrides)


def normalize_params(params: dict) -> dict:
    """One experiment's identity in column form, validated.

    Accepts ``window=None`` / ``fault_plan=None`` / ``overrides=None``
    (and the dict forms of the last two) and returns exactly the
    :data:`PARAM_FIELDS` with their storage encodings, so the same dict
    always maps to the same row.
    """
    row = dict(params)
    unknown = set(row) - set(PARAM_FIELDS)
    if unknown:
        raise ValueError(f"unknown experiment parameters: {sorted(unknown)}")
    missing = [
        name
        for name in ("algorithm", "n_nodes", "n_queries", "n_tuples", "domain_size")
        if name not in row
    ]
    if missing:
        raise ValueError(f"experiment parameters missing: {missing}")
    transport = row.get("transport", "sim")
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of {TRANSPORTS}"
        )
    window = row.get("window")
    fault_plan = row.get("fault_plan")
    if isinstance(fault_plan, dict) or fault_plan is None:
        fault_plan = canonical_fault_plan(fault_plan)
    return {
        "transport": transport,
        "algorithm": str(row["algorithm"]),
        "n_nodes": int(row["n_nodes"]),
        "n_queries": int(row["n_queries"]),
        "n_tuples": int(row["n_tuples"]),
        "domain_size": int(row["domain_size"]),
        "zipf_s": float(row.get("zipf_s", 0.9)),
        "window": float(window) if window else 0.0,
        "replication_factor": int(row.get("replication_factor", 1)),
        "jfrt_capacity": int(row.get("jfrt_capacity", 0)),
        "evict_every": int(row.get("evict_every", 64)),
        "fault_plan": fault_plan,
        "overrides": canonical_overrides(row.get("overrides")),
        "seed": int(row.get("seed", 1)),
    }


def decode_params(row: dict) -> dict:
    """Storage encodings back to Python values (inverse of normalize)."""
    params = {name: row[name] for name in PARAM_FIELDS}
    params["window"] = row["window"] or None
    params["fault_plan"] = json.loads(row["fault_plan"]) if row["fault_plan"] else None
    params["overrides"] = json.loads(row["overrides"]) if row["overrides"] else None
    return params


def row_label(row_id, params: dict) -> str:
    """How log lines and gate failures name one experiment."""
    return (
        f"#{row_id} {params['transport']}/{params['algorithm']} "
        f"n={params['n_nodes']} seed={params['seed']}"
    )


def read_export(path: str) -> list:
    """The rows of an ``export --json`` file (see :func:`decode_done_row`)."""
    with open(path, "r", encoding="utf-8") as handle:
        rows = json.load(handle)
    if not isinstance(rows, list):
        raise ValueError("not an 'export --json' file: expected a list of rows")
    return rows


def decode_done_row(row) -> tuple[dict, dict, dict]:
    """One finished export row as ``(params, metrics, resources)``.

    The inverse of what :meth:`ExperimentDB.finish` stored — exactly
    the arguments of :meth:`ExperimentDB.import_done`, and what the
    gate re-runs and compares against.  Anything else is refused, never
    skipped: a column the schema does not know, parameters
    :func:`normalize_params` rejects, a row that is not ``done``.
    """
    if not isinstance(row, dict):
        raise ValueError(f"not an export row: {row!r}")
    unknown = sorted(set(row) - set(EXPORT_COLUMNS))
    missing = [name for name in PARAM_FIELDS if name not in row]
    if unknown or missing:
        raise ValueError(
            f"not an export row: unknown columns {unknown}, "
            f"missing parameters {missing}"
        )
    params = decode_params(normalize_params({name: row[name] for name in PARAM_FIELDS}))
    if row.get("status") != "done" or not row.get("metrics_json"):
        raise ValueError(
            f"{row_label(row.get('id'), params)} is {row.get('status')!r} "
            f"without results — only 'done' rows carry a measurement"
        )
    resources = {name: row.get(name) for name in RESOURCE_FIELDS}
    resources.update(json.loads(row.get("resources_json") or "{}"))
    return params, json.loads(row["metrics_json"]), resources


@dataclass(frozen=True)
class Claim:
    """One successfully claimed experiment."""

    id: int
    params: dict
    attempts: int
    #: True when this claim reclaimed a stale ``running`` row.
    reclaimed: bool = False


class ExperimentDB:
    """Connection-owning wrapper over the experiments table.

    Not thread-safe by design — every thread (notably the worker's
    heartbeat thread) opens its own instance over the same path, which
    is exactly the cross-process protocol anyway.
    """

    def __init__(self, path: str, timeout: float = 30.0):
        self.path = path
        self._conn = sqlite3.connect(path, timeout=timeout, isolation_level=None)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ExperimentDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- filling -------------------------------------------------------

    def fill(self, params_iter: Iterable[dict]) -> tuple[int, int]:
        """Upsert experiments; returns ``(added, existing)``.

        Existing rows — whatever their status — are left untouched, so
        re-filling the same grid after a crash or an extension of the
        axes is always safe and resumable: only genuinely new parameter
        combinations join as ``open``.
        """
        added = existing = 0
        now = time.time()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            for params in params_iter:
                columns = normalize_params(params)
                placed = self._conn.execute(
                    f"INSERT OR IGNORE INTO experiments "
                    f"({', '.join(PARAM_FIELDS)}, status, created_at) "
                    f"VALUES ({', '.join('?' * len(PARAM_FIELDS))}, 'open', ?)",
                    tuple(columns[name] for name in PARAM_FIELDS) + (now,),
                )
                if placed.rowcount:
                    added += 1
                else:
                    existing += 1
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return added, existing

    # -- the claim protocol --------------------------------------------

    def claim(self, worker: str, *, stale_after: float = 300.0) -> Optional[Claim]:
        """Atomically claim the next runnable experiment, if any.

        ``BEGIN IMMEDIATE`` serializes claimers; the guarded UPDATE
        flips the chosen row to ``running`` under this worker's id.  A
        ``running`` row whose heartbeat is older than ``stale_after``
        seconds is treated as abandoned and reclaimed.
        """
        now = time.time()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            row = self._conn.execute(
                "SELECT * FROM experiments WHERE status = 'open' "
                "OR (status = 'running' AND heartbeat IS NOT NULL AND heartbeat < ?) "
                "ORDER BY id LIMIT 1",
                (now - stale_after,),
            ).fetchone()
            if row is None:
                self._conn.execute("COMMIT")
                return None
            self._conn.execute(
                "UPDATE experiments SET status = 'running', worker = ?, "
                "started_at = ?, heartbeat = ?, error = NULL, "
                "attempts = attempts + 1 WHERE id = ?",
                (worker, now, now, row["id"]),
            )
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        return Claim(
            id=row["id"],
            params=decode_params(dict(row)),
            attempts=row["attempts"] + 1,
            reclaimed=row["status"] == "running",
        )

    def heartbeat(self, experiment_id: int, worker: str) -> bool:
        """Refresh the claim's liveness stamp; False if the claim is gone."""
        done = self._conn.execute(
            "UPDATE experiments SET heartbeat = ? "
            "WHERE id = ? AND status = 'running' AND worker = ?",
            (time.time(), experiment_id, worker),
        )
        return bool(done.rowcount)

    def finish(
        self,
        experiment_id: int,
        worker: str,
        metrics: dict,
        resources: Optional[dict] = None,
    ) -> bool:
        """Persist a completed run; False if the claim was lost.

        ``metrics`` is a stable result row (``to_row()`` output): its
        invariant scalars are denormalized into queryable columns and
        the full row — per-type traffic included — is kept verbatim in
        ``metrics_json``.
        """
        summary = metric_summary(metrics)
        resources = dict(resources or {})
        extras = {
            key: value
            for key, value in resources.items()
            if key not in RESOURCE_FIELDS
        }
        done = self._conn.execute(
            "UPDATE experiments SET status = 'done', finished_at = ?, "
            "error = NULL, hops = ?, messages = ?, "
            "notifications_delivered = ?, notification_digest = ?, "
            "evictions = ?, exchange_records = ?, metrics_json = ?, "
            "wall_seconds = ?, peak_rss_kb = ?, events_per_sec = ?, "
            "resources_json = ? "
            "WHERE id = ? AND status = 'running' AND worker = ?",
            (
                time.time(),
                summary["hops"],
                summary["messages"],
                summary["notifications_delivered"],
                summary["notification_digest"],
                summary["evictions"],
                summary["exchange_records"],
                json.dumps(metrics, sort_keys=True, separators=(",", ":")),
                resources.get("wall_seconds"),
                resources.get("peak_rss_kb"),
                resources.get("events_per_sec"),
                json.dumps(extras, sort_keys=True, separators=(",", ":"))
                if extras
                else None,
                experiment_id,
                worker,
            ),
        )
        return bool(done.rowcount)

    def fail(self, experiment_id: int, worker: str, error: str) -> bool:
        """Record a failed run (full traceback); False if claim lost."""
        done = self._conn.execute(
            "UPDATE experiments SET status = 'error', finished_at = ?, "
            "error = ? WHERE id = ? AND status = 'running' AND worker = ?",
            (time.time(), error, experiment_id, worker),
        )
        return bool(done.rowcount)

    # -- management ----------------------------------------------------

    def reset(
        self,
        *,
        errors: bool = False,
        stale: bool = False,
        running: bool = False,
        stale_after: float = 300.0,
    ) -> int:
        """Flip failed/abandoned rows back to ``open``; returns count.

        ``errors`` resets ``error`` rows, ``stale`` resets ``running``
        rows whose heartbeat expired, ``running`` resets *every*
        running row (only safe when no worker is alive).  Results and
        the error column are cleared so a reset row re-runs cleanly;
        ``attempts`` survives as the retry history.
        """
        clauses = []
        args: list = []
        if errors:
            clauses.append("status = 'error'")
        if stale:
            clauses.append(
                "(status = 'running' AND (heartbeat IS NULL OR heartbeat < ?))"
            )
            args.append(time.time() - stale_after)
        if running:
            clauses.append("status = 'running'")
        if not clauses:
            return 0
        done = self._conn.execute(
            "UPDATE experiments SET status = 'open', worker = NULL, "
            "started_at = NULL, finished_at = NULL, heartbeat = NULL, "
            "error = NULL, hops = NULL, messages = NULL, "
            "notifications_delivered = NULL, notification_digest = NULL, "
            "evictions = NULL, exchange_records = NULL, metrics_json = NULL, "
            "wall_seconds = NULL, peak_rss_kb = NULL, events_per_sec = NULL, "
            "resources_json = NULL "
            f"WHERE {' OR '.join(clauses)}",
            args,
        )
        return done.rowcount

    def status_counts(self) -> dict[str, int]:
        """Row counts by status (all statuses present, zeros included)."""
        counts = dict.fromkeys(STATUSES, 0)
        for status, count in self._conn.execute(
            "SELECT status, COUNT(*) FROM experiments GROUP BY status"
        ):
            counts[status] = count
        return counts

    def rows(
        self, *, status: Optional[str] = None, transport: Optional[str] = None
    ) -> list[dict]:
        """All rows (optionally filtered), id order, as export dicts."""
        clauses, args = [], []
        if status is not None:
            if status not in STATUSES:
                raise ValueError(f"unknown status {status!r}; expected {STATUSES}")
            clauses.append("status = ?")
            args.append(status)
        if transport is not None:
            if transport not in TRANSPORTS:
                raise ValueError(
                    f"unknown transport {transport!r}; expected {TRANSPORTS}"
                )
            clauses.append("transport = ?")
            args.append(transport)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        cursor = self._conn.execute(
            f"SELECT * FROM experiments{where} ORDER BY id", args
        )
        return [{name: row[name] for name in EXPORT_COLUMNS} for row in cursor]

    def get(self, experiment_id: int) -> Optional[dict]:
        """One row by id, as an export dict (None when absent)."""
        row = self._conn.execute(
            "SELECT * FROM experiments WHERE id = ?", (experiment_id,)
        ).fetchone()
        return row and {name: row[name] for name in EXPORT_COLUMNS}

    # -- backfill ------------------------------------------------------

    def import_done(
        self,
        params: dict,
        metrics: dict,
        resources: Optional[dict] = None,
        *,
        worker: str = "import",
    ) -> bool:
        """Insert one already-measured experiment as a ``done`` row.

        The ``import-json`` path (arguments: :func:`decode_done_row`):
        the row is created open, immediately claimed by ``worker`` and
        finished with the given results, all in-process.  Returns False
        (and changes nothing) when the parameter combination already
        exists — stored history is never overwritten.
        """
        added, _ = self.fill([params])
        if not added:
            return False
        claim_id = self.find(params)["id"]
        now = time.time()
        self._conn.execute(
            "UPDATE experiments SET status = 'running', worker = ?, "
            "started_at = ?, heartbeat = ?, attempts = attempts + 1 "
            "WHERE id = ? AND status = 'open'",
            (worker, now, now, claim_id),
        )
        return self.finish(claim_id, worker, metrics, resources)

    def release(self, experiment_id: int, worker: str) -> bool:
        """Put a claimed row back to ``open`` untouched (claim undo)."""
        done = self._conn.execute(
            "UPDATE experiments SET status = 'open', worker = NULL, "
            "started_at = NULL, heartbeat = NULL "
            "WHERE id = ? AND status = 'running' AND worker = ?",
            (experiment_id, worker),
        )
        return bool(done.rowcount)

    def find(self, params: dict) -> Optional[dict]:
        """The row with exactly these parameters, as an export dict
        (None when absent) — how a figure reads its grid back."""
        columns = normalize_params(params)
        where = " AND ".join(f"{name} = ?" for name in PARAM_FIELDS)
        row = self._conn.execute(
            f"SELECT * FROM experiments WHERE {where}",
            tuple(columns[name] for name in PARAM_FIELDS),
        ).fetchone()
        return row and {name: row[name] for name in EXPORT_COLUMNS}

    # -- export --------------------------------------------------------

    def export_json(self, path: str, *, status: Optional[str] = None) -> int:
        """Write all (or filtered) rows as a JSON list; returns count."""
        rows = self.rows(status=status)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
            handle.write("\n")
        return len(rows)

    def export_csv(self, path: str, *, status: Optional[str] = None) -> int:
        """Write all (or filtered) rows as CSV; returns count.

        Columns are exactly :data:`EXPORT_COLUMNS`, in order — the
        documented, stable export schema.
        """
        rows = self.rows(status=status)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=EXPORT_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
        return len(rows)
