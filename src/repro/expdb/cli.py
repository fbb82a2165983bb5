"""Management CLI: ``python -m repro.expdb <command>``.

Commands
--------

``fill``
    Expand a declarative grid (a ``--grid`` JSON file and/or axis
    flags) and upsert it — existing rows keep their status, so filling
    is idempotent and extending a sweep is a re-fill.
``worker``
    Run the pull loop until drained (``--drain``), a row budget is hit
    (``--max-runs``), or Ctrl-C.  Start as many as you like.
``status``
    Status counts plus the currently running claims; ``--assert-done``
    exits non-zero unless every row is ``done`` (the CI gate).
``reset``
    Flip ``error`` / stale ``running`` rows back to ``open``.
``export``
    The whole table as CSV or JSON (documented schema:
    :data:`repro.expdb.db.EXPORT_COLUMNS`).
``report``
    A rendered table of the perf history, optionally aggregated over
    axes (``--group-by algorithm,n_nodes``).
``import-json``
    Backfill committed ``BENCH_*.json`` baselines as ``done`` rows so
    the history starts populated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .db import (
    EXPORT_COLUMNS,
    METRIC_FIELDS,
    PARAM_FIELDS,
    STATUSES,
    TRANSPORTS,
    ExperimentDB,
)
from .grid import ALGORITHMS, GridSpec, parse_axis
from .worker import WorkerConfig, default_worker_id, run_worker

#: Default database path (override per command with ``--db``).
DEFAULT_DB = "expdb.sqlite"


def _open_db(args) -> ExperimentDB:
    return ExperimentDB(args.db)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# fill
# ----------------------------------------------------------------------

def _grid_from_args(args) -> GridSpec:
    data: dict = {}
    if args.grid:
        with open(args.grid, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    axis_flags = (
        ("transports", args.transports, str),
        ("algorithms", args.algorithms, str),
        ("n_nodes", args.nodes, int),
        ("n_queries", args.queries, int),
        ("n_tuples", args.tuples, int),
        ("domain_sizes", args.domains, int),
        ("zipf_s", args.zipf, float),
        ("windows", args.windows, float),
        ("replication_factors", args.replication, int),
        ("jfrt_capacities", args.jfrt, int),
        ("evict_everys", args.evict_every, int),
        ("seeds", args.seeds, int),
    )
    for axis, flag, convert in axis_flags:
        values = parse_axis(flag, convert=convert)
        if values is not None:
            data[axis] = list(values)
    return GridSpec.from_dict(data)


def cmd_fill(args) -> int:
    try:
        grid = _grid_from_args(args)
    except (ValueError, OSError, json.JSONDecodeError) as error:
        return _fail(str(error))
    with _open_db(args) as db:
        added, existing = db.fill(grid.expand())
        counts = db.status_counts()
    print(
        f"grid of {grid.size()} experiments: {added} added, "
        f"{existing} already present "
        f"({counts['done']} done, {counts['open']} open)"
    )
    return 0


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------

def cmd_worker(args) -> int:
    if not os.path.exists(args.db):
        return _fail(f"no database at {args.db!r} — run 'fill' first")
    config = WorkerConfig(
        db_path=args.db,
        worker_id=args.worker_id or default_worker_id(),
        poll_interval=args.poll,
        heartbeat_every=args.heartbeat_every,
        stale_after=args.stale_after,
        drain=args.drain,
        max_runs=args.max_runs,
        shards=args.shards,
    )
    print(f"worker {config.worker_id} on {args.db}", file=sys.stderr)
    try:
        stats = run_worker(config, on_event=lambda line: print(line, file=sys.stderr))
    except KeyboardInterrupt:
        print("worker interrupted — claim released", file=sys.stderr)
        return 130
    print(
        f"worker {config.worker_id}: {stats.completed} done, "
        f"{stats.failed} error, {stats.lost_claims} lost claims"
    )
    return 0 if stats.failed == 0 else 2


# ----------------------------------------------------------------------
# status / reset
# ----------------------------------------------------------------------

def cmd_status(args) -> int:
    from ..bench.report import render_table

    with _open_db(args) as db:
        counts = db.status_counts()
        running = db.rows(status="running")
    total = sum(counts.values())
    print(
        f"{total} experiments: "
        + ", ".join(f"{counts[status]} {status}" for status in STATUSES)
    )
    if running:
        now = time.time()
        rows = [
            {
                "id": row["id"],
                "transport": row["transport"],
                "algorithm": row["algorithm"],
                "n_nodes": row["n_nodes"],
                "seed": row["seed"],
                "worker": row["worker"],
                "attempt": row["attempts"],
                "heartbeat_age_s": round(now - (row["heartbeat"] or now), 1),
            }
            for row in running
        ]
        print(render_table(list(rows[0]), rows))
    if args.assert_done:
        if total == 0:
            return _fail("assert-done: database holds no experiments")
        if counts["done"] != total:
            return _fail(
                f"assert-done: {total - counts['done']} of {total} rows not done"
            )
    return 0


def cmd_reset(args) -> int:
    if not (args.errors or args.stale or args.running):
        return _fail("nothing selected: pass --errors, --stale and/or --running")
    with _open_db(args) as db:
        count = db.reset(
            errors=args.errors,
            stale=args.stale,
            running=args.running,
            stale_after=args.stale_after,
        )
    print(f"reset {count} experiments to open")
    return 0


# ----------------------------------------------------------------------
# export / report
# ----------------------------------------------------------------------

def cmd_export(args) -> int:
    if not (args.csv or args.json):
        return _fail("pass --csv PATH and/or --json PATH")
    if args.status and args.status not in STATUSES:
        return _fail(f"unknown status {args.status!r}; expected one of {STATUSES}")
    with _open_db(args) as db:
        if args.csv:
            count = db.export_csv(args.csv, status=args.status)
            print(f"wrote {count} rows to {args.csv}")
        if args.json:
            count = db.export_json(args.json, status=args.status)
            print(f"wrote {count} rows to {args.json}")
    return 0


#: Row columns the report may group over.
GROUPABLE = PARAM_FIELDS + ("status",)


def cmd_report(args) -> int:
    from ..bench.report import render_table

    group_by = tuple(
        name.strip() for name in (args.group_by or "").split(",") if name.strip()
    )
    for name in group_by:
        if name not in GROUPABLE:
            return _fail(f"cannot group by {name!r}; choose from {GROUPABLE}")
    with _open_db(args) as db:
        rows = db.rows(status=args.status, transport=args.transport)
    if not rows:
        print("no experiments match")
        return 0
    if group_by:
        groups: dict[tuple, list[dict]] = {}
        for row in rows:
            groups.setdefault(tuple(row[name] for name in group_by), []).append(row)
        rendered = []
        for key in sorted(groups, key=repr):
            members = groups[key]
            done = [row for row in members if row["status"] == "done"]
            entry = dict(zip(group_by, key))
            entry["runs"] = len(members)
            entry["done"] = len(done)
            for metric in ("hops", "messages", "notifications_delivered"):
                values = [row[metric] for row in done if row[metric] is not None]
                entry[f"mean_{metric}"] = (
                    round(sum(values) / len(values), 1) if values else None
                )
            walls = [
                row["wall_seconds"] for row in done if row["wall_seconds"] is not None
            ]
            entry["mean_wall_s"] = round(sum(walls) / len(walls), 3) if walls else None
            digests = {
                row["notification_digest"]
                for row in done
                if row["notification_digest"]
            }
            entry["digests"] = len(digests)
            rendered.append(entry)
        print(render_table(list(rendered[0]), rendered))
        return 0
    table = [
        {
            "id": row["id"],
            "transport": row["transport"],
            "algo": row["algorithm"],
            "n_nodes": row["n_nodes"],
            "n_queries": row["n_queries"],
            "zipf": row["zipf_s"],
            "win": row["window"] or 0,
            "rep": row["replication_factor"],
            "jfrt": row["jfrt_capacity"],
            "faults": "y" if row["fault_plan"] else "",
            "seed": row["seed"],
            "status": row["status"],
            "hops": row["hops"],
            "notifs": row["notifications_delivered"],
            "digest": (row["notification_digest"] or "")[:10],
            "wall_s": row["wall_seconds"],
        }
        for row in rows
    ]
    print(render_table(list(table[0]), table))
    return 0


# ----------------------------------------------------------------------
# import-json (baseline backfill)
# ----------------------------------------------------------------------

def _import_macro(db: ExperimentDB, report: dict, worker: str) -> int:
    point = report["point"]
    imported = 0
    for algorithm, metrics in report.get("metrics", {}).items():
        params = {
            "transport": "sim",
            "algorithm": algorithm,
            "n_nodes": point["n_nodes"],
            "n_queries": point["n_queries"],
            "n_tuples": point["n_tuples"],
            "domain_size": point["domain_size"],
            "zipf_s": point["zipf_s"],
            "seed": report.get("seed", 1),
        }
        resources = {}
        wall = report.get("wall_seconds", {}).get(algorithm)
        if wall is not None:
            resources["wall_seconds"] = wall
        imported += db.import_done(params, metrics, resources, worker=worker)
    return imported


def _import_scale(db: ExperimentDB, report: dict, worker: str) -> int:
    imported = 0
    for entry in [report] + list(report.get("extra_points", [])):
        point = entry["point"]
        for algorithm, metrics in entry.get("metrics", {}).items():
            params = {
                "transport": "shard",
                "algorithm": algorithm,
                "n_nodes": point["n_nodes"],
                "n_queries": point["n_queries"],
                "n_tuples": point["n_tuples"],
                "domain_size": point["domain_size"],
                "zipf_s": point["zipf_s"],
                "window": point.get("window"),
                "replication_factor": point.get("replication_factor", 1),
                "jfrt_capacity": point.get("jfrt_capacity", 0),
                "evict_every": point.get("evict_every", 64),
                "seed": entry.get("seed", 1),
            }
            resources = dict(entry.get("resources", {}).get(algorithm, {}))
            wall = entry.get("wall_seconds", {}).get(algorithm)
            if wall is not None:
                resources["wall_seconds"] = wall
            imported += db.import_done(params, metrics, resources, worker=worker)
    return imported


def _import_loadgen(db: ExperimentDB, report: dict, worker: str) -> int:
    point = report["point"]
    imported = 0
    for algorithm, entry in report.get("algorithms", {}).items():
        measured = entry["batched"]
        metrics = {
            "kind": "live",
            "notifications_delivered": entry["notifications"],
            "notification_digest": entry["digest"],
            "mode": "batched",
            "live": measured,
        }
        params = {
            "transport": "live",
            "algorithm": algorithm,
            "n_nodes": point["n_nodes"],
            "n_queries": point["n_queries"],
            "n_tuples": point["n_tuples"],
            "domain_size": point["domain_size"],
            # The load generator streams the WorkloadParams default skew.
            "zipf_s": 0.9,
            "seed": point.get("seed", 1),
        }
        resources = {
            "wall_seconds": measured.get("wall_seconds"),
            "total_seconds": measured.get("total_seconds"),
            "events_per_sec": measured.get("events_per_sec"),
            "notifications_per_sec": measured.get("notifications_per_sec"),
            "latency_ms": measured.get("latency_ms"),
        }
        imported += db.import_done(params, metrics, resources, worker=worker)
    return imported


#: Baseline-name → importer.
IMPORTERS = {
    "macro-e14-largest": _import_macro,
    "sim-scale-point": _import_scale,
    "net-loadgen-v1": _import_loadgen,
}


def cmd_import_json(args) -> int:
    total = 0
    with _open_db(args) as db:
        for path in args.files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    report = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                return _fail(f"{path}: {error}")
            importer = IMPORTERS.get(report.get("name"))
            if importer is None:
                return _fail(
                    f"{path}: unknown baseline name {report.get('name')!r}; "
                    f"importable: {sorted(IMPORTERS)}"
                )
            count = importer(db, report, f"import:{os.path.basename(path)}")
            print(f"{path}: imported {count} experiments")
            total += count
    print(f"imported {total} experiments total")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.expdb",
        description="Persistent experiment database with pull-based workers.",
    )
    parser.add_argument(
        "--db", default=DEFAULT_DB, help=f"database path (default {DEFAULT_DB})"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fill = commands.add_parser("fill", help="expand a grid and upsert it")
    fill.add_argument("--grid", help="grid spec JSON file (axes: see GridSpec)")
    fill.add_argument("--transports", help=f"comma list of {TRANSPORTS}")
    fill.add_argument("--algorithms", help=f"comma list of {ALGORITHMS}")
    fill.add_argument("--nodes", help="comma list of ring sizes")
    fill.add_argument("--queries", help="comma list of query counts")
    fill.add_argument("--tuples", help="comma list of tuple counts")
    fill.add_argument("--domains", help="comma list of domain sizes")
    fill.add_argument("--zipf", help="comma list of Zipf exponents")
    fill.add_argument("--windows", help="comma list of windows ('none' = unbounded)")
    fill.add_argument("--replication", help="comma list of replication factors")
    fill.add_argument("--jfrt", help="comma list of JFRT capacities")
    fill.add_argument("--evict-every", help="comma list of eviction schedules")
    fill.add_argument("--seeds", help="comma list of seeds")
    fill.set_defaults(handler=cmd_fill)

    worker = commands.add_parser("worker", help="pull and execute open experiments")
    worker.add_argument("--worker-id", default=None, help="default: host:pid")
    worker.add_argument("--drain", action="store_true", help="exit when drained")
    worker.add_argument("--max-runs", type=int, default=0, help="0 = unlimited")
    worker.add_argument("--poll", type=float, default=2.0, help="idle poll seconds")
    worker.add_argument(
        "--heartbeat-every", type=float, default=5.0, help="heartbeat period"
    )
    worker.add_argument(
        "--stale-after",
        type=float,
        default=300.0,
        help="reclaim running rows with heartbeats older than this",
    )
    worker.add_argument(
        "--shards", type=int, default=None, help="shard count for shard rows"
    )
    worker.set_defaults(handler=cmd_worker)

    status = commands.add_parser("status", help="status counts + running claims")
    status.add_argument(
        "--assert-done",
        action="store_true",
        help="exit non-zero unless every row is done",
    )
    status.set_defaults(handler=cmd_status)

    reset = commands.add_parser("reset", help="flip failed/stale rows back to open")
    reset.add_argument("--errors", action="store_true", help="reset error rows")
    reset.add_argument(
        "--stale", action="store_true", help="reset running rows with expired heartbeats"
    )
    reset.add_argument(
        "--running", action="store_true", help="reset ALL running rows (no live workers!)"
    )
    reset.add_argument("--stale-after", type=float, default=300.0)
    reset.set_defaults(handler=cmd_reset)

    export = commands.add_parser("export", help="dump rows as CSV/JSON")
    export.add_argument("--csv", help="write CSV here")
    export.add_argument("--json", help="write JSON here")
    export.add_argument("--status", default=None, help="only rows with this status")
    export.set_defaults(handler=cmd_export)

    report = commands.add_parser("report", help="render the perf history")
    report.add_argument("--status", default=None, help="only rows with this status")
    report.add_argument("--transport", default=None, help="only this transport")
    report.add_argument(
        "--group-by", default=None, help="aggregate over these comma-separated axes"
    )
    report.set_defaults(handler=cmd_report)

    importer = commands.add_parser(
        "import-json", help="backfill committed BENCH_*.json baselines"
    )
    importer.add_argument("files", nargs="+", help="baseline JSON files")
    importer.set_defaults(handler=cmd_import_json)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as error:
        return _fail(str(error))


if __name__ == "__main__":  # pragma: no cover - module entry point
    raise SystemExit(main())
