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
    The inverse of ``export --json``: insert the ``done`` rows of such
    files (the committed ``BENCH_baseline.json`` / ``BENCH_history.json``
    included) so the history starts populated.
``gate``
    Re-run every row of an ``export --json`` file and fail unless the
    counted metrics repeat exactly and each wall stays within budget
    (:mod:`repro.expdb.gate` — the CI perf gate).
``diff``
    Run a grid (the ``fill`` flags) without a database and fail unless
    every row equals its ``sim`` sibling in every exact column but
    those :data:`repro.bench.rows.MAY_DIFFER` names — the
    cross-executor differential; ``shard`` rows run in process and
    over forked shards, in epochs of 64 events.
``figure``
    Print tables and figures of the paper (``figure E6 E7``): fill each
    one's grids at ``--scale`` over ``--seeds``, drain what is still
    open, extract the seed means (:mod:`repro.bench.figures`).  Rows
    already ``done`` are not run again.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from operator import itemgetter
from typing import Optional, Sequence

from ..bench.configs import SCALES, current_scale
from ..bench.figures import FIGURES, SEEDS, measure
from ..bench.report import render_table
from ..bench.rows import aggregate, mean_over
from .db import (
    EXPORT_COLUMNS,
    METRIC_FIELDS,
    PARAM_FIELDS,
    STATUSES,
    TRANSPORTS,
    ExperimentDB,
    decode_done_row,
    read_export,
    row_label,
)
from .gate import diff_rows, gate_rows
from .grid import ALGORITHMS, GridSpec, parse_axis
from .worker import WorkerConfig, default_worker_id, run_worker

#: Default database path (override per command with ``--db``).
DEFAULT_DB = "expdb.sqlite"


def _open_db(args) -> ExperimentDB:
    return ExperimentDB(args.db)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _progress(line: str) -> None:
    """Worker lifecycle lines go to stderr; stdout is the command's result."""
    print(line, file=sys.stderr)


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
        stats = run_worker(config, on_event=_progress)
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
        columns = {
            "runs": len,
            "done": lambda members: sum(row["status"] == "done" for row in members),
            **{
                f"mean_{metric}": mean_over(itemgetter(metric))
                for metric in ("hops", "messages", "notifications_delivered")
            },
            "mean_wall_s": mean_over(itemgetter("wall_seconds")),
            "digests": lambda members: len(
                {row["notification_digest"] for row in members} - {None, ""}
            ),
        }
        rendered = sorted(
            aggregate(rows, group_by, columns),
            key=lambda entry: repr(tuple(entry[name] for name in group_by)),
        )
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
            "over": "y" if row["overrides"] else "",
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
# import-json / gate (both read ``export --json`` files)
# ----------------------------------------------------------------------

def cmd_import_json(args) -> int:
    total = 0
    with _open_db(args) as db:
        for path in args.files:
            try:
                rows = read_export(path)
                decoded = [decode_done_row(row) for row in rows]
            except (OSError, ValueError) as error:
                return _fail(f"{path}: {error}")
            count = sum(
                db.import_done(
                    params, metrics, resources, worker=row.get("worker") or "import"
                )
                for row, (params, metrics, resources) in zip(rows, decoded)
            )
            print(f"{path}: imported {count} experiments")
            total += count
    print(f"imported {total} experiments total")
    return 0


def cmd_gate(args) -> int:
    baseline = read_export(args.file)
    kept: dict[int, object] = {}  # by id(row): rows settle out of file order

    def on_row(row, outcome, problems) -> None:
        verdict = "FAIL" if problems else "ok"
        label = row_label(row.get("id"), row)
        if outcome is None:
            print(f"{verdict:4s} {label}: did not run", file=sys.stderr)
            return
        kept[id(row)] = outcome
        wall, stored = outcome.resources["wall_seconds"], row["wall_seconds"]
        print(
            f"{verdict:4s} {label}: {wall:.3f}s vs stored {stored:.3f}s "
            f"({wall / stored:.2f}x)",
            file=sys.stderr,
        )

    problems = gate_rows(baseline, on_row=on_row)
    if args.output:
        # Through the writer every sweep row goes through, so the
        # artifact is itself a baseline.
        with ExperimentDB(":memory:") as fresh:
            for row in baseline:
                if id(row) in kept:
                    outcome = kept[id(row)]
                    fresh.import_done(
                        {name: row[name] for name in PARAM_FIELDS},
                        outcome.metrics,
                        outcome.resources,
                        worker="gate",
                    )
            count = fresh.export_json(args.output)
        print(f"wrote {count} rows to {args.output}", file=sys.stderr)
    for problem in problems:
        print(f"GATE FAIL: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"gate: OK — {len(baseline)} rows repeat exactly, walls within budget")
    return 0


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------

def cmd_diff(args) -> int:
    failed = 0
    for label, problems in diff_rows(_grid_from_args(args).expand()):
        print(f"{'FAIL' if problems else 'ok':4s} {label}")
        for problem in problems:
            print(f"DIFF FAIL: {label}: {problem}", file=sys.stderr)
        failed += bool(problems)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# figure
# ----------------------------------------------------------------------

def cmd_figure(args) -> int:
    scale = SCALES[args.scale] if args.scale else current_scale()
    seeds = parse_axis(args.seeds, convert=int) or SEEDS
    executed = 0
    for name in args.ids:
        try:
            rows, curves, ran = measure(FIGURES[name], args.db, scale, seeds, _progress)
        except RuntimeError as error:
            return _fail(str(error))
        executed += ran
        print(FIGURES[name].to_text(rows, curves))
        print()
    print(f"figure: executed {executed} rows at scale {scale.name!r}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def _add_grid_flags(command: argparse.ArgumentParser) -> None:
    """The grid flags ``fill`` and ``diff`` read (:func:`_grid_from_args`)."""
    command.add_argument("--grid", help="grid spec JSON file (axes: see GridSpec)")
    command.add_argument("--transports", help=f"comma list of {TRANSPORTS}")
    command.add_argument("--algorithms", help=f"comma list of {ALGORITHMS}")
    command.add_argument("--nodes", help="comma list of ring sizes")
    command.add_argument("--queries", help="comma list of query counts")
    command.add_argument("--tuples", help="comma list of tuple counts")
    command.add_argument("--domains", help="comma list of domain sizes")
    command.add_argument("--zipf", help="comma list of Zipf exponents")
    command.add_argument("--windows", help="comma list of windows ('none' = unbounded)")
    command.add_argument("--replication", help="comma list of replication factors")
    command.add_argument("--jfrt", help="comma list of JFRT capacities")
    command.add_argument("--evict-every", help="comma list of eviction schedules")
    command.add_argument("--seeds", help="comma list of seeds")


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
    _add_grid_flags(fill)
    fill.set_defaults(handler=cmd_fill)

    diff = commands.add_parser(
        "diff", help="run a grid; every row must equal its sim sibling"
    )
    _add_grid_flags(diff)
    diff.set_defaults(handler=cmd_diff)

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
        "import-json", help="insert the done rows of export --json files"
    )
    importer.add_argument("files", nargs="+", help="export --json files")
    importer.set_defaults(handler=cmd_import_json)

    gate = commands.add_parser(
        "gate", help="re-run a baseline's rows; exact metrics, bounded walls"
    )
    gate.add_argument("file", help="export --json file (BENCH_baseline.json)")
    gate.add_argument("--output", help="write the fresh rows here (JSON)")
    gate.set_defaults(handler=cmd_gate)

    figure = commands.add_parser(
        "figure", help="fill, drain and print tables/figures of the paper"
    )
    figure.add_argument(
        "ids", nargs="+", metavar="ID", choices=list(FIGURES), help="T1, E1..E17"
    )
    figure.add_argument(
        "--scale", choices=sorted(SCALES), help="profile (default: REPRO_SCALE)"
    )
    figure.add_argument("--seeds", help="comma list of seeds (default 1,2,3,4,5)")
    figure.add_argument(
        "--db", default=argparse.SUPPRESS, help="database path (as before the command)"
    )
    figure.set_defaults(handler=cmd_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as error:
        return _fail(str(error))


if __name__ == "__main__":  # pragma: no cover - module entry point
    raise SystemExit(main())
