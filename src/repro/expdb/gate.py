"""The gate and the diff: re-run rows and hold today's code to them.

``python -m repro.expdb gate BENCH_baseline.json`` holds every row of a
committed baseline to what it stored; ``python -m repro.expdb diff``
holds every row of a grid to its ``sim`` sibling, the same parameters
on the serial simulator (:func:`diff_rows`).  Both compare through one
function over :func:`~repro.bench.rows.exact_columns`
(:func:`~repro.bench.rows.differences`), and the only columns a sibling
may differ in are the entries of :data:`~repro.bench.rows.MAY_DIFFER`,
each with its reason.

A baseline is an ``export --json`` file.  Every row in it is decoded
back to its parameters, run through the same
:func:`~repro.expdb.runner.run_experiment` the worker uses, and
compared with what the row stored:

* the machine-independent columns
  (:func:`~repro.bench.rows.exact_columns`: the metric columns and,
  where the stored row has them, the install and stream traffic broken
  down by message type and the ``load`` block — ``TF``, ``TS``,
  per-level totals, the per-node vectors) must be **exactly** equal;
* ``wall_seconds`` — the whole path on every transport — may not exceed
  the stored wall times :data:`WALL_SLACK`.

A row's identity *is* its parameters, so a fresh run can only ever be
compared with the stored run of the same seeded point; a row the schema
cannot decode, or one that is not ``done``, is refused before anything
runs.  ``peak_rss_kb`` is a lifetime maximum of the gate's process, so
it grows monotonically across rows and is not gated.
"""

from __future__ import annotations

import traceback
from typing import Callable, Iterable, Iterator, Mapping, Optional

from ..bench.rows import METRIC_FIELDS, differences, exact_columns, sibling_differences
from ..sim.shard import fork_available
from .db import PARAM_FIELDS, decode_done_row, decode_params, row_label
from .runner import ExperimentOutcome, run_experiment

#: Today's wall may be this many times the stored one.  Both sides are
#: the same shipped path on the same seeded point, so the slack has to
#: cover machine noise only: walls on one box swing 20–25% from minute
#: to minute (measured while building ``benchmarks/joinbench``), more
#: across CI runners.  1.5 clears that twice over, yet a path that got
#: 2× slower fails.
WALL_SLACK = 1.5

#: A row over budget is run again, this many runs in all, and the
#: smallest wall counts: one slow run is the machine, three are the
#: code.  The re-runs wait for the next pass over the file — a noisy
#: neighbour slows this box 1.6–1.8× for seconds at a time, which three
#: runs in a row all land in.  Every run made must repeat the exact
#: columns.
MAX_RUNS = 3


class _GatedRow:
    """One baseline row: what it stored, and what its runs gave so far."""

    def __init__(self, row):
        self.row = row
        self.params, metrics, resources = decode_done_row(row)
        self.label = row_label(row.get("id"), self.params)
        self.stored_wall = resources["wall_seconds"]
        if not self.stored_wall:
            raise ValueError(f"{self.label} stores no wall_seconds to gate against")
        # A shard row is re-run over the shard count it was recorded
        # with: exchange_records depends on it.  Rows before version 3
        # kept the count among the resources.
        self.shards = (metrics.get("shard") or {}).get("shards", resources.get("shards"))
        # The columns as the file has them, not as metrics_json implies.
        self.stored = {**exact_columns(metrics), **{n: row.get(n) for n in METRIC_FIELDS}}
        self.first: Optional[dict] = None
        self.kept: Optional[ExperimentOutcome] = None
        self.problems: list[str] = []

    def run(self, runner) -> bool:
        """One more run; True if only its wall keeps the row from passing."""
        try:
            outcome = runner(self.params, shards=self.shards)
        except Exception:
            # Report the row and go on: one row that cannot run (a live
            # run leaving the simulator raises) must not hide what the
            # others would have shown.
            self.problems.append(f"{self.label}: run failed:\n{traceback.format_exc()}")
            return False
        exact = exact_columns(outcome.metrics)
        if self.first is None:
            self.first, against, verdict = exact, self.stored, "changed"
        else:
            against, verdict = self.first, "non-deterministic, differs between runs"
        self.problems.extend(
            f"{self.label}: {column} {verdict}: {old!r} -> {new!r}"
            for column, old, new in differences(
                against, {name: exact.get(name) for name in against}
            )
        )
        if self.kept is None or _wall(outcome) < _wall(self.kept):
            self.kept = outcome
        return not self.problems and _wall(self.kept) > self.stored_wall * WALL_SLACK


def _wall(outcome: ExperimentOutcome) -> float:
    return outcome.resources["wall_seconds"]


def gate_rows(
    baseline_rows: list,
    *,
    runner: Optional[Callable] = None,
    on_row: Optional[Callable] = None,
) -> list[str]:
    """Gate today's code against ``baseline_rows``; ``[]`` means green.

    ``runner`` is injectable for tests (default:
    :func:`~repro.expdb.runner.run_experiment`, resolved at call time,
    as in :func:`~repro.expdb.worker.run_worker`); ``on_row(row,
    outcome, problems)`` sees each baseline row once its verdict is in,
    with the run that was kept for it (``None`` if it raised) — the CLI
    prints a line and collects the fresh row.  Raises ``ValueError``
    before anything runs if a row cannot be gated at all.
    """
    if runner is None:
        runner = run_experiment
    report = on_row or (lambda row, outcome, problems: None)
    gated = [_GatedRow(row) for row in baseline_rows]
    pending = gated
    for _ in range(MAX_RUNS):
        over_budget = []
        for entry in pending:
            if entry.run(runner):
                over_budget.append(entry)
            else:
                report(entry.row, entry.kept, entry.problems)
        pending = over_budget
    for entry in pending:
        entry.problems.append(
            f"{entry.label}: wall_seconds {_wall(entry.kept):.3f}s > stored "
            f"{entry.stored_wall:.3f}s * {WALL_SLACK} = "
            f"{entry.stored_wall * WALL_SLACK:.3f}s (best of {MAX_RUNS} runs)"
        )
        report(entry.row, entry.kept, entry.problems)
    return [problem for entry in gated for problem in entry.problems]


#: Forked shards a ``shard`` row of the diff runs over, besides in process.
DIFF_SHARDS = 4

#: Events per staged epoch of a diff's ``shard`` rows, well below the
#: executor's default so that a small grid still crosses many epoch
#: barriers (CI's 800-tuple grids: 13 each, not 2).
DIFF_BATCH = 64


def diff_rows(rows: Iterable[Mapping]) -> Iterator[tuple[str, list[str]]]:
    """``(label, problems)`` per run of a grid's rows, each held to its
    ``sim`` sibling (``python -m repro.expdb diff``; no problems: agreed).

    ``rows`` are normalized parameter rows, as
    :meth:`~repro.expdb.grid.GridSpec.expand` gives them.  They are
    grouped by identity minus ``transport``, and each group's ``sim``
    row runs first, named by the grid or not; if it fails, nothing else
    in the group runs.  A ``shard`` row runs in process and, where fork
    is available, over :data:`DIFF_SHARDS` forked shards, in epochs of
    :data:`DIFF_BATCH` events.  A label names, besides what
    :func:`~repro.expdb.db.row_label` says, every parameter that is
    not the same on all rows.
    """
    rows = list(rows)
    named = ("transport", "algorithm", "n_nodes", "seed")  # by row_label
    varying = [n for n in PARAM_FIELDS if n not in named and len({r[n] for r in rows}) > 1]
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        identity = tuple(sorted((k, v) for k, v in row.items() if k != "transport"))
        groups.setdefault(identity, []).append(row)
    forks = (1, DIFF_SHARDS) if fork_available() else (1,)
    for members in groups.values():
        runs = [({**members[0], "transport": "sim"}, None)] + [
            (row, shards)
            for row in members
            if row["transport"] != "sim"
            for shards in (forks if row["transport"] == "shard" else (None,))
        ]
        sim = None
        for row, shards in runs:
            params = decode_params(row)
            label = " ".join([row_label(None, params)] + [f"{n}={row[n]}" for n in varying])
            label += f" shards={shards}" if shards else ""
            try:
                metrics = run_experiment(params, shards=shards, batch_size=DIFF_BATCH).metrics
            except Exception:
                yield label, [f"run failed:\n{traceback.format_exc()}"]
                if sim is None:
                    break
                continue
            sim = sim or metrics  # the group's first run is its sim row
            yield label, [
                f"{column} differs from sim: {old!r} -> {new!r}"
                for column, old, new in sibling_differences(sim, metrics, params)
            ]
