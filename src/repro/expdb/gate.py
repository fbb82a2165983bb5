"""The gate: re-run a committed baseline row by row and hold today's
code to it (``python -m repro.expdb gate BENCH_baseline.json``).

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
from typing import Callable, Iterator, Mapping, Optional

from ..bench.rows import METRIC_FIELDS, exact_columns
from .db import decode_done_row, row_label
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


def _differences(stored, fresh, path: str = "") -> Iterator[tuple]:
    """``(column path, stored, fresh)`` for every leaf that differs."""
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for key in sorted(set(stored) | set(fresh)):
            yield from _differences(
                stored.get(key), fresh.get(key), f"{path}.{key}" if path else key
            )
    elif stored != fresh:
        yield path, stored, fresh


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
            for column, old, new in _differences(
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
