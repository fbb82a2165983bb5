"""The gate's comparison rules, one stored row against one run.

``gate_rows`` is what CI runs against the committed
``BENCH_baseline.json``: the counted metrics of a fresh run must match
the stored row *exactly*, its wall may be at most ``WALL_SLACK`` times
the stored one.  A replaying runner stands in for the real one, so each
rule is exercised on walls and metrics chosen by the test.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.expdb.db import read_export
from repro.expdb.gate import MAX_RUNS, WALL_SLACK, gate_rows

from ..expdb.gate_fakes import Replay, two_rows


def gate(rows, **shape) -> tuple[list[str], Replay]:
    runner = Replay(rows, **shape)
    return gate_rows(rows, runner=runner), runner


class TestCompareReports:
    def test_identical_reports_pass(self):
        problems, runner = gate(two_rows())
        assert problems == []
        assert len(runner.calls) == 2  # one run per row is enough

    def test_faster_run_passes(self):
        assert gate(two_rows(wall=10.0), wall=lambda stored, nth: 3.0)[0] == []

    def test_wall_within_threshold_passes(self):
        assert WALL_SLACK == 1.5
        problems, runner = gate(two_rows(), wall=lambda stored, nth: stored * 1.49)
        assert problems == []
        assert len(runner.calls) == 2

    def test_wall_regression_fails(self):
        rows = two_rows()[:1]
        problems, runner = gate(rows, wall=lambda stored, nth: stored * 1.51)
        assert len(problems) == 1
        assert "wall_seconds" in problems[0]
        assert "sim/sai n=512 seed=1" in problems[0]
        # Over budget is re-run, but only so often.
        assert len(runner.calls) == MAX_RUNS == 3

    def test_metric_drift_fails_even_when_faster(self):
        def drifted(metrics, nth):
            metrics["stream_traffic"]["hops"] -= 1
            return metrics

        problems, runner = gate(
            two_rows()[:1], wall=lambda stored, nth: 1.0, metrics=drifted
        )
        assert any("sim/sai" in p and "hops changed: 100 -> 99" in p for p in problems)
        assert len(runner.calls) == 1  # a wrong answer is not re-run

    def test_missing_algorithm_fails(self):
        """A row today's code cannot run fails by name; the rest is gated."""
        rows = two_rows()
        replay = Replay(rows)

        def runner(params, *, shards=None):
            if params["algorithm"] == "dai-t":
                raise ValueError("unknown algorithm 'dai-t'")
            return replay(params, shards=shards)

        problems = gate_rows(rows, runner=runner)
        assert len(problems) == 1
        assert "sim/dai-t" in problems[0] and "run failed" in problems[0]
        assert "unknown algorithm 'dai-t'" in problems[0]
        assert len(replay.calls) == 1

    def test_digest_change_names_the_field(self):
        def other_answers(metrics, nth):
            metrics["notification_digest"] = "zz" * 20
            return metrics

        problems, _ = gate(two_rows(), metrics=other_answers)
        assert len(problems) == 2
        assert all("notification_digest changed" in p for p in problems)

    def test_different_benchmark_refuses_to_compare(self, tmp_path):
        """Only ``export --json`` files are baselines: a report of any
        other shape is refused, not searched for something comparable."""
        report = tmp_path / "BENCH_other.json"
        report.write_text(json.dumps({"name": "macro-e14-largest", "metrics": {}}))
        with pytest.raises(ValueError, match="not an 'export --json' file"):
            read_export(str(report))
        with pytest.raises(ValueError, match="not an export row"):
            gate_rows(["macro-e14-largest"], runner=Replay([]))

    def test_different_point_or_seed_refuses_to_compare(self):
        """A run is only ever compared with the stored run of its own
        point and seed: the row's parameters are what the runner gets."""
        rows = two_rows()
        rows[1]["seed"] = 2
        rows[1]["n_nodes"] = 1024
        runner = Replay(rows)
        assert gate_rows(rows, runner=runner) == []
        assert [(p["n_nodes"], p["seed"]) for p, _ in runner.calls] == [
            (512, 1),
            (1024, 2),
        ]
        # ... and a row whose parameters do not decode is an error.
        for mutate in (
            lambda row: row.pop("n_nodes"),
            lambda row: row.update(offered_rate=80),
            lambda row: row.update(transport="pigeon"),
        ):
            broken = two_rows()
            mutate(broken[0])
            runner = Replay(two_rows())
            with pytest.raises(ValueError):
                gate_rows(broken, runner=runner)
            assert runner.calls == []  # refused before anything ran

    def test_baseline_untouched(self):
        rows = two_rows()
        snapshot = copy.deepcopy(rows)

        def drifted(metrics, nth):
            metrics["stream_traffic"]["hops"] = 1
            return metrics

        assert gate(rows, wall=lambda stored, nth: 99.0, metrics=drifted)[0]
        assert rows == snapshot
