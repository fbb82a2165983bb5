import copy
import json

import pytest

from joinbench import compare, spec


def record(workload, **overrides):
    end_to_end = {
        "setup_s": 0.5,
        "events_per_s": 100.0,
        "latency_p50_ms": 10.0,
        "peak_rss_mb": 50.0,
        "hops_per_event": 70.0,
    }
    end_to_end.update(overrides)
    end_to_end = {m.name: end_to_end.get(m.name, 1.0) for m in spec.END_TO_END}
    return {
        "workload": workload.name,
        "executor": workload.executor,
        "seed": 1,
        "size": {"n_tuples": 1},
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "digest": "d",
        "end_to_end": end_to_end,
        "round_samples": {
            "setup_s": [0.5, 0.5, 0.5],
            "events_per_s": [99.0, 100.0, 101.0],
            "latency_p50_ms": [9.9, 10.0, 10.1],
        },
    }


def result(**overrides):
    return {
        "benchmark": "joinbench",
        "seed": 1,
        "workloads": {w.name: record(w, **overrides) for w in spec.WORKLOADS},
    }


def verdicts(parent, change, workload="sim_fanout"):
    rows, passed = compare.compare(parent, change)
    return {row[1]: row[5] for row in rows if row[0] == workload}, passed


def test_identical_results_are_within_bound():
    table, passed = verdicts(result(), result())
    assert passed
    assert set(table.values()) == {"within bound"}


def test_direction_and_bound_decide_better_and_worse():
    bound = {m.name: m.bound for m in spec.END_TO_END}
    slower = result(events_per_s=100.0 * (1 - bound["events_per_s"] - 0.02))
    table, passed = verdicts(result(), slower)
    assert table["events_per_s"] == "worse" and not passed
    faster = result(events_per_s=100.0 * (1 + bound["events_per_s"] + 0.02))
    table, passed = verdicts(result(), faster)
    assert table["events_per_s"] == "better" and passed
    laggier = result(latency_p50_ms=10.0 * (1 + bound["latency_p50_ms"] + 0.02))
    table, passed = verdicts(result(), laggier)
    assert table["latency_p50_ms"] == "worse" and not passed
    nudge = result(latency_p50_ms=10.0 * (1 + bound["latency_p50_ms"] / 2))
    table, passed = verdicts(result(), nudge)
    assert table["latency_p50_ms"] == "within bound" and passed


def test_counted_metrics_must_match_exactly_on_the_simulators_only():
    change = result(hops_per_event=70.01)
    table, passed = verdicts(result(), change, "sim_route")
    assert table["hops_per_event"] == "exact-mismatch" and not passed
    table, _ = verdicts(result(), change, "live_stream")
    assert table["hops_per_event"] == "within bound"


def test_a_changed_digest_is_a_mismatch():
    change = result()
    change["workloads"]["live_paced"]["digest"] = "other"
    table, passed = verdicts(result(), change, "live_paced")
    assert table["digest"] == "exact-mismatch" and not passed


def test_wide_own_spread_is_unresolved_not_unchanged():
    noisy = result()
    noisy["workloads"]["sim_fanout"]["round_samples"]["events_per_s"] = [
        70.0, 100.0, 130.0,
    ]
    table, passed = verdicts(result(), noisy)
    assert table["events_per_s"] == "unresolved" and passed
    # ...unless every round of the change beats every round of the parent.
    clear = copy.deepcopy(noisy)
    clear["workloads"]["sim_fanout"]["round_samples"]["events_per_s"] = [
        102.0, 104.0, 140.0,
    ]
    table, _ = verdicts(result(), clear)
    assert table["events_per_s"] == "better"


def test_failed_operations_fail_the_comparison():
    change = result()
    change["workloads"]["sim_window"]["failed"] = 3
    _, passed = verdicts(result(), change, "sim_window")
    assert not passed


def test_command_line_exit_status(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result()))
    b.write_text(json.dumps(result()))
    assert compare.main([str(a), str(b)]) == 0
    b.write_text(json.dumps(result(peak_rss_mb=80.0)))
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "peak_rss_mb" in out and "worse" in out and "compare: FAIL" in out
    other_seed = result()
    other_seed["seed"] = 2
    b.write_text(json.dumps(other_seed))
    assert compare.main([str(a), str(b)]) == 2
    assert compare.main([str(a)]) == 2
