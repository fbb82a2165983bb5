"""``BENCHMARK.json`` and ``spec.py`` name the same things, within the
benchmark contract's limits."""

import json
import os
import re

from joinbench import spec

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def manifest() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_has_exactly_the_contract_keys():
    assert set(manifest()) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest()["paths"] == ["benchmarks/joinbench"]
    assert manifest()["command"] == ["python3", "benchmarks/joinbench/run.py"]


def test_workloads_match_the_spec():
    listed = manifest()["workloads"]
    assert [w["name"] for w in listed] == [w.name for w in spec.WORKLOADS]
    assert [w["why"] for w in listed] == [w.why for w in spec.WORKLOADS]
    assert all(set(w) == {"name", "why"} for w in listed)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in spec.WORKLOADS)
    assert [w.name for w in spec.WORKLOADS] == [
        "sim_fanout", "sim_route", "sim_window", "live_stream", "live_paced",
    ]


def test_end_to_end_metrics_match_the_spec():
    listed = manifest()["end_to_end"]
    assert listed == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    setup = spec.END_TO_END[0]
    assert (setup.name, setup.unit, setup.better) == ("setup_s", "s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)


def test_per_layer_metrics_match_the_spec():
    listed = manifest()["per_layer"]
    assert listed == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    assert 1 <= len(listed) <= 128
    # Every layer metric says which end-to-end metric and workload it
    # is predicted to move.
    assert all(m.note for m in spec.PER_LAYER)


def test_names_and_units_are_within_the_contract():
    metrics = spec.END_TO_END + spec.PER_LAYER
    names = [m.name for m in metrics] + [w.name for w in spec.WORKLOADS]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m.unit) for m in metrics)
    assert all(m.better in ("lower", "higher") for m in metrics)
    assert 1 <= manifest()["run_seconds"] <= 60
