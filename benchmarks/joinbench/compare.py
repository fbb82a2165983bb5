"""``run.py compare A.json B.json``: judge B (the change) against A (the
parent) by each metric's own bound and direction.

One row per (workload, end-to-end metric):

* ``exact-mismatch`` — a counted metric or the digest differs on a
  simulator workload, where a seed fixes it bit-for-bit;
* ``worse`` — B's value is worse than A's by more than the bound;
* ``better`` — better by more than the bound, or every round of B reads
  better than every round of A;
* ``unresolved`` — the difference is inside the bound but a side's own
  round-to-round spread (inter-quartile distance over its median) is
  wider than the bound, so "unchanged" cannot be claimed;
* ``within bound`` otherwise.

Exit status is non-zero on any ``worse`` or ``exact-mismatch`` row, and
when a side is incorrect or has failed operations.
"""

from __future__ import annotations

import json
import sys

from . import spec
from .stats import iqr_share

FAILING = ("worse", "exact-mismatch")


def worsening(metric: spec.Metric, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a share of
    ``parent`` (negative = better)."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if metric.better == "lower" else -delta


def _all_better(metric: spec.Metric, parent: list, change: list) -> bool:
    if not parent or not change:
        return False
    if metric.better == "lower":
        return max(change) < min(parent)
    return min(change) > max(parent)


def judge(metric: spec.Metric, executor: str, parent: dict, change: dict) -> tuple[str, float]:
    """``(verdict, worsening)`` of one metric on one workload."""
    a = parent["end_to_end"][metric.name]
    b = change["end_to_end"][metric.name]
    worse_by = worsening(metric, a, b)
    if metric.name in spec.EXACT_METRICS and executor in spec.EXACT_EXECUTORS:
        return ("within bound" if a == b else "exact-mismatch"), worse_by
    if worse_by > metric.bound:
        return "worse", worse_by
    samples_a = parent["round_samples"].get(metric.name, [])
    samples_b = change["round_samples"].get(metric.name, [])
    if worse_by < -metric.bound or _all_better(metric, samples_a, samples_b):
        return "better", worse_by
    if max(iqr_share(samples_a), iqr_share(samples_b)) > metric.bound:
        return "unresolved", worse_by
    return "within bound", worse_by


def compare(parent: dict, change: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a, b, worsening, verdict)`` and whether
    the comparison passes."""
    rows = []
    passed = True
    for workload in spec.WORKLOADS:
        a = parent["workloads"].get(workload.name)
        b = change["workloads"].get(workload.name)
        if a is None or b is None:
            rows.append((workload.name, "-", 0.0, 0.0, 0.0, "missing"))
            passed = False
            continue
        for side, record in (("A", a), ("B", b)):
            if not record["correct"] or record["failed"]:
                rows.append(
                    (workload.name, f"correct[{side}]", 0.0, 0.0, 0.0, "exact-mismatch")
                )
                passed = False
        same = a["digest"] == b["digest"] and a["size"] == b["size"]
        rows.append(
            (workload.name, "digest", 0.0, 0.0, 0.0,
             "within bound" if same else "exact-mismatch")
        )
        passed = passed and same
        for metric in spec.END_TO_END:
            verdict, worse_by = judge(metric, workload.executor, a, b)
            rows.append(
                (
                    workload.name,
                    metric.name,
                    a["end_to_end"][metric.name],
                    b["end_to_end"][metric.name],
                    worse_by,
                    verdict,
                )
            )
            if verdict in FAILING:
                passed = False
    return rows, passed


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        change = json.load(handle)
    if parent.get("seed") != change.get("seed"):
        print(
            f"error: seeds differ ({parent.get('seed')} vs {change.get('seed')}); "
            f"counted metrics only compare on one seed",
            file=sys.stderr,
        )
        return 2
    rows, passed = compare(parent, change)
    print(f"{'workload':12s} {'metric':18s} {'A':>14s} {'B':>14s} {'worse by':>9s}  verdict")
    for workload, metric, a, b, worse_by, verdict in rows:
        print(
            f"{workload:12s} {metric:18s} {a:14.4f} {b:14.4f} {worse_by:+9.1%}  {verdict}"
        )
    print("compare: OK" if passed else "compare: FAIL")
    return 0 if passed else 1
