#!/usr/bin/env python3
"""joinbench command line.

    python3 benchmarks/joinbench/run.py --workload sim_fanout --seed 1 \\
        --seconds 20 --trace 0          # one workload, in this process
    python3 benchmarks/joinbench/run.py --workload all --seed 1 --trace 1 \\
        --out result.json               # every workload, one subprocess each
    python3 benchmarks/joinbench/run.py compare A.json B.json

The last line of standard output of a single-workload run is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
# The benchmark is the package ``joinbench`` under benchmarks/; the
# program under test is ``repro`` under src/.  The script's own
# directory leaves the path so ``trace.py`` cannot shadow the stdlib.
sys.path[:] = [entry for entry in sys.path if os.path.abspath(entry or ".") != HERE]
sys.path[:0] = [os.path.dirname(HERE), os.path.join(REPO, "src")]

from joinbench import spec  # noqa: E402


def _metric_table(metrics) -> dict:
    return {metric.name: metric for metric in metrics}


def _print_metrics(title: str, values: dict, table: dict) -> None:
    print(f"-- {title}")
    for name, metric in table.items():
        print(f"{name:44s} {values[name]:16.6f} {metric.unit}")


def _result_line(outcome, values: dict, table: dict) -> str:
    return json.dumps(
        {
            "correct": outcome.verdict.correct,
            "attempted": outcome.verdict.attempted,
            "failed": outcome.verdict.failed,
            # Exactly the declared metrics, in declared order.
            "metrics": {
                name: {"value": values[name], "unit": metric.unit}
                for name, metric in table.items()
            },
        }
    )


def run_one(args) -> int:
    """Measure one workload in this process and print its result."""
    from joinbench import bench

    workload = spec.WORKLOAD_BY_NAME[args.workload]
    outcome = bench.run_workload(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        spans_out=args.spans_out,
    )
    e2e_table = _metric_table(spec.END_TO_END)
    layer_table = _metric_table(spec.PER_LAYER)
    size = dataclasses.asdict(outcome.size)
    print(
        f"joinbench {workload.name} seed={args.seed} {workload.loop}; "
        f"{size}; {outcome.rounds} untraced + {outcome.traced_rounds} traced "
        f"round(s) x {len(spec.ALGORITHMS)} algorithms; the box ran at "
        f"{outcome.slowdown:.2f} x the reference kernel time"
    )
    _print_metrics("end to end (untraced rounds)", outcome.end_to_end, e2e_table)
    if outcome.per_layer is not None:
        _print_metrics("per layer", outcome.per_layer, layer_table)
        if outcome.spans_written:
            print(f"wrote {outcome.spans_written} spans to {args.spans_out}")
    print(f"digest {outcome.verdict.digest}")
    for problem in outcome.verdict.problems:
        print(f"PROBLEM: {problem}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(_result_record(workload, outcome), handle, indent=1)
            handle.write("\n")
    if outcome.per_layer is not None:
        print(_result_line(outcome, outcome.per_layer, layer_table))
    else:
        print(_result_line(outcome, outcome.end_to_end, e2e_table))
    return 0 if outcome.verdict.correct else 1


def _result_record(workload, outcome) -> dict:
    """Everything two commits need to be compared exactly."""
    return {
        "workload": workload.name,
        "executor": workload.executor,
        "seed": outcome.seed,
        "size": dataclasses.asdict(outcome.size),
        "rounds": outcome.rounds,
        "correct": outcome.verdict.correct,
        "attempted": outcome.verdict.attempted,
        "failed": outcome.verdict.failed,
        "problems": outcome.verdict.problems,
        "digest": outcome.verdict.digest,
        "end_to_end": outcome.end_to_end,
        "slowdown": outcome.slowdown,
        "round_samples": outcome.samples,
        "per_layer": outcome.per_layer,
    }


def run_all(args) -> int:
    """Every workload, each in a fresh subprocess; optional result file."""
    records = {}
    status = 0
    for workload in spec.WORKLOADS:
        scratch = f"{args.out}.{workload.name}.part" if args.out else None
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", workload.name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.smoke:
            command.append("--smoke")
        if scratch:
            command += ["--out", scratch]
        completed = subprocess.run(command)
        status = status or completed.returncode
        if scratch and os.path.exists(scratch):
            with open(scratch, encoding="utf-8") as handle:
                records[workload.name] = json.load(handle)
            os.remove(scratch)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"benchmark": "joinbench", "seed": args.seed, "workloads": records},
                handle,
                indent=1,
            )
            handle.write("\n")
        print(f"wrote {args.out}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from joinbench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[workload.name for workload in spec.WORKLOADS] + ["all"],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=20.0, help="measuring time per workload"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1 = also run traced rounds and report the per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes (<=2 s per round)"
    )
    parser.add_argument("--out", help="write the full result as JSON here")
    parser.add_argument(
        "--spans-out", help="with --trace 1: dump every span, one JSON line each"
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
