"""Run every micro-benchmark and print one table (optionally JSON).

Usage::

    PYTHONPATH=src python benchmarks/micro/run_all.py [--json out.json]

Covers the hot paths of the optimization passes (see DESIGN.md,
"Performance"): hashing, table maintenance, finger-walk lookups, the
recursive multisend sweep, query rewriting / allocation churn, the wire
codec and one frame across one live loopback link.
These numbers are for commit-to-commit comparison on one machine; the
CI regression gate is ``python -m repro.expdb gate`` instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_barrier
import bench_expdb
import bench_hashing
import bench_link
import bench_multisend
import bench_rewrite
import bench_routing
import bench_snapshot
import bench_tables
import test_codec_encode as bench_codec

SUITES = (
    bench_hashing,
    bench_tables,
    bench_routing,
    bench_snapshot,
    bench_multisend,
    bench_rewrite,
    bench_barrier,
    bench_expdb,
    bench_codec,
    bench_link,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", help="also write rows as JSON")
    args = parser.parse_args(argv)

    rows = []
    for suite in SUITES:
        rows.extend(suite.run())

    width = max(len(row["benchmark"]) for row in rows)
    for row in rows:
        extras = {k: v for k, v in row.items() if k not in ("benchmark", "ns_per_op")}
        detail = ("  " + ", ".join(f"{k}={v}" for k, v in extras.items())) if extras else ""
        print(f"{row['benchmark']:<{width}}  {row['ns_per_op']:>12,.1f} ns/op{detail}")

    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
