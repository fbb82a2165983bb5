#!/usr/bin/env python3
"""Run the same workload under all four algorithms and compare them.

A miniature of the paper's Chapter 5: identical network, queries and
tuple stream for SAI, DAI-Q, DAI-T and DAI-V; the table contrasts
traffic, load totals and load distribution, reproducing the headline
tradeoffs (DAI-T cheapest traffic after warm-up, DAI-V cheapest overall
but worst distribution, SAI the middle ground).

Run with::

    python examples/algorithm_faceoff.py
"""

from repro.bench import run_standard, workload_for
from repro.bench.configs import Scale
from repro.bench.report import render_table

SCALE = Scale("faceoff", n_nodes=256, n_queries=400, n_tuples=600, domain_size=150)


def main() -> None:
    workload = workload_for(SCALE)
    print(
        f"workload: {SCALE.n_nodes} nodes, {workload.n_queries} queries, "
        f"{workload.n_tuples} tuples, Zipf values over a domain of "
        f"{SCALE.domain_size}\n"
    )
    rows = []
    reference_rows = None
    for algorithm in ("sai", "dai-q", "dai-t", "dai-v"):
        result = run_standard(
            algorithm,
            SCALE,
            config_overrides={"index_choice": "random"},
            workload=workload,
        )
        delivered = {
            key: result.engine.delivered_rows(key) for key in result.engine.delivered
        }
        total_rows = sum(len(rows_) for rows_ in delivered.values())
        if reference_rows is None:
            reference_rows = total_rows
        load = result.load
        rows.append(
            {
                "algorithm": algorithm,
                "hops/tuple": round(result.stream_traffic.hops / workload.n_tuples, 1),
                "TF": load.total_filtering,
                "TS": load.total_storage,
                "gini(F)": round(load.filtering_gini(), 3),
                "participation": round(load.filtering_participation(), 2),
                "rows": total_rows,
                "same result": "yes" if total_rows == reference_rows else "NO",
            }
        )
    columns = [
        "algorithm",
        "hops/tuple",
        "TF",
        "TS",
        "gini(F)",
        "participation",
        "rows",
        "same result",
    ]
    print(render_table(columns, rows))
    print(
        "\nAll four algorithms deliver the same answer rows; they differ in "
        "where the work happens and how much the overlay talks."
    )


if __name__ == "__main__":
    main()
