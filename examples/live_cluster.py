#!/usr/bin/env python3
"""Quickstart for the live transport: a real TCP ring on localhost.

Boots an 8-node cluster of asyncio peers (one TCP server per overlay
node), bootstraps their address books over the wire, streams a seeded
workload through the DAI-V algorithm — queries installed first, then
the tuples pipelined under the in-flight credit budget — with every
message travelling as a length-prefixed binary frame over real sockets,
and finally replays the identical workload in the in-process simulator
to show that both deliver exactly the same notification set.

Run with::

    python examples/live_cluster.py

Change ``ALGORITHM`` to ``"sai"``, ``"dai-q"`` or ``"dai-t"`` to watch
the other algorithms — the digest must match the simulator for all of
them.  The ``python -m repro.net.cluster`` command exposes the same
flow with command-line flags (``--algorithm all --compare-sim`` runs
all four against the simulator).
"""

import asyncio

from repro.net.cluster import (
    CREDIT_BUDGET,
    ClusterConfig,
    live_summary,
    run_live,
    simulate_reference,
)
from repro.net.peer import NetConfig
from repro.workload.generator import WorkloadParams, build_workload

ALGORITHM = "dai-v"
N_NODES = 8
N_QUERIES = 12
N_TUPLES = 60
SEED = 11


def main() -> None:
    workload = build_workload(
        WorkloadParams(
            n_queries=N_QUERIES,
            n_tuples=N_TUPLES,
            domain_size=24,
            seed=SEED,
        )
    )

    print(
        f"booting a live {N_NODES}-node ring on localhost "
        f"({ALGORITHM}, {N_QUERIES} queries, {N_TUPLES} tuples)..."
    )
    report = asyncio.run(
        run_live(
            workload,
            ClusterConfig(
                algorithm=ALGORITHM,
                n_nodes=N_NODES,
                seed=SEED,
                net=NetConfig(credit_budget=CREDIT_BUDGET),
            ),
        )
    )
    print(live_summary(report))

    sim_digest, sim_delivered = simulate_reference(
        workload, algorithm=ALGORITHM, n_nodes=N_NODES, seed=SEED
    )
    print(
        f"simulator oracle: {sim_delivered} notifications, "
        f"digest {sim_digest[:12]}"
    )
    answers = (report.notification_digest, report.notifications_delivered)
    if answers == (sim_digest, sim_delivered):
        print("live cluster and simulator delivered identical notification sets")
    else:  # pragma: no cover - would mean a transport bug
        raise SystemExit("MISMATCH: live run diverged from the simulator")


if __name__ == "__main__":
    main()
