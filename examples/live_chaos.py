#!/usr/bin/env python3
"""Chaos over TCP: a live ring surviving injected wire faults.

Boots a 6-node cluster of real asyncio TCP peers, then streams a seeded
workload through the one live driver (``LiveCluster.run``) while a
:class:`~repro.net.chaos.LiveChaos` layer attacks the transport with the
acceptance preset: 5% of connection attempts refused, 5% of frames
faulted on write (reset / truncated / garbled), one asymmetric network
partition mid-stream, and two live crash/restart cycles, placed at
publish indexes of the tuple stream — each crash kills a node's server
and event loop tasks for real, each restart rejoins on a fresh port and
recovers its state through the soft-state lease protocol.

The heartbeat failure detector suspects unresponsive peers (routing
falls back to ring successors), jittered exponential backoff absorbs
the wire faults, and the bounded in-flight credit ledger keeps the
driver from out-running recovery.  At the end the delivered
notification set is compared against a fault-free in-process simulator
run of the identical workload: the digests must match, with zero
duplicate deliveries.

Run with::

    python examples/live_chaos.py

The same flow is exposed as a command line::

    python -m repro.net.cluster --chaos default --compare-sim

where ``--chaos frame=0.1,crashes=3,seed=42`` overrides individual
knobs (see ``parse_chaos_spec``).
"""

import asyncio

from repro.faults.plan import FaultPlan, NetFaultSpec
from repro.net.chaos import SoakSettings, run_chaos_soak
from repro.net.cluster import ClusterConfig, live_summary, simulate_reference
from repro.net.health import HealthConfig
from repro.net.peer import NetConfig
from repro.workload.generator import WorkloadParams, build_workload

ALGORITHM = "dai-v"
N_NODES = 6
N_QUERIES = 10
N_TUPLES = 50
SEED = 11

PLAN = FaultPlan(
    seed=17,
    max_attempts=4,
    backoff_base=0.02,
    backoff_jitter=0.5,
    net=NetFaultSpec(
        connect_refusal_probability=0.05,
        frame_fault_probability=0.05,
    ),
)

SETTINGS = SoakSettings(crashes=2, partition=True, asymmetric=True)


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
        f"booting a live {N_NODES}-node ring and unleashing chaos "
        f"({ALGORITHM}, {N_QUERIES} queries, {N_TUPLES} tuples, "
        f"{SETTINGS.crashes} crash/restart cycles)..."
    )
    config = ClusterConfig(
        algorithm=ALGORITHM,
        n_nodes=N_NODES,
        seed=SEED,
        net=NetConfig.from_fault_plan(PLAN),
        health=HealthConfig(),
    )
    report = asyncio.run(
        run_chaos_soak(workload, config=config, plan=PLAN, settings=SETTINGS)
    )

    reference_digest, reference_delivered = simulate_reference(
        workload,
        algorithm=ALGORITHM,
        n_nodes=N_NODES,
        seed=SEED,
        subscribers=report.subscribers,
    )
    print(live_summary(report.run))
    print(report.summary())
    print(
        f"fault-free simulator oracle: {reference_delivered} notifications, "
        f"digest {reference_digest[:12]}"
    )

    if not report.ok:
        raise SystemExit("FAIL: duplicate deliveries or credit budget exceeded")
    if (report.run.notification_digest, report.run.notifications_delivered) != (
        reference_digest,
        reference_delivered,
    ):
        raise SystemExit("MISMATCH: chaos run diverged from the simulator")
    print(
        "survived the storm: exactly-once delivery, digest identical to "
        "the fault-free run"
    )


if __name__ == "__main__":
    main()
