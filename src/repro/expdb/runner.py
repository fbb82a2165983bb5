"""Execute one database row through the existing benchmark harnesses.

The worker hands this module a decoded parameter dict (see
:func:`repro.expdb.db.decode_params`).  :func:`run_experiment` is one
body for every transport: refuse what the row's transport cannot
honour (a fault plan field by name, through
:func:`repro.faults.plan.check_support`), run the row's executor from
:data:`EXECUTORS`, check its answers where they can diverge, and
write the one row shape
(:meth:`~repro.bench.rows.RunReport.to_row`) beside three resource
columns — wall seconds, peak RSS, events over wall seconds.

* ``sim`` — the serial simulator via
  :func:`repro.bench.harness.run_workload` (with the per-tuple hop
  series, so the row's ``load`` block can say how the stream's first
  and last fifth compare), optionally with a seeded
  :class:`~repro.faults.FaultPlan` wired into the ring's router (the
  only transport whose rows take a fault plan; its ``net`` fields are
  refused).  The replay lands injected delays as it goes; a plan's
  churn knobs run as a
  :func:`~repro.faults.schedule.churn_schedule`, after which every
  crashed node restarts and the :class:`~repro.faults.ChaosHarness`
  settles, as a live chaos soak does;
* ``shard`` — the staged/sharded executor via
  :func:`repro.bench.scale.run_scale_point` (its column of
  :data:`~repro.faults.plan.FAULT_SUPPORT` is empty: every plan field
  is refused);
* ``live`` — the real-TCP cluster via
  :meth:`repro.net.cluster.LiveCluster.run` at
  :data:`repro.net.cluster.CREDIT_BUDGET`.  A plan the ``live`` column
  carries still runs only through ``python -m repro.net.cluster
  --chaos``: a chaos soak's counters follow event-loop timing, so a
  faulted ``live`` row would not repeat (ROADMAP item 7).

Every ``live`` row and every faulted ``sim`` row is held to the
fault-free serial replay of its parameters by the comparison the gate
and the diff use (:func:`repro.bench.rows.sibling_differences`, on the
answer columns): a digest or delivered count that differs raises, so
such a row can only become ``done`` if it equals the simulator.  The
metrics are reproducible from the parameters alone — the ``live``
block of a live row aside — so re-running a row must give
byte-identical metrics.  ``wall_seconds`` is the whole path a
user pays for: ring build + install + stream for the simulators (plus
restart and settle on a churn row), install + stream for the live
cluster.

The worker and the gate run rows back to back in one process, so
before a row :func:`run_experiment` empties the hash memo and runs a
full collection: the previous row's ring is cyclic garbage the paused
replay (:mod:`repro.sim.collector`) no longer frees in passing — left
alone, the next row pays for it in wall and peak RSS.

The ``seed`` column seeds everything a row draws — engine, origin
nodes and workload — on every transport; ``overrides.workload.seed``
pins the workload draw apart from the other two.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, replace
from typing import Optional

from ..bench.configs import Scale
from ..bench.harness import make_engine, run_workload, workload_for
from ..bench.rows import ANSWER_COLUMNS, RunReport, sibling_differences
from ..bench.scale import DEFAULT_BATCH_SIZE, peak_rss_kb, run_scale_point
from ..chord.hashing import hash_key_cache_clear
from ..core.engine import EngineConfig
from ..faults import ChaosHarness, DelaySpec, FaultInjector, FaultPlan, churn_schedule
from ..faults.plan import NetFaultSpec, check_support
from ..workload.generator import Workload
from .db import canonical_overrides


@dataclass(frozen=True)
class ExperimentOutcome:
    """What one executed experiment persists."""

    #: Stable result row (``to_row()`` output) — machine-independent.
    metrics: dict
    #: Resource columns — machine-dependent.
    resources: dict


def fault_plan_from_dict(spec: dict) -> FaultPlan:
    """A :class:`FaultPlan` from its JSON form (``delay`` → DelaySpec,
    ``net`` → NetFaultSpec)."""
    kwargs = dict(spec)
    for name, record in (("delay", DelaySpec), ("net", NetFaultSpec)):
        leaves = kwargs.pop(name, None)
        if leaves is not None:
            kwargs[name] = record(**leaves)
    return FaultPlan(**kwargs)


def scale_for(params: dict) -> Scale:
    """The workload profile one row describes."""
    return Scale(
        name=f"expdb-{params['transport']}-{params['n_nodes']}",
        n_nodes=params["n_nodes"],
        n_queries=params["n_queries"],
        n_tuples=params["n_tuples"],
        domain_size=params["domain_size"],
        zipf_s=params["zipf_s"],
    )


def engine_overrides(params: dict) -> dict:
    """EngineConfig overrides encoded by the feature columns and the
    ``overrides.engine`` section, alike on every transport (comparisons
    between algorithms use the random index choice unless a row says
    otherwise)."""
    overrides: dict = {"index_choice": "random"}
    if params["window"]:
        overrides["window"] = params["window"]
    if params["replication_factor"] != 1:
        overrides["replication_factor"] = params["replication_factor"]
    if params["jfrt_capacity"]:
        overrides["jfrt_capacity"] = params["jfrt_capacity"]
    overrides.update((params["overrides"] or {}).get("engine", {}))
    return overrides


def workload_overrides(params: dict) -> dict:
    """WorkloadParams overrides of one row: what ``overrides.workload``
    sets (the harnesses draw the workload from the row's ``seed``
    unless a ``seed`` there pins it)."""
    return dict((params["overrides"] or {}).get("workload", {}))


def row_workload(params: dict) -> Workload:
    """The workload one ``sim`` or ``live`` row replays, drawn from its
    ``seed`` column unless ``overrides.workload`` pins another seed."""
    drawn = {"seed": params["seed"], **workload_overrides(params)}
    return workload_for(scale_for(params), **drawn)


def _sim(params: dict, shards: Optional[int], batch_size: int) -> tuple[RunReport, float]:
    plan = fault_plan_from_dict(params["fault_plan"]) if params["fault_plan"] else None
    injector = FaultInjector(plan) if plan is not None else None
    start = time.perf_counter()
    config = EngineConfig(
        algorithm=params["algorithm"], seed=params["seed"], **engine_overrides(params)
    )
    workload = row_workload(params)
    engine = make_engine(scale_for(params), config, injector=injector)
    churns = plan is not None and plan.schedules_churn
    harness = ChaosHarness(engine, injector) if churns else None
    report = run_workload(
        engine,
        workload,
        seed=params["seed"],
        evict_every=params["evict_every"],
        schedule=churn_schedule(plan, harness, workload) if churns else None,
    )
    if harness is not None:
        harness.restart_all()
        harness.settle()
        report = replace(
            report,
            suppressed_renotifications=engine.suppressed_renotifications,
            duplicate_deliveries=engine.duplicate_deliveries,
        )
    return report, time.perf_counter() - start


def _shard(params: dict, shards: Optional[int], batch_size: int) -> tuple[RunReport, float]:
    return run_scale_point(
        params["algorithm"],
        scale_for(params),
        seed=params["seed"],
        shards=shards,
        batch_size=batch_size,
        config_overrides=engine_overrides(params),
        workload_overrides=workload_overrides(params),
        evict_every=params["evict_every"],
    )


def _live(params: dict, shards: Optional[int], batch_size: int) -> tuple[RunReport, float]:
    from ..net.cluster import CREDIT_BUDGET, ClusterConfig, run_live
    from ..net.peer import NetConfig

    config = ClusterConfig(
        algorithm=params["algorithm"],
        n_nodes=params["n_nodes"],
        seed=params["seed"],
        engine_overrides=engine_overrides(params),
        net=NetConfig(credit_budget=CREDIT_BUDGET),
    )
    report = asyncio.run(run_live(row_workload(params), config))
    return report, report.live["install_seconds"] + report.live["stream_seconds"]


#: Transport → executor: ``(params, shards, batch_size) -> (report, wall
#: seconds)``; the shard count and epoch size stage a ``shard`` row.
EXECUTORS = {"sim": _sim, "shard": _shard, "live": _live}


def run_experiment(
    params: dict, *, shards: Optional[int] = None, batch_size: int = DEFAULT_BATCH_SIZE
) -> ExperimentOutcome:
    """One claimed row, executed; raises on any error (the worker
    records the traceback in the row).  ``shards`` and ``batch_size``
    stage a ``shard`` row (:func:`~repro.bench.scale.run_scale_point`)
    and change none of its exact columns but ``exchange_records``."""
    transport = params["transport"]
    execute = EXECUTORS.get(transport)
    if execute is None:
        raise ValueError(f"unknown transport {transport!r}")
    canonical_overrides(params["overrides"])  # refuses by field name
    plan = params["fault_plan"]
    if plan:
        check_support(fault_plan_from_dict(plan), transport)
        if transport == "live":
            # A chaos soak converges on the right answers, but its
            # counters follow event-loop timing, so the row would not
            # repeat; refused until the live stack runs on virtual
            # time (ROADMAP item 7).  ``repro.net.cluster --chaos``
            # soaks such a plan.
            raise ValueError("a faulted live row does not repeat (see repro.net.cluster --chaos)")
    hash_key_cache_clear()
    gc.collect()
    report, wall = execute(params, shards, batch_size)
    metrics = report.to_row()
    if transport == "live" or plan:
        clean, _ = _sim({**params, "fault_plan": None}, None, batch_size)
        diverged = sibling_differences(clean.to_row(), metrics, params, ANSWER_COLUMNS)
        if diverged:
            raise RuntimeError(
                f"{transport} {params['algorithm']} run diverged from the "
                "simulator: "
                + ", ".join(f"{c} {sim!r} != {got!r}" for c, sim, got in diverged)
            )
    return ExperimentOutcome(
        metrics=metrics,
        resources={
            "wall_seconds": round(wall, 4),
            "peak_rss_kb": peak_rss_kb(),
            "events_per_sec": round(report.events / wall, 1) if wall else 0.0,
        },
    )
