"""Execute one database row through the existing benchmark harnesses.

The worker hands this module a decoded parameter dict (see
:func:`repro.expdb.db.decode_params`); the transport column picks the
back-end:

* ``sim`` — the serial simulator via
  :func:`repro.bench.harness.run_standard` (with the per-tuple hop
  series, so the row's ``load`` block can say how the stream's first
  and last fifth compare), optionally with a seeded
  :class:`~repro.faults.FaultPlan` wired into the ring's router (the
  only transport that accepts a fault plan today);
* ``shard`` — the staged/sharded executor via
  :func:`repro.bench.scale.run_scale_point` (fault plans refused, as
  :func:`repro.sim.shard.shard_capabilities` documents);
* ``live`` — the real-TCP load generator via
  :func:`repro.net.loadgen.run_load_sync` (answer-set metrics are
  deterministic; throughput/latency land in the resource columns).
  A digest or delivered count that differs from the simulator oracle
  raises (:func:`repro.net.loadgen.check_against_simulator`), so a
  ``live`` row can only become ``done`` if it equals the simulator.

Every outcome carries the stable metrics row (``to_row()``) plus the
per-run resource columns (wall seconds, peak RSS, events/sec).  The
metrics are machine-independent and reproducible from the parameters
alone — re-running the same row must produce byte-identical metrics.
``wall_seconds`` is the whole path a user pays for on every transport:
ring build + install + stream for the simulators, install + stream +
settle for the live cluster.

:func:`run_experiment` is the one measuring loop of the worker and of
the gate, and both run rows back to back in one process: before a row
it empties the hash memo and runs a full collection, because the
previous row's ring is cyclic garbage the paused replay
(:mod:`repro.sim.collector`) no longer frees in passing — left alone,
the next row pays for it in wall and peak RSS.

The ``seed`` column seeds everything a row draws — engine, origin
nodes and workload — on every transport; ``overrides.workload.seed``
pins the workload draw apart from the other two.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Optional

from ..bench.configs import Scale
from ..bench.harness import run_standard, workload_for
from ..bench.scale import peak_rss_kb, run_scale_point
from ..chord.hashing import hash_key_cache_clear
from ..faults import DelaySpec, FaultInjector, FaultPlan
from .db import canonical_overrides


@dataclass(frozen=True)
class ExperimentOutcome:
    """What one executed experiment persists."""

    #: Stable result row (``to_row()`` output) — machine-independent.
    metrics: dict
    #: Resource columns + transport-specific extras — machine-dependent.
    resources: dict


def fault_plan_from_dict(spec: dict) -> FaultPlan:
    """A :class:`FaultPlan` from its JSON form (``delay`` → DelaySpec)."""
    kwargs = dict(spec)
    delay = kwargs.pop("delay", None)
    if delay is not None:
        kwargs["delay"] = DelaySpec(**delay)
    if "net" in kwargs:
        raise ValueError("net fault specs are live-cluster only; not supported here")
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
    ``overrides.engine`` section (comparisons between algorithms use
    the random index choice unless a row says otherwise)."""
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
    """WorkloadParams overrides of one row: its seed, then whatever
    ``overrides.workload`` sets (a ``seed`` there wins)."""
    return {"seed": params["seed"], **(params["overrides"] or {}).get("workload", {})}


def _run_sim(params: dict) -> ExperimentOutcome:
    injector: Optional[FaultInjector] = None
    if params["fault_plan"]:
        injector = FaultInjector(fault_plan_from_dict(params["fault_plan"]))
    scale = scale_for(params)
    start = time.perf_counter()
    result = run_standard(
        params["algorithm"],
        scale,
        config_overrides=engine_overrides(params),
        workload=workload_for(scale, **workload_overrides(params)),
        seed=params["seed"],
        collect_per_tuple_hops=True,
        evict_every=params["evict_every"],
        injector=injector,
    )
    wall = time.perf_counter() - start
    events = params["n_queries"] + params["n_tuples"]
    return ExperimentOutcome(
        metrics=result.to_row(),
        resources={
            "wall_seconds": round(wall, 4),
            "peak_rss_kb": peak_rss_kb(),
            "events_per_sec": round(events / wall, 1) if wall else 0.0,
        },
    )


def _run_shard(params: dict, *, shards: Optional[int]) -> ExperimentOutcome:
    if params["fault_plan"]:
        raise ValueError(
            "the shard transport refuses perturbing fault plans "
            "(see repro.sim.shard.shard_capabilities); use transport='sim'"
        )
    sample = run_scale_point(
        params["algorithm"],
        scale_for(params),
        seed=params["seed"],
        shards=shards,
        config_overrides=engine_overrides(params),
        workload_overrides=workload_overrides(params),
        evict_every=params["evict_every"],
    )
    return ExperimentOutcome(
        metrics=sample["row"],
        resources={
            "wall_seconds": round(sample["wall_seconds"], 4),
            **sample["resources"],
            "build_seconds": round(sample["build_seconds"], 4),
            "shards": sample["shards"],
        },
    )


def _run_live(params: dict) -> ExperimentOutcome:
    if params["fault_plan"]:
        raise ValueError(
            "fault plans on the live transport go through "
            "python -m repro.net.cluster --chaos, not the experiment "
            "database; use transport='sim' for faulted sweep points"
        )
    if params["window"]:
        raise ValueError(
            "the live transport refuses windowed rows: the pipelined "
            "driver does not reproduce the simulator's windowed answer "
            "set (20-37 of 39 answers at a 6-node probe point), so such "
            "a row could never pass the oracle check; use transport="
            "'sim' or 'shard' for windowed sweep points"
        )
    from ..net.loadgen import LoadgenConfig, check_against_simulator, run_load_sync

    overrides = engine_overrides(params)
    if "index_choice" not in (params["overrides"] or {}).get("engine", {}):
        del overrides["index_choice"]  # the cluster's own default
    config = LoadgenConfig(
        algorithm=params["algorithm"],
        n_nodes=params["n_nodes"],
        n_queries=params["n_queries"],
        n_tuples=params["n_tuples"],
        domain_size=params["domain_size"],
        zipf_s=params["zipf_s"],
        seed=params["seed"],
        engine_overrides=overrides,
    )
    report = run_load_sync(config)
    check_against_simulator(config, report)
    return ExperimentOutcome(
        metrics=report.to_row(),
        resources={
            "wall_seconds": round(report.total_seconds, 4),
            "stream_seconds": round(report.stream_seconds, 4),
            "peak_rss_kb": peak_rss_kb(),
            "events_per_sec": report.events_per_sec,
            "notifications_per_sec": report.notifications_per_sec,
            "latency_ms": report.latency.as_dict(),
        },
    )


def run_experiment(params: dict, *, shards: Optional[int] = None) -> ExperimentOutcome:
    """One claimed row, executed; raises on any error (the worker
    records the traceback in the row)."""
    transport = params["transport"]
    canonical_overrides(params["overrides"], transport)  # refuses by field name
    hash_key_cache_clear()
    gc.collect()
    if transport == "sim":
        return _run_sim(params)
    if transport == "shard":
        return _run_shard(params, shards=shards)
    if transport == "live":
        return _run_live(params)
    raise ValueError(f"unknown transport {transport!r}")
