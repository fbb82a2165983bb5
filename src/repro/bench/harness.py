"""Experiment harness: build a network, replay a workload, measure.

Every benchmark (one per paper table/figure) goes through
:func:`run_workload`, so traffic and load are always measured the same
way:

* *install traffic* — hops spent indexing the continuous queries;
* *stream traffic* — hops spent inserting tuples (including all
  triggered rewriting/reindexing and notification delivery);
* *per-tuple hop series* — hops of each individual insertion, for
  convergence plots such as the JFRT warm-up (Figure 5.2);
* a final :class:`~repro.core.metrics.LoadSnapshot` with the per-node
  filtering/storage vectors — all in the one
  :class:`~repro.bench.rows.RunReport` every executor returns.
"""

from __future__ import annotations

import random
from typing import Callable, Mapping, Optional, Sequence

from ..chord.network import ChordNetwork
from ..chord.node import ChordNode
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..sim.collector import CollectorPause
from .configs import Scale, current_scale
from .rows import RunReport
from ..workload.generator import Workload, WorkloadParams, build_workload


def make_engine(
    scale: Scale | None = None,
    config: EngineConfig | None = None,
    network: ChordNetwork | None = None,
    injector=None,
) -> ContinuousQueryEngine:
    """A fresh engine over a stable ring of ``scale.n_nodes`` nodes.

    ``injector`` (a :class:`~repro.faults.FaultInjector`) wires a seeded
    fault plan into the ring's router, so sweep harnesses — notably
    :mod:`repro.expdb` — can run faulted points through the standard
    entry points without building the network themselves.
    """
    if scale is None:
        scale = current_scale()
    if network is None:
        network = ChordNetwork.build(scale.n_nodes, injector=injector)
    return ContinuousQueryEngine(network, config)


def workload_params_for(
    scale: Scale | None = None, **overrides
) -> WorkloadParams:
    """The standard workload parameters at the given scale.

    Shared by :func:`workload_for` (materialized events) and the
    streaming large-scale path (:mod:`repro.bench.scale`), so both
    replay the identical seeded event sequence.
    """
    if scale is None:
        scale = current_scale()
    return WorkloadParams(
        n_queries=overrides.pop("n_queries", scale.n_queries),
        n_tuples=overrides.pop("n_tuples", scale.n_tuples),
        domain_size=overrides.pop("domain_size", scale.domain_size),
        zipf_s=overrides.pop("zipf_s", scale.zipf_s),
        **overrides,
    )


def workload_for(
    scale: Scale | None = None, **overrides
) -> Workload:
    """The standard experiment workload at the given scale.

    Keyword overrides are forwarded to
    :class:`~repro.workload.generator.WorkloadParams` (e.g.
    ``bos_ratio=8`` or ``warmup_tuples=500``).
    """
    return build_workload(workload_params_for(scale, **overrides))


def run_workload(
    engine: ContinuousQueryEngine,
    workload: Workload,
    *,
    collect_per_tuple_hops: bool = False,
    evict_every: int = 64,
    seed: int = 1,
    origins: Optional[Sequence[ChordNode]] = None,
    schedule: Optional[Mapping[int, Sequence[Callable[[], object]]]] = None,
) -> RunReport:
    """Replay a workload against an engine and collect measurements.

    Origin nodes for subscriptions/insertions are drawn uniformly (the
    system model lets every node insert data and pose queries), one
    draw per event: from ``origins`` (a fixed, identifier-ordered pool,
    e.g. a chaos soak's protected subscribers) when given, else from the
    live ring.  When a sliding window is configured, value-level state
    is evicted every ``evict_every`` events so storage gauges track the
    window.  ``schedule`` maps publish indexes of the tuple stream to
    actions called just before that publish (crashes, restarts, lease
    refreshes — :func:`repro.faults.schedule.churn_schedule`), as
    :meth:`repro.net.cluster.LiveCluster.run` takes it.

    When the ring's injector perturbs delivery, deferred deliveries
    land before each event that is due at or after them, and the run
    quiesces twice: after the installs (before the stream's traffic
    snapshot) and after the stream (before the final eviction).
    """
    rng = random.Random(seed)
    if origins is None:
        draw = engine.network.random_node
    else:
        pool = tuple(origins)

        def draw(rng) -> ChordNode:
            return pool[rng.randrange(len(pool))]

    injector = engine.network.injector
    lands = injector is not None and injector.perturbs_delivery
    window = engine.config.window
    per_tuple_hops: list[int] = []

    install_start = engine.traffic.snapshot()
    stream_start = install_start
    queried = False
    in_stream_phase = False
    events = 0
    published = 0
    events_since_evict = 0
    evictions = 0

    # The replay makes no reference cycles, so the cycle collector never
    # runs inside; each barrier freezes survivors (see repro.sim.collector).
    with CollectorPause() as pause:
        for event in workload:
            if lands:
                injector.land_before(event.time)
            if event.kind == "query":
                if in_stream_phase:
                    raise ValueError("workloads must install all queries first")
                engine.clock.advance_to(event.time)
                engine.subscribe(draw(rng), event.payload)
                queried = True
            else:
                if queried and not in_stream_phase:
                    in_stream_phase = True
                    if lands:
                        injector.flush_deferred()
                    stream_start = engine.traffic.snapshot()
                if schedule is not None:
                    for action in schedule.get(published, ()):
                        action()
                    published += 1
                engine.clock.advance_to(event.time)
                origin = draw(rng)
                before = engine.traffic.hops if collect_per_tuple_hops else 0
                relation, values = event.payload
                engine.publish(origin, relation, values)
                if collect_per_tuple_hops:
                    per_tuple_hops.append(engine.traffic.hops - before)
            events += 1
            events_since_evict += 1
            if events_since_evict >= evict_every:
                events_since_evict = 0
                if window is not None:
                    evictions += engine.evict_expired()
                pause.freeze_survivors()

        if lands:
            injector.flush_deferred()
        if window is not None:
            evictions += engine.evict_expired()
        end = engine.traffic.snapshot()
        return RunReport(
            kind="run",
            engine=engine,
            install_traffic=stream_start - install_start,
            stream_traffic=end - stream_start,
            events=events,
            evictions=evictions,
            suppressed_renotifications=engine.suppressed_renotifications,
            duplicate_deliveries=engine.duplicate_deliveries,
            per_tuple_hops=per_tuple_hops,
        )


def run_standard(
    algorithm: str,
    scale: Scale | None = None,
    *,
    config_overrides: Optional[dict] = None,
    workload: Workload | None = None,
    seed: int = 1,
    collect_per_tuple_hops: bool = False,
    evict_every: int = 64,
    **workload_overrides,
) -> RunReport:
    """One-call experiment: engine + workload + replay.

    Most benchmarks are parameter sweeps around this function.  ``seed``
    seeds the engine, the origin-node draws and — unless ``workload``
    is given — the workload, like the ``seed`` column of an experiment
    database row.
    """
    if scale is None:
        scale = current_scale()
    config_kwargs = dict(config_overrides or {})
    config = EngineConfig(algorithm=algorithm, seed=seed, **config_kwargs)
    if workload is None:
        workload = workload_for(scale, seed=seed, **workload_overrides)
    engine = make_engine(scale, config)
    return run_workload(
        engine,
        workload,
        seed=seed,
        collect_per_tuple_hops=collect_per_tuple_hops,
        evict_every=evict_every,
    )
