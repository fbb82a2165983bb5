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
  filtering/storage vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..chord.network import ChordNetwork
from ..chord.node import ChordNode
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..core.metrics import LoadSnapshot
from ..core.oracle import CentralizedOracle
from ..sim.collector import CollectorPause
from ..sim.stats import TrafficSnapshot
from ..sql.query import JoinQuery
from .configs import Scale, current_scale
from ..workload.generator import Workload, WorkloadParams, build_workload


@dataclass
class RunResult:
    """Everything a benchmark needs from one workload replay."""

    engine: ContinuousQueryEngine
    workload: Workload
    queries: list[JoinQuery]
    install_traffic: TrafficSnapshot
    stream_traffic: TrafficSnapshot
    load: LoadSnapshot
    per_tuple_hops: list[int]
    oracle: Optional[CentralizedOracle]
    #: Sliding-window items evicted over the replay (0 when unbounded).
    #: Deterministic for a seeded workload, so differential checks can
    #: compare it across execution modes like any other metric.
    evictions: int

    @property
    def hops_per_tuple(self) -> float:
        """Mean overlay hops per tuple insertion in the stream phase."""
        streamed = self.workload.n_tuples
        return self.stream_traffic.hops / streamed if streamed else 0.0

    @property
    def hops_per_query(self) -> float:
        """Mean overlay hops per installed query."""
        installed = len(self.queries)
        return self.install_traffic.hops / installed if installed else 0.0

    @property
    def notifications_delivered(self) -> int:
        return sum(len(batch) for batch in self.engine.delivered.values())

    def notification_digest(self) -> str:
        """The canonical answer-set digest."""
        from .rows import notification_digest

        return notification_digest(self.engine)

    def to_row(self) -> dict:
        """This result's invariant metrics as a stable JSON-safe dict.

        No live objects (engine, workload, oracle) survive — the row is
        what baselines and the experiment database persist.  See
        :mod:`repro.bench.rows` for the stability contract.
        """
        from .rows import ROW_VERSION, load_to_row, traffic_to_row

        return {
            "row_version": ROW_VERSION,
            "kind": "run",
            "install_traffic": traffic_to_row(self.install_traffic),
            "stream_traffic": traffic_to_row(self.stream_traffic),
            "notifications_delivered": self.notifications_delivered,
            "notification_digest": self.notification_digest(),
            "evictions": self.evictions,
            "load": load_to_row(self.load, self.per_tuple_hops),
        }


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
    with_oracle: bool = False,
    collect_per_tuple_hops: bool = False,
    evict_every: int = 64,
    seed: int = 1,
    origins: Optional[Sequence[ChordNode]] = None,
) -> RunResult:
    """Replay a workload against an engine and collect measurements.

    Origin nodes for subscriptions/insertions are drawn uniformly (the
    system model lets every node insert data and pose queries), one
    draw per event: from ``origins`` (a fixed, identifier-ordered pool,
    e.g. a chaos soak's protected subscribers) when given, else from the
    live ring.  When a sliding window is configured, value-level state
    is evicted every ``evict_every`` events so storage gauges track the
    window.
    """
    rng = random.Random(seed)
    if origins is None:
        draw = engine.network.random_node
    else:
        pool = tuple(origins)

        def draw(rng) -> ChordNode:
            return pool[rng.randrange(len(pool))]

    window = engine.config.window
    oracle = CentralizedOracle(window=window) if with_oracle else None
    queries: list[JoinQuery] = []
    per_tuple_hops: list[int] = []

    install_start = engine.traffic.snapshot()
    stream_start = install_start
    in_stream_phase = False
    events_since_evict = 0
    evictions = 0

    # The replay makes no reference cycles, so the cycle collector never
    # runs inside; each barrier freezes survivors (see repro.sim.collector).
    with CollectorPause() as pause:
        for event in workload:
            engine.clock.advance_to(event.time)
            origin = draw(rng)
            if event.kind == "query":
                if in_stream_phase:
                    raise ValueError("workloads must install all queries first")
                bound = engine.subscribe(origin, event.payload)
                queries.append(bound)
                if oracle is not None:
                    oracle.subscribe(bound)
            else:
                if queries and not in_stream_phase:
                    in_stream_phase = True
                    stream_start = engine.traffic.snapshot()
                before = engine.traffic.hops if collect_per_tuple_hops else 0
                relation, values = event.payload
                tup = engine.publish(origin, relation, values)
                if collect_per_tuple_hops:
                    per_tuple_hops.append(engine.traffic.hops - before)
                if oracle is not None:
                    oracle.insert(tup)
            events_since_evict += 1
            if events_since_evict >= evict_every:
                events_since_evict = 0
                if window is not None:
                    evictions += engine.evict_expired()
                pause.freeze_survivors()

        if window is not None:
            evictions += engine.evict_expired()
        end = engine.traffic.snapshot()
        install_traffic = _diff(stream_start, install_start)
        stream_traffic = _diff(end, stream_start)
        return RunResult(
            engine=engine,
            workload=workload,
            queries=queries,
            install_traffic=install_traffic,
            stream_traffic=stream_traffic,
            load=engine.load_snapshot(),
            per_tuple_hops=per_tuple_hops,
            oracle=oracle,
            evictions=evictions,
        )


def _diff(later: TrafficSnapshot, earlier: TrafficSnapshot) -> TrafficSnapshot:
    return TrafficSnapshot(
        hops=later.hops - earlier.hops,
        messages=later.messages - earlier.messages,
        hops_by_type={
            key: count - earlier.hops_by_type.get(key, 0)
            for key, count in later.hops_by_type.items()
        },
        messages_by_type={
            key: count - earlier.messages_by_type.get(key, 0)
            for key, count in later.messages_by_type.items()
        },
        messages_dropped=later.messages_dropped - earlier.messages_dropped,
        retries=later.retries - earlier.retries,
        messages_delayed=later.messages_delayed - earlier.messages_delayed,
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
    injector=None,
    **workload_overrides,
) -> RunResult:
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
    engine = make_engine(scale, config, injector=injector)
    return run_workload(
        engine,
        workload,
        seed=seed,
        collect_per_tuple_hops=collect_per_tuple_hops,
        evict_every=evict_every,
    )
