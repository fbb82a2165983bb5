"""Experiment harness: build a network, replay a workload, measure.

Every benchmark (one per paper table/figure) goes through
:func:`run_workload`, so traffic and load are always measured the same
way; the staged and live drivers replay in the same
:class:`ReplayOrder`, so they split them the same way too:

* *install traffic* — hops spent indexing the continuous queries (and
  any warm-up tuples published before them);
* *stream traffic* — hops spent inserting the tuples from the first one
  after a query on (including all triggered rewriting/reindexing and
  notification delivery);
* *per-tuple hop series* — hops of each individual insertion, for
  convergence plots such as the JFRT warm-up (Figure 5.2);
* a final :class:`~repro.core.metrics.LoadSnapshot` with the per-node
  filtering/storage vectors — all in the one
  :class:`~repro.bench.rows.RunReport` every executor returns.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..chord.network import ChordNetwork
from ..chord.node import ChordNode
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..faults.plan import check_support
from ..sim.collector import CollectorPause
from .configs import Scale, current_scale
from .rows import RunReport
from ..workload.generator import Workload, WorkloadEvent, WorkloadParams, build_workload


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


class ReplayOrder:
    """The one order in which every driver replays a workload.

    The triggering rule (``pubT(t) >= insT(q)``) makes event order part
    of the answer, so :func:`run_workload`,
    :func:`repro.sim.shard.run_sharded` and
    :meth:`repro.net.cluster.LiveCluster.run` all take it from here.
    Iterating yields the events in workload order and sets, for the
    current one:

    * :attr:`boundary` — True on the first tuple after a query, where
      the install phase (warm-up tuples included) ends and the stream
      begins; :attr:`streaming` stays True from there on, and a query
      after it raises :class:`ValueError`;
    * :attr:`actions` — ``schedule``'s actions for the tuple's publish
      index (:func:`repro.faults.schedule.churn_schedule`), to run
      before its publish; empty for a query;
    * :attr:`evict_due` — whether the eviction cadence (every
      ``evict_every`` events of the whole replay) falls due after it.

    The driver then calls :meth:`origin` — after the actions, since a
    crash changes the ring — and dispatches the event itself; at the
    end, :meth:`split` divides what it measured between the phases.
    """

    def __init__(
        self,
        engine: ContinuousQueryEngine,
        events: Iterable[WorkloadEvent],
        *,
        seed: int = 1,
        origins: Optional[Sequence[ChordNode]] = None,
        evict_every: int = 64,
        schedule: Optional[Mapping[int, Sequence[Callable[[], object]]]] = None,
    ):
        if evict_every < 1:
            raise ValueError("evict_every must be >= 1")
        self._events, self._engine = events, engine
        self._rng = random.Random(seed)
        self._pool = None if origins is None else tuple(origins)
        self._evict_every, self._schedule = evict_every, schedule or {}
        #: Events and tuples yielded so far, the current one included.
        self.events = self.published = 0
        self.boundary = self.streaming = self.evict_due = False
        self.actions: Sequence[Callable[[], object]] = ()

    def __iter__(self) -> Iterator[WorkloadEvent]:
        queried = False
        for event in self._events:
            self.events += 1
            self.evict_due = self.events % self._evict_every == 0
            if event.kind == "query":
                if self.streaming:
                    raise ValueError("workloads must install all queries first")
                queried = True
                self.boundary, self.actions = False, ()
            else:
                self.boundary, self.streaming = queried and not self.streaming, queried
                self.actions = self._schedule.get(self.published, ())
                self.published += 1
            yield event

    def split(self, start, boundary, end) -> tuple:
        """``(install, stream)`` of one measure — traffic snapshots,
        clock readings, counts — read at the start of the replay, at its
        boundary and at its end.  Everything before the boundary is
        install, so a replay whose boundary never fired (no query, or no
        tuple after one) is all install."""
        boundary = boundary if self.streaming else end
        return boundary - start, end - boundary

    def origin(self, event: WorkloadEvent) -> ChordNode:
        """Advance the engine clock to ``event.time`` and draw the node
        that subscribes or publishes it: uniformly (every node may pose
        queries and insert data), one draw per event, from ``origins``
        — a fixed, identifier-ordered pool such as a chaos soak's
        protected subscribers — when given, else from the live ring."""
        self._engine.clock.advance_to(event.time)
        pool = self._pool
        if pool is None:
            return self._engine.network.random_node(self._rng)
        return pool[self._rng.randrange(len(pool))]


def run_workload(
    engine: ContinuousQueryEngine,
    workload: Workload,
    *,
    evict_every: int = 64,
    seed: int = 1,
    origins: Optional[Sequence[ChordNode]] = None,
    schedule: Optional[Mapping[int, Sequence[Callable[[], object]]]] = None,
) -> RunReport:
    """Replay a workload against an engine and collect measurements.

    Events are dispatched synchronously in :class:`ReplayOrder` (which
    takes ``seed``, ``origins``, ``evict_every`` and ``schedule``); the
    install/stream traffic split is taken at its boundary
    (:meth:`ReplayOrder.split`).  Value-level state older than the
    engine's :meth:`~repro.core.engine.ContinuousQueryEngine.window_cutoff`
    is evicted whenever the cadence falls due, so storage gauges track
    the window.  Every publish's hop count goes
    into ``per_tuple_hops`` (one int per tuple; the row's ``load.fifth``).

    A plan field on the ring's injector that the ``sim`` column of
    :data:`~repro.faults.plan.FAULT_SUPPORT` lacks (the ``net`` wire
    faults) is refused by name.  When the injector perturbs delivery,
    deferred deliveries land before each event that is due at or after
    them, and the run quiesces twice: at the boundary (before the
    stream's traffic snapshot) and after the stream (before the final
    eviction).
    """
    replay = ReplayOrder(
        engine,
        workload,
        seed=seed,
        origins=origins,
        evict_every=evict_every,
        schedule=schedule,
    )
    injector = engine.network.injector
    if injector is not None:
        check_support(injector.plan, "sim")
    lands = injector is not None and injector.perturbs_delivery
    per_tuple_hops: list[int] = []

    install_start = engine.traffic.snapshot()
    stream_start = install_start
    evictions = 0

    # The replay makes no reference cycles, so the cycle collector never
    # runs inside; each barrier freezes survivors (see repro.sim.collector).
    with CollectorPause() as pause:
        for event in replay:
            if lands:
                injector.land_before(event.time)
            if event.kind == "query":
                engine.subscribe(replay.origin(event), event.payload)
            else:
                if replay.boundary:
                    if lands:
                        injector.flush_deferred()
                    stream_start = engine.traffic.snapshot()
                for action in replay.actions:
                    action()
                origin = replay.origin(event)
                before = engine.traffic.hops
                relation, values = event.payload
                engine.publish(origin, relation, values)
                per_tuple_hops.append(engine.traffic.hops - before)
            if replay.evict_due:
                evictions += engine.evict_expired()
                pause.freeze_survivors()

        if lands:
            injector.flush_deferred()
        evictions += engine.evict_expired()
        install_traffic, stream_traffic = replay.split(
            install_start, stream_start, engine.traffic.snapshot()
        )
        return RunReport(
            kind="run",
            engine=engine,
            install_traffic=install_traffic,
            stream_traffic=stream_traffic,
            events=replay.events,
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
        evict_every=evict_every,
    )
