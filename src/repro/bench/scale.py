"""Large-scale sweep points through the sharded simulator.

The E14 scaling study tops out where the serial simulator becomes the
bottleneck.  This module pushes the network-size axis into the
10^5-node range by combining the three scaling mechanisms of
DESIGN.md §14:

* ring snapshots routing a ring whose members are created on first
  touch (``ChordNetwork.build``),
* streaming workload generation (:func:`iter_workload_events`), and
* sharded staged execution of the stream (:func:`repro.sim.shard.run_sharded`).

:func:`run_scale_point` is what a ``shard`` row of the experiment
database runs (:mod:`repro.expdb.runner`); the committed 20k-node rows
of ``BENCH_baseline.json`` are gated by ``python -m repro.expdb gate``,
and ``python -m repro.expdb diff`` holds a ``shard`` row — in process
and over forked shards — to its serial ``sim`` sibling.  A point is
run, and filed, as a ``shard`` row: ``python -m repro.expdb fill
--transports shard ...`` then ``worker --drain [--shards N]``
(EXPERIMENTS X2/X3).
"""

from __future__ import annotations

import resource
import sys
import time
from typing import Optional

from ..chord.network import ChordNetwork
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..sim.shard import run_sharded
from ..workload.generator import iter_workload_events
from ..workload.schema_gen import synthetic_schema
from .configs import Scale
from .harness import workload_params_for
from .rows import RunReport

#: Events per staged epoch (driver → workers → barrier → repeat).
DEFAULT_BATCH_SIZE = 512

#: Serial eviction schedule (events per sweep), matching
#: :func:`repro.bench.harness.run_workload`.
DEFAULT_EVICT_EVERY = 64


def peak_rss_kb() -> int:
    """Lifetime peak resident set size of this process tree, in KiB.

    ``getrusage`` is zero-dependency and monotone: the max of SELF and
    CHILDREN covers both in-process and forked shard runs.  Linux
    reports ``ru_maxrss`` in KiB; macOS reports bytes.
    """
    self_max = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_max = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak = max(self_max, children_max)
    if sys.platform == "darwin":  # pragma: no cover - platform dependent
        peak //= 1024
    return peak


def run_scale_point(
    algorithm: str,
    point: Scale,
    *,
    seed: int = 1,
    shards: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    config_overrides: Optional[dict] = None,
    workload_overrides: Optional[dict] = None,
    evict_every: int = DEFAULT_EVICT_EVERY,
) -> tuple[RunReport, float]:
    """One algorithm at one sweep point through the full fast path:
    the run's report and its wall seconds.

    The wall covers everything a bigger ring makes slower — network
    build, query install, sharded stream.  ``config_overrides`` opens
    the lifted modes (``window``, ``replication_factor``,
    ``jfrt_capacity``), ``workload_overrides`` go to
    :func:`~repro.bench.harness.workload_params_for`; ``shards`` of
    ``None`` is 1, staged in-process.  ``seed`` seeds the engine, the
    origin-node draws and the workload, unless
    ``workload_overrides["seed"]`` pins the workload's.
    """
    params = workload_params_for(
        point, **{"seed": seed, **(workload_overrides or {})}
    )
    schema = synthetic_schema(params.n_relations, params.attributes_per_relation)
    start = time.perf_counter()
    network = ChordNetwork.build(point.n_nodes)
    engine = ContinuousQueryEngine(
        network,
        EngineConfig(
            **{
                "algorithm": algorithm,
                "index_choice": "random",
                "seed": seed,
                **(config_overrides or {}),
            }
        ),
    )
    report = run_sharded(
        engine,
        iter_workload_events(params, schema),
        shards=shards or 1,
        batch_size=batch_size,
        seed=seed,
        evict_every=evict_every,
    )
    return report, time.perf_counter() - start
