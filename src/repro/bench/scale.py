"""Large-scale sweep points through the sharded simulator.

The E14 scaling study tops out where the serial simulator becomes the
bottleneck.  This module pushes the network-size axis into the
10^5-node range by combining the three scaling mechanisms of
DESIGN.md §14:

* ring snapshots routing a ring whose finger tables are deferred
  (``ChordNetwork.build(fast_routing=True)``),
* streaming workload generation (:func:`iter_workload_events`), and
* sharded staged execution of the stream (:func:`repro.sim.shard.run_sharded`).

:func:`run_scale_point` is what a ``shard`` row of the experiment
database runs (:mod:`repro.expdb.runner`); the committed 20k-node rows
of ``BENCH_baseline.json`` are gated by ``python -m repro.expdb gate``.
``python -m repro.bench.scale --verify`` is the differential check
(:func:`verify_equivalence`) at a small ring, in **two configurations**
— the stripped engine, and the full feature set (sliding window +
replication + JFRT) exercising the lifted sharded modes of DESIGN.md
§15 — and exits non-zero on any difference.  A point is run, and
filed, as a ``shard`` row: ``python -m repro.expdb fill --transports
shard ...`` then ``worker --drain [--shards N]`` (EXPERIMENTS X2/X3).
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from typing import Optional, Sequence

from ..chord.network import ChordNetwork
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..sim.shard import fork_available, run_sharded
from ..workload.generator import iter_workload_events
from ..workload.schema_gen import synthetic_schema
from .configs import Scale
from .harness import run_standard, workload_for, workload_params_for
from .rows import SCALE_METRIC_FIELDS, metric_summary

#: Algorithms ``--verify`` compares, in presentation order.
HEADLINE_ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

#: Ring size of the ``--verify`` differential check.
VERIFY_NODES = 512

#: Events per staged epoch (driver → workers → barrier → repeat).
DEFAULT_BATCH_SIZE = 512

#: Serial eviction schedule (events per sweep), matching
#: :func:`repro.bench.harness.run_workload`.
DEFAULT_EVICT_EVERY = 64

#: The ``--verify`` configuration exercising every lifted mode at once:
#: sliding window + replicated rewriters + JFRT (see
#: :func:`repro.sim.shard.shard_capabilities`).
VERIFY_FEATURED = {"window": 240.0, "replication_factor": 2, "jfrt_capacity": 8}


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


def scale_point(n_nodes: int) -> Scale:
    """A sweep point: the network-size axis moves, the workload holds.

    Keeping the workload fixed isolates what the large rings cost
    (longer routes, bigger build) from what more work costs — the same
    shape as E14's network-size sweep.
    """
    return Scale(
        name=f"scale-{n_nodes}",
        n_nodes=n_nodes,
        n_queries=400,
        n_tuples=800,
        domain_size=900,
        zipf_s=0.75,
    )


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
) -> dict:
    """One algorithm at one sweep point through the full fast path.

    Wall-clock covers everything a bigger ring makes slower — network
    build, query install, sharded stream — reported per phase.
    ``config_overrides`` opens the lifted modes (``window``,
    ``replication_factor``, ``jfrt_capacity``), ``workload_overrides``
    go to :func:`~repro.bench.harness.workload_params_for`; ``shards``
    of ``None`` is 1, staged in-process.  ``seed`` seeds the engine,
    the origin-node draws and the workload, unless
    ``workload_overrides["seed"]`` pins the workload's.  Peak RSS and
    events/sec ride along as *resource* columns, deliberately outside
    the bit-compared metrics (they are machine-dependent).
    """
    params = workload_params_for(
        point, **{"seed": seed, **(workload_overrides or {})}
    )
    schema = synthetic_schema(params.n_relations, params.attributes_per_relation)
    start = time.perf_counter()
    network = ChordNetwork.build(point.n_nodes, fast_routing=True)
    built = time.perf_counter()
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
    result = run_sharded(
        engine,
        iter_workload_events(params, schema),
        shards=shards or 1,
        batch_size=batch_size,
        seed=seed,
        evict_every=evict_every,
    )
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "build_seconds": built - start,
        "shards": result.shards,
        "metrics": metric_summary(result.to_row(), SCALE_METRIC_FIELDS),
        "row": result.to_row(),
        "resources": {
            "peak_rss_kb": peak_rss_kb(),
            "events_per_sec": round(result.events / wall, 1) if wall else 0.0,
            "exchange_records": result.exchange_records,
        },
        "features": list(result.features),
    }


def verify_equivalence(
    *,
    n_nodes: int = VERIFY_NODES,
    algorithms: Sequence[str] = HEADLINE_ALGORITHMS,
    seed: int = 1,
    batch_size: int = 64,
    config_overrides: Optional[dict] = None,
    evict_every: int = DEFAULT_EVICT_EVERY,
) -> list[str]:
    """Differential check: fast path ≡ serial reference, bit for bit.

    For each algorithm the identical workload (drawn from ``seed``, like
    everything else) is replayed three ways — serial
    :func:`run_standard`, staged in-process, staged over forked shards —
    and every simulated metric must agree, including
    the sliding-window eviction count when ``config_overrides`` opens a
    window.  Returns failure messages (empty = equivalent).
    """
    overrides = dict(config_overrides or {})
    point = scale_point(n_nodes)
    workload = workload_for(point, seed=seed)
    problems: list[str] = []
    for algorithm in algorithms:
        reference = run_standard(
            algorithm,
            point,
            config_overrides={"index_choice": "random", **overrides},
            workload=workload,
            seed=seed,
            evict_every=evict_every,
        )
        expected = metric_summary(reference.to_row(), SCALE_METRIC_FIELDS)
        modes = [("staged", 1)]
        if fork_available():
            modes.append(("forked", 4))
        for label, shards in modes:
            network = ChordNetwork.build(point.n_nodes, fast_routing=True)
            engine = ContinuousQueryEngine(
                network,
                EngineConfig(
                    algorithm=algorithm, index_choice="random", seed=seed, **overrides
                ),
            )
            result = run_sharded(
                engine,
                workload,
                shards=shards,
                batch_size=batch_size,
                seed=seed,
                evict_every=evict_every,
            )
            got = metric_summary(result.to_row(), SCALE_METRIC_FIELDS)
            for metric in expected:
                if got[metric] != expected[metric]:
                    problems.append(
                        f"{algorithm}/{label}: {metric} diverged: "
                        f"serial {expected[metric]!r} != fast {got[metric]!r}"
                    )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.scale",
        description="Differential check of the sharded simulator.",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        required=True,
        help=f"differential check vs the serial simulator at {VERIFY_NODES} nodes",
    )
    parser.parse_args(argv)
    configurations = [
        ("stripped", {}),
        ("windowed+replicated+jfrt", dict(VERIFY_FEATURED)),
    ]
    for label, overrides in configurations:
        problems = verify_equivalence(config_overrides=overrides)
        if problems:
            for problem in problems:
                print(f"VERIFY FAIL [{label}]: {problem}", file=sys.stderr)
            return 1
        print(
            f"verify[{label}]: OK — staged/forked metrics identical to serial "
            f"at {VERIFY_NODES} nodes ({', '.join(HEADLINE_ALGORITHMS)})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
