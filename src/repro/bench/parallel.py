"""Process-parallel execution of independent benchmark sweep points.

Every experiment sweep in :mod:`repro.bench.experiments` is a list of
*points* — (scale, algorithm, parameter) combinations replayed through
:func:`~repro.bench.harness.run_standard`.  Points never share state:
each one rebuilds its workload deterministically from the same seed, so
they can run in separate worker processes and still produce rows that
are byte-identical to a serial run.

:func:`parallel_map` is the single entry point.  It preserves input
order, propagates worker exceptions, and degrades to a plain in-process
loop when parallelism is disabled — the default, so tests and
single-point runs never pay pool start-up costs.

The worker count comes from the ``REPRO_BENCH_PROCS`` environment
variable:

``unset`` / ``"1"``
    serial, in-process (the default);
``"auto"`` / ``"0"``
    one worker per CPU (``os.cpu_count()``);
``N``
    a pool of ``N`` worker processes.

Workers are forked where the platform supports it (cheap, and usable
from a REPL) and spawned otherwise; either way the mapped function and
its items must be picklable (module-level functions over plain
tuples/dataclasses).  Engines and workloads are **not** picklable —
build them inside the worker and return plain row dicts.

Note the gate (:mod:`repro.expdb.gate`) runs its rows serially on
purpose: its product is wall-clock time, and concurrent workers would
contend for cores and distort the measurement.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

ENV_VAR = "REPRO_BENCH_PROCS"

T = TypeVar("T")
R = TypeVar("R")


def configured_processes(n_items: int) -> int:
    """Worker count for ``n_items`` independent points (≥1).

    Reads ``REPRO_BENCH_PROCS`` (see module docstring) and never
    returns more workers than there are points.
    """
    raw = os.environ.get(ENV_VAR, "").strip().lower()
    if raw in ("", "1"):
        return 1
    if raw in ("0", "auto"):
        procs = os.cpu_count() or 1
    else:
        try:
            procs = int(raw)
        except ValueError:
            raise ValueError(
                f"{ENV_VAR} must be an integer or 'auto', got {raw!r}"
            ) from None
        if procs < 1:
            procs = 1
    return max(1, min(procs, n_items))


def fork_available() -> bool:
    """True when the platform supports forked workers.

    The sharded simulator (:mod:`repro.sim.shard`) relies on fork
    semantics — workers inherit a fully built engine copy-on-write —
    so it degrades to in-process staged execution elsewhere.
    """
    return "fork" in multiprocessing.get_all_start_methods()


class ShardPool:
    """Persistent forked workers exchanging messages over pipes.

    Unlike :func:`parallel_map` (stateless one-shot points), sharded
    simulation needs *stateful* workers: each holds one ring segment of
    a forked engine replica and participates in several message
    exchanges per epoch.  ``worker_main(conn, index)`` runs in each
    child — typically a closure over the pre-built engine, which fork
    shares copy-on-write — and owns the command protocol; the pool only
    provides the scatter/gather plumbing.
    """

    def __init__(self, n_shards: int, worker_main: Callable[[object, int], None]):
        if not fork_available():
            raise RuntimeError("ShardPool requires the fork start method")
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        context = multiprocessing.get_context("fork")
        self.n_shards = n_shards
        self._conns = []
        self._procs = []
        for index in range(n_shards):
            parent, child = context.Pipe()
            process = context.Process(
                target=worker_main, args=(child, index), daemon=True
            )
            process.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(process)

    def send(self, shard: int, payload) -> None:
        self._conns[shard].send(payload)

    def recv(self, shard: int):
        return self._conns[shard].recv()

    def scatter(self, payloads: Sequence) -> None:
        """Send ``payloads[i]`` to shard ``i`` (one per shard)."""
        if len(payloads) != self.n_shards:
            raise ValueError("one payload per shard required")
        for conn, payload in zip(self._conns, payloads):
            conn.send(payload)

    def broadcast(self, payload) -> None:
        """Send the same payload to every shard (one pickle per pipe)."""
        for conn in self._conns:
            conn.send(payload)

    def gather(self) -> list:
        """Receive one reply from every shard, in shard order."""
        return [conn.recv() for conn in self._conns]

    def close(self) -> None:
        """Close pipes and reap the workers (best effort)."""
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        for process in self._procs:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - teardown best effort
                process.terminate()
                process.join(timeout=5)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parallel_map(func: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[func(item) for item in items]``, possibly across processes.

    Order-preserving; the first worker exception is re-raised.  Falls
    back to a serial loop when the configured worker count is 1 or
    there is at most one item.
    """
    points: Sequence[T] = list(items)
    procs = configured_processes(len(points))
    if procs <= 1:
        return [func(item) for item in points]
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=procs, mp_context=context) as pool:
        return list(pool.map(func, points))
