"""Stack-based span tracer, applied from outside the program under test.

The benchmark owns all tracing: :func:`install_repro_spans` replaces the
public callables at each layer boundary of ``repro`` with timing
wrappers at run time and :meth:`Tracer.restore` puts the originals back,
so ``src/`` carries no tracing code and an untraced run executes exactly
the shipped program.

Every wrapped call records one span — name, start, end, parent span and
the id of the publish/subscribe request it belongs to — in in-memory
columns.  A layer's *self time* is its span's duration minus the time
its direct child spans cover; self times therefore partition the time
spent under the outermost spans, recursion included.  All wrapped
callables are synchronous, so the single stack stays consistent on an
asyncio loop too (a span can never be suspended half-way).

Spans that run detached from a driver call — the live cluster's receive
path, the staged executor's stages — carry request id 0.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Any, Callable, Optional


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: Per span name: completed calls, summed self time, summed items.
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.items: list[int] = []
        #: Span columns, one entry per recorded span.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self._stack: list[int] = []
        #: Child time accumulated so far by the span on top of the stack.
        self._child = 0.0
        self._request = 0
        self._requests_issued = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.items.append(0)
        return ident

    def wrap(
        self,
        func: Callable,
        name: str,
        *,
        root: bool = False,
        items: Optional[Callable[[tuple, Any], int]] = None,
    ) -> Callable:
        """``func`` recorded as span ``name``.

        ``root`` marks a driver-facing request (publish/subscribe): each
        call gets a fresh request id that its child spans inherit.
        ``items(args, result)`` adds a per-call work count (bytes
        encoded, rewritten queries received) to the span's ``items``.
        """
        name_id = self._name_id(name)
        tracer = self
        clock = self._clock
        stack = self._stack
        span_name, span_start, span_end = (
            self.span_name,
            self.span_start,
            self.span_end,
        )
        span_parent, span_request = self.span_parent, self.span_request
        calls, self_s, item_totals = self.calls, self.self_s, self.items

        def traced(*args, **kwargs):
            index = len(span_name)
            outer_request = tracer._request
            if root:
                tracer._requests_issued += 1
                tracer._request = tracer._requests_issued
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_request.append(tracer._request)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(index)
            outer_child = tracer._child
            tracer._child = 0.0
            start = clock()
            try:
                result = func(*args, **kwargs)
                if items is not None:
                    item_totals[name_id] += items(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[name_id] += elapsed - tracer._child
                calls[name_id] += 1
                tracer._child = outer_child + elapsed
                tracer._request = outer_request
                span_start[index] = start
                span_end[index] = end

        traced.joinbench_original = func  # type: ignore[attr-defined]
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def patch_method(self, cls: type, attr: str, name: str, **options) -> int:
        """Wrap ``cls.attr`` wherever ``cls`` or a subclass defines it;
        returns the number of definitions patched."""
        patched = 0
        pending = [cls]
        seen: set[type] = set()
        while pending:
            owner = pending.pop()
            if owner in seen:
                continue
            seen.add(owner)
            pending.extend(owner.__subclasses__())
            original = owner.__dict__.get(attr)
            if original is None or hasattr(original, "joinbench_original"):
                continue
            setattr(owner, attr, self.wrap(original, name, **options))
            self._patches.append((owner, attr, original))
            patched += 1
        return patched

    def patch_function(self, func: Callable, name: str, **options) -> int:
        """Wrap a module-level function in every loaded ``repro`` module
        namespace that binds it (``from x import f`` copies included)."""
        wrapper = self.wrap(func, name, **options)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, func))
                    patched += 1
        return patched

    def restore(self) -> None:
        """Put every patched attribute back (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """``{span name: {"calls", "self_s", "items"}}`` so far."""
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_s[i],
                "items": self.items[i],
            }
            for i, name in enumerate(self.names)
        }

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def write_spans(self, path: str) -> int:
        """Dump every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_name)):
                handle.write(
                    "[%d,%.9f,%.9f,%d,%d]\n"
                    % (
                        self.span_name[i],
                        self.span_start[i],
                        self.span_end[i],
                        self.span_parent[i],
                        self.span_request[i],
                    )
                )
        return len(self.span_name)


#: Span-name prefixes per layer group, for the per-group self-time sums
#: the written predictions are checked against.
GROUPS = {
    "chord": ("chord.",),
    "rewrite": ("core.algorithm.", "sql.query.rewrite"),
    "tables": ("core.tables.", "core.engine.evict_expired"),
    "core": ("core.", "sql."),
    "net": ("net.",),
}


def group_self_s(summary: dict[str, dict]) -> dict[str, float]:
    """Summed self time of each layer group in :data:`GROUPS`."""
    return {
        group: sum(
            entry["self_s"]
            for name, entry in summary.items()
            if name.startswith(prefixes)
        )
        for group, prefixes in GROUPS.items()
    }


def install_repro_spans(tracer: Tracer) -> None:
    """Wrap the public callables at every layer boundary of ``repro``.

    Methods are patched on their classes (handlers and transports are
    looked up per call, so instances built afterwards *and* before pick
    the wrappers up); module-level functions are patched in every
    namespace that imported them.  ``encode_frame_into`` is only reached
    through ``encode_frame`` and is therefore covered by its span.
    """
    from repro.chord.hashing import ConsistentHash
    from repro.chord.routing import Router
    from repro.core.base import Algorithm
    from repro.core.engine import ContinuousQueryEngine
    from repro.core.tables import (
        AttributeLevelQueryTable,
        ProjectionStore,
        ValueLevelQueryTable,
        ValueLevelTupleTable,
    )
    from repro.net import codec, frames
    from repro.net.peer import SocketTransport
    from repro.sim import shard
    from repro.sql import query as sql_query
    from repro.workload import generator

    method = tracer.patch_method
    function = tracer.patch_function

    method(ContinuousQueryEngine, "subscribe", "core.engine.subscribe", root=True)
    method(ContinuousQueryEngine, "publish", "core.engine.publish", root=True)
    method(
        ContinuousQueryEngine,
        "deliver_notifications",
        "core.engine.deliver_notifications",
    )
    method(ContinuousQueryEngine, "evict_expired", "core.engine.evict_expired")
    function(generator.build_workload, "workload.generator")
    function(shard.run_sharded, "sim.shard.run_sharded")

    for transport in (Router, SocketTransport):
        method(transport, "send", "chord.routing.send")
        method(transport, "multisend", "chord.routing.multisend")
        method(transport, "send_direct", "chord.routing.send_direct")
    method(Router, "find_successor", "chord.routing.find_successor")
    method(ConsistentHash, "hash_parts", "chord.hashing.hash_parts")

    method(Algorithm, "index_tuple", "core.algorithm.index_tuple")
    method(Algorithm, "on_query", "core.algorithm.on_query")
    method(Algorithm, "on_al_index", "core.algorithm.on_al_index")
    method(Algorithm, "on_vl_index", "core.algorithm.on_vl_index")
    method(
        Algorithm,
        "on_join",
        "core.algorithm.on_join",
        items=lambda args, result: len(args[3].rewritten),
    )
    function(sql_query.rewrite, "sql.query.rewrite")

    method(AttributeLevelQueryTable, "groups_for", "core.tables.alqt.groups_for")
    method(ValueLevelQueryTable, "add", "core.tables.vlqt.add")
    method(ValueLevelQueryTable, "candidates", "core.tables.vlqt.candidates")
    method(ValueLevelTupleTable, "add", "core.tables.vltt.add")
    method(ValueLevelTupleTable, "candidates", "core.tables.vltt.candidates")
    for store in (ValueLevelQueryTable, ValueLevelTupleTable, ProjectionStore):
        method(store, "evict_older_than", "core.tables.evict")

    function(
        codec.encode_frame,
        "net.codec.encode",
        items=lambda args, result: len(result),
    )
    function(codec.decode_frame_payload, "net.codec.decode")
    function(frames.peek_route, "net.frames.peek")
    function(frames.peek_multi, "net.frames.peek")
    function(frames.splice_multi, "net.frames.splice")


def leftover_wrappers() -> list[str]:
    """Names of ``repro`` attributes still bound to a tracer wrapper —
    empty after a clean :meth:`Tracer.restore` (used by the tests)."""
    leftovers = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, "joinbench_original"):
                leftovers.append(f"{module_name}.{attr}")
            elif isinstance(value, type):
                leftovers.extend(
                    f"{module_name}.{attr}.{name}"
                    for name, member in list(vars(value).items())
                    if hasattr(member, "joinbench_original")
                )
    return leftovers
