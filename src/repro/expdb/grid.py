"""Declarative experiment grids: axes in, parameter rows out.

A :class:`GridSpec` names one value list per experiment axis; its
cartesian expansion — in a fixed, documented axis order, so the same
spec always enumerates the same rows in the same order — is what
``fill`` upserts into the database.  Specs round-trip through plain
JSON (``grid.json`` files and the ``fill`` CLI flags build the same
object), following the ``py_experimenter`` pattern of defining the
sweep once, declaratively, instead of inside ad-hoc scripts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from typing import Iterator, Optional

from .db import TRANSPORTS, normalize_params

#: Algorithms a grid may name (presentation order).
ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

#: Spec-attribute → parameter-column, in expansion order (outermost
#: axis first).  Seeds iterate innermost so replicated points sit next
#: to each other in the table.
AXES = (
    ("transports", "transport"),
    ("algorithms", "algorithm"),
    ("n_nodes", "n_nodes"),
    ("n_queries", "n_queries"),
    ("n_tuples", "n_tuples"),
    ("domain_sizes", "domain_size"),
    ("zipf_s", "zipf_s"),
    ("windows", "window"),
    ("replication_factors", "replication_factor"),
    ("jfrt_capacities", "jfrt_capacity"),
    ("evict_everys", "evict_every"),
    ("fault_plans", "fault_plan"),
    ("overrides", "overrides"),
    ("seeds", "seed"),
)


@dataclass(frozen=True)
class GridSpec:
    """One sweep, as a value tuple per axis."""

    transports: tuple = ("sim",)
    algorithms: tuple = ALGORITHMS
    n_nodes: tuple = (64,)
    n_queries: tuple = (80,)
    n_tuples: tuple = (200,)
    domain_sizes: tuple = (60,)
    zipf_s: tuple = (0.9,)
    #: ``None`` = unbounded window.
    windows: tuple = (None,)
    replication_factors: tuple = (1,)
    jfrt_capacities: tuple = (0,)
    evict_everys: tuple = (64,)
    #: ``None`` = fault-free; otherwise a FaultPlan kwargs dict (the
    #: ``delay`` sub-dict maps to DelaySpec kwargs).
    fault_plans: tuple = (None,)
    #: ``None`` = none; otherwise ``{"engine": {...}, "workload": {...}}``
    #: (see :data:`repro.expdb.db.OVERRIDABLE`).
    overrides: tuple = (None,)
    seeds: tuple = (1,)

    def __post_init__(self):
        for name in ("transports",):
            for transport in getattr(self, name):
                if transport not in TRANSPORTS:
                    raise ValueError(
                        f"unknown transport {transport!r}; expected one of "
                        f"{TRANSPORTS}"
                    )
        for algorithm in self.algorithms:
            if algorithm not in ALGORITHMS:
                raise ValueError(
                    f"unknown algorithm {algorithm!r}; expected one of "
                    f"{ALGORITHMS}"
                )
        for spec_field in fields(self):
            if not getattr(self, spec_field.name):
                raise ValueError(f"axis {spec_field.name!r} is empty")

    def size(self) -> int:
        """Number of experiments the expansion yields."""
        count = 1
        for attr, _ in AXES:
            count *= len(getattr(self, attr))
        return count

    def expand(self) -> Iterator[dict]:
        """Every parameter combination, normalized, in axis order."""
        axis_values = [getattr(self, attr) for attr, _ in AXES]
        columns = [column for _, column in AXES]
        for combination in itertools.product(*axis_values):
            yield normalize_params(dict(zip(columns, combination)))

    def to_dict(self) -> dict:
        """JSON-safe spec (inverse of :meth:`from_dict`)."""
        return {attr: list(getattr(self, attr)) for attr, _ in AXES}

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        """Build a spec from JSON; scalars are promoted to one-value axes."""
        unknown = set(data) - {attr for attr, _ in AXES}
        if unknown:
            raise ValueError(f"unknown grid axes: {sorted(unknown)}")
        kwargs = {}
        for attr, _ in AXES:
            if attr not in data:
                continue
            value = data[attr]
            if isinstance(value, (list, tuple)):
                kwargs[attr] = tuple(value)
            else:
                kwargs[attr] = (value,)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "GridSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def parse_axis(text: Optional[str], *, convert=str) -> Optional[tuple]:
    """A CLI axis flag (``"a,b,c"``) as a value tuple (None passthrough).

    ``convert`` parses each item; the literal ``none`` (any case)
    becomes ``None`` so ``--windows none,240`` can mix unbounded and
    windowed points.
    """
    if text is None:
        return None
    values = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        values.append(None if item.lower() == "none" else convert(item))
    if not values:
        raise ValueError(f"axis flag {text!r} names no values")
    return tuple(values)
