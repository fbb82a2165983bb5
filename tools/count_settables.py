"""Count the settable values of the live and fault configuration.

A settable value is an ``__init__`` field of one of the configuration
records a live or faulted run is built from (``FaultPlan``,
``NetFaultSpec``, ``ClusterConfig``, ``NetConfig``, ``EngineConfig``),
or a key that ``python -m repro.net.cluster --chaos`` accepts.  Prints
the count per record and the total.

Usage::

    PYTHONPATH=src python tools/count_settables.py
"""

from __future__ import annotations

import dataclasses

from repro.core.engine import EngineConfig
from repro.faults.plan import FaultPlan, NetFaultSpec
from repro.net.chaos import _SPEC_KEYS
from repro.net.cluster import ClusterConfig
from repro.net.peer import NetConfig

RECORDS = (FaultPlan, NetFaultSpec, ClusterConfig, NetConfig, EngineConfig)


def count_settables() -> dict[str, int]:
    """Settable values by record (and ``--chaos``), plus ``total``."""
    counts = {
        record.__name__: sum(field.init for field in dataclasses.fields(record))
        for record in RECORDS
    }
    counts["--chaos"] = len(_SPEC_KEYS)
    counts["total"] = sum(counts.values())
    return counts


if __name__ == "__main__":
    print(count_settables())
