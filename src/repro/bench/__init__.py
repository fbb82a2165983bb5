"""Experiment harness: scales, workload replay, result rows and their
rendering.  The paper's figures are declared in
:mod:`repro.bench.figures` (imported by name: it builds on
:mod:`repro.expdb`, which builds on this package)."""

from .configs import SCALES, Scale, current_scale
from .harness import (
    RunResult,
    make_engine,
    run_standard,
    run_workload,
    workload_for,
)
from .report import render_table

__all__ = [
    "RunResult",
    "SCALES",
    "Scale",
    "current_scale",
    "make_engine",
    "render_table",
    "run_standard",
    "run_workload",
    "workload_for",
]
