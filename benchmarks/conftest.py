"""Shared configuration for the benchmark suite.

Every benchmark asks for one of the paper's tables/figures
(:mod:`repro.bench.figures`) and asserts the *shape* the paper reports
(who wins, roughly by what factor, where crossovers fall) on the means
over seeds 1–5 — never absolute numbers, which depend on scale and
substrate.  One experiment database serves the whole session, so
figures that read the same sweep (E6/E7, E8/E9, E14/E15, the shared
profile point of E2/E10/E11) run it once.

Benchmarks default to the ``smoke`` profile so the whole suite runs in
minutes; set ``REPRO_SCALE=default`` (or ``large`` / ``paper``) to
scale up.
"""

from __future__ import annotations

import pytest

from repro.bench.configs import current_scale
from repro.bench.figures import FIGURES, measure


@pytest.fixture(scope="session")
def scale():
    """The experiment scale for this benchmark session."""
    return current_scale(default="smoke")


@pytest.fixture(scope="session")
def figure_db(tmp_path_factory):
    """The session's experiment database."""
    return str(tmp_path_factory.mktemp("figures") / "figures.sqlite")


@pytest.fixture
def table(benchmark, scale, figure_db):
    """``table("E6")``: that figure's rows (seed means), timed once.

    These are macro-benchmarks of a whole simulated experiment, so a
    single round is representative; repetition would only multiply the
    suite's runtime (and find every row already done).
    """

    def ask(figure_id: str) -> list[dict]:
        return benchmark.pedantic(
            lambda: measure(FIGURES[figure_id], figure_db, scale)[0],
            rounds=1,
            iterations=1,
        )

    return ask
