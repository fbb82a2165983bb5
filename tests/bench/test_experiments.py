"""Smoke tests: every figure fills, drains, extracts and renders.

The *quantitative* shape assertions (who wins, by what factor) live in
``benchmarks/``; here every figure id goes through a temporary
experiment database at a tiny scale, so a refactor cannot silently
break a declaration.
"""

import pytest

from repro.bench.configs import Scale
from repro.bench.figures import FIGURES, algorithm_comparison, measure, trace_canonical_example

TINY = Scale("tiny", n_nodes=24, n_queries=12, n_tuples=40, domain_size=12)


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("figures") / "tiny.sqlite")


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_experiment_runs_and_is_well_formed(name, db_path):
    figure = FIGURES[name]
    assert figure.id == name
    rows, curves, _ = measure(figure, db_path, TINY, seeds=(1, 2))
    assert rows, f"{name} produced no rows"
    assert figure.columns
    for row in rows:
        for column in figure.columns:
            assert row.get(column) is not None, f"{name}: row missing column {column!r}"
    # Rendering must not crash.
    assert name in figure.to_text(rows, curves)
    assert figure.to_markdown(rows).startswith(f"### {name}")
    # The database is the cache: asking again runs nothing, reads the same.
    again, _, executed = measure(figure, db_path, TINY, seeds=(1, 2))
    assert executed == 0 and again == rows


class TestT1Comparison:
    def test_rows_for_all_algorithms(self):
        assert [row["algorithm"] for row in algorithm_comparison()] == [
            "sai",
            "dai-q",
            "dai-t",
            "dai-v",
        ]

    def test_every_algorithm_answers_the_example(self):
        assert all(row["rows_delivered"] == 1 for row in algorithm_comparison())

    def test_rewriter_counts(self):
        by_name = {row["algorithm"]: row for row in algorithm_comparison()}
        assert by_name["sai"]["rewriter_copies"] == 1
        for name in ("dai-q", "dai-t", "dai-v"):
            assert by_name[name]["rewriter_copies"] == 2

    def test_dai_t_reindexes_once(self):
        trace = trace_canonical_example("dai-t", n_nodes=32)
        assert trace["join_msgs_duplicate_trigger"] == 0

    def test_others_reindex_every_trigger(self):
        for algorithm in ("sai", "dai-q", "dai-v"):
            trace = trace_canonical_example(algorithm, n_nodes=32)
            assert trace["join_msgs_duplicate_trigger"] >= 1, algorithm

    def test_value_level_storage_split(self):
        """DAI-T stores queries, not tuples; DAI-Q the reverse."""
        dai_t = trace_canonical_example("dai-t", n_nodes=32)
        assert dai_t["value_level_tuples"] == 0
        assert dai_t["value_level_queries"] > 0
        dai_q = trace_canonical_example("dai-q", n_nodes=32)
        assert dai_q["value_level_queries"] == 0
        assert dai_q["value_level_tuples"] > 0
