"""T1 — Table 4.1: a comparison of all algorithms.

Regenerates the paper's qualitative comparison table and checks its
measured columns: one rewriter for SAI vs. two for the DAI family;
DAI-T never reindexes the same rewritten query twice; the storage split
at evaluators matches each algorithm's definition; and every algorithm
answers the canonical example exactly once.
"""


def test_t1_comparison(table):
    rows = table("T1")
    by_algorithm = {row["algorithm"]: row for row in rows}

    assert by_algorithm["sai"]["rewriter_copies"] == 1
    for name in ("dai-q", "dai-t", "dai-v"):
        assert by_algorithm[name]["rewriter_copies"] == 2

    # DAI-T's signature optimization: no join message on the duplicate.
    assert by_algorithm["dai-t"]["join_msgs_duplicate_trigger"] == 0
    for name in ("sai", "dai-q", "dai-v"):
        assert by_algorithm[name]["join_msgs_duplicate_trigger"] >= 1

    # Evaluator storage split per Table 4.1.
    assert by_algorithm["dai-t"]["value_level_tuples"] == 0
    assert by_algorithm["dai-q"]["value_level_queries"] == 0
    assert by_algorithm["sai"]["value_level_tuples"] > 0
    assert by_algorithm["sai"]["value_level_queries"] > 0

    # All four deliver exactly the one expected row.
    assert all(row["rows_delivered"] == 1 for row in rows)
