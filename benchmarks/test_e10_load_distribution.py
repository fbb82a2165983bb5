"""E10 — Figure 5.10: TF/TS load distribution, all four algorithms.

Shape: SAI does the least total filtering work (one rewriter per
query); DAI-V concentrates work on the fewest nodes (value-only
evaluator identifiers ignore the attribute mix), so its participation
is the lowest of the four.
"""


def test_e10_load_distribution(table):
    rows = table("E10")
    by_algorithm = {row["algorithm"]: row for row in rows}
    assert set(by_algorithm) == {"sai", "dai-q", "dai-t", "dai-v"}

    # Every algorithm did real work.
    for row in rows:
        assert row["TF"] > 0
        assert row["TS"] > 0
        assert 0.0 <= row["filtering_gini"] < 1.0

    # SAI triggers each query at one rewriter: least total filtering.
    sai_tf = by_algorithm["sai"]["TF"]
    for name in ("dai-q", "dai-t", "dai-v"):
        assert sai_tf < by_algorithm[name]["TF"]

    # DAI-V involves the fewest nodes.
    daiv_participation = by_algorithm["dai-v"]["participation"]
    for name in ("sai", "dai-q", "dai-t"):
        assert daiv_participation < by_algorithm[name]["participation"]

    # DAI-Q evaluators store only tuples: by far the smallest TS.
    daiq_ts = by_algorithm["dai-q"]["TS"]
    for name in ("sai", "dai-t"):
        assert daiq_ts < by_algorithm[name]["TS"]
