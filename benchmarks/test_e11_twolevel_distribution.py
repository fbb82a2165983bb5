"""E11 — Figure 5.11: per-level load split, two-level algorithms.

Shape: the DAI algorithms index every query twice, so their
attribute-level filtering is about twice SAI's; at the value level
DAI-Q stores only tuples (small) while DAI-T stores both sides'
rewritten queries (largest).
"""


def test_e11_twolevel_distribution(table):
    rows = table("E11")
    by_algorithm = {row["algorithm"]: row for row in rows}

    sai = by_algorithm["sai"]
    dai_q = by_algorithm["dai-q"]
    dai_t = by_algorithm["dai-t"]

    # Double indexing: DAI attribute-level filtering ~ 2x SAI's.
    assert dai_q["al_filtering"] > 1.6 * sai["al_filtering"]
    assert dai_t["al_filtering"] > 1.6 * sai["al_filtering"]
    # Both DAI variants index identical query copies.
    assert dai_q["al_filtering"] == dai_t["al_filtering"]
    assert dai_q["al_storage"] == dai_t["al_storage"] == 2 * sai["al_storage"]

    # Value-level storage ordering: DAI-Q (tuples only) < SAI (tuples +
    # one-side rewritten) < DAI-T (both sides' rewritten queries).
    assert dai_q["vl_storage"] < sai["vl_storage"] < dai_t["vl_storage"]
