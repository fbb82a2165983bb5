"""E17 — Section 4.5: the keyed DAI-V traffic blow-up.

Shape: prefixing ``Key(q)`` to the join value destroys query grouping —
every triggered query requires its own routed join message — so traffic
per insertion blows up by a factor that grows with the number of
installed queries (the paper reports ~x250 at 10^5 queries; at this
scale the factor is smaller but clearly super-unity).
"""


def test_e17_daiv_keyed(table):
    rows = table("E17")
    by_variant = {row["variant"]: row for row in rows}

    grouped = by_variant["grouped"]
    keyed = by_variant["keyed"]

    assert keyed["hops_per_tuple"] > grouped["hops_per_tuple"] * 1.5
    assert keyed["join_messages"] > grouped["join_messages"] * 2
    assert keyed["blowup"] > 1.5
