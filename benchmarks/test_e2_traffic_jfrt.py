"""E2 — Figure 5.2: per-insertion traffic and the JFRT effect.

Paper shape: the JFRT cuts the reindexing traffic of every algorithm
(rewriters learn their evaluators and deliver join messages in one
hop), and DAI-V is the cheapest algorithm overall because its
value-only identifiers group rewritten queries most aggressively.
"""


def test_e2_traffic_jfrt(table):
    rows = table("E2")
    by_key = {(row["algorithm"], row["jfrt"]): row for row in rows}

    for algorithm in ("sai", "dai-q", "dai-t", "dai-v"):
        off = by_key[(algorithm, "off")]
        on = by_key[(algorithm, "on")]
        # The cache strictly reduces total stream traffic.
        assert on["total_hops"] < off["total_hops"], algorithm
        # And the effect is visible late in the stream (warm cache).
        assert on["late_hops"] < off["late_hops"], algorithm

    # DAI-V generates the least traffic per insertion (strongest
    # grouping); compare against the two-level algorithms without JFRT.
    daiv = by_key[("dai-v", "off")]["hops_per_tuple"]
    for algorithm in ("sai", "dai-q", "dai-t"):
        assert daiv < by_key[(algorithm, "off")]["hops_per_tuple"]
