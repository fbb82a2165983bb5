"""E6 — Figure 5.6: the replication scheme vs. filtering distribution.

Shape: with k rewriter replicas per attribute-level key, each incoming
tuple loads one replica, so the hottest rewriter's filtering load drops
(roughly by k for the small factors) while total attribute-level
filtering stays in the same ballpark — and the answers are unchanged.

Which factor relieves it most depends on the ring: the replicas of
different hot attributes can hash onto one node and re-concentrate.  At
``default`` scale k=2 halves the hotspot on every seed; on the 64-node
``smoke`` ring k=2 is worse than k=1 on three seeds of five (mean 1,968
-> 2,141), so the shape asserted on the seed means is relief at the
best factor and at k=4 (EXPERIMENTS.md E6).
"""


def test_e6_replication_filtering(table):
    rows = table("E6")
    by_factor = {row["replication"]: row for row in rows}

    # Identical answers at every factor.
    delivered = {row["rows_delivered"] for row in rows}
    assert len(delivered) == 1

    # Replication relieves the hottest rewriter ...
    relieved = min(by_factor[k]["max_rewriter_filtering"] for k in (2, 4, 8))
    assert relieved < by_factor[1]["max_rewriter_filtering"] * 0.9
    # ... and k=4 does not regress above the unreplicated hotspot.
    assert by_factor[4]["max_rewriter_filtering"] < by_factor[1]["max_rewriter_filtering"]

    # Total attribute-level filtering work is not inflated by more than
    # the grouping slack (queries are checked at one replica per tuple).
    assert by_factor[8]["al_filtering_total"] < by_factor[1]["al_filtering_total"] * 1.6
