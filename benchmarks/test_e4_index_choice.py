"""E4 — Figure 5.4: index-attribute selection strategies in SAI.

Paper shape: on imbalanced streams the min-rate strategy (index each
query under the relation with the lowest tuple-arrival rate) generates
the least rewriting traffic; the adversarial max-rate choice is the
worst; random sits in between.
"""


def test_e4_index_choice(table):
    rows = table("E4")
    by_strategy = {row["strategy"]: row for row in rows}

    min_rate = by_strategy["min-rate"]["stream_hops"]
    max_rate = by_strategy["max-rate"]["stream_hops"]
    random_choice = by_strategy["random"]["stream_hops"]

    # The ordering of Figure 5.4: the informed min-rate choice beats
    # both baselines.  (random vs. max-rate is not compared: once
    # query grouping saturates, a randomly split query population can
    # trigger its groups from both streams and edge past max-rate.)
    assert min_rate < max_rate
    assert min_rate <= random_choice

    # The informed strategies pay real probe traffic; random does not.
    assert by_strategy["min-rate"]["probe_hops"] > 0
    assert by_strategy["random"]["probe_hops"] == 0

    # The win is substantial on an 8:1 imbalanced stream.
    assert min_rate < max_rate * 0.75
