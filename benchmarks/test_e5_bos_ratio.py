"""E5 — Figure 5.5 (reconstructed): effect of the bos ratio.

Shape: as the balance-of-streams ratio grows, SAI with the min-rate
choice indexes queries under the slow relation, so its per-insertion
traffic *drops*; the DAI algorithms index both sides and cannot exploit
the imbalance, so their traffic stays roughly flat.
"""


def test_e5_bos_ratio(table):
    rows = table("E5")
    ratios = sorted({row["bos_ratio"] for row in rows})
    assert len(ratios) >= 3

    def series(algorithm):
        data = [row for row in rows if row["algorithm"] == algorithm]
        data.sort(key=lambda row: row["bos_ratio"])
        return [row["hops_per_tuple"] for row in data]

    sai = series("sai")
    # SAI's traffic falls monotonically (with slack) as imbalance grows.
    assert sai[-1] < sai[0] * 0.8

    # DAI-Q cannot exploit the imbalance: its relative drop is smaller.
    dai_q = series("dai-q")
    sai_drop = sai[-1] / sai[0]
    dai_q_drop = dai_q[-1] / dai_q[0]
    assert sai_drop < dai_q_drop

    # At high imbalance SAI undercuts DAI-Q.
    assert sai[-1] < dai_q[-1]
