"""Figures as grids: which experiments they ask for, and what they share."""

import pytest

from repro.bench.configs import SCALES, Scale
from repro.bench.figures import FIGURES, measure
from repro.expdb.db import ExperimentDB, normalize_params

TINY = Scale("tiny", n_nodes=24, n_queries=12, n_tuples=40, domain_size=12)


def identities(name: str, scale: Scale = TINY, seeds=(1,)) -> set:
    """The parameter rows one figure fills, as hashable identities."""
    return {
        tuple(normalize_params(params).items())
        for _, params in FIGURES[name].points(scale, seeds)
    }


@pytest.mark.parametrize("first, second", [("E6", "E7"), ("E8", "E9"), ("E14", "E15")])
def test_figure_pairs_read_one_sweep(first, second, tmp_path):
    """E6/E7, E8/E9 and E14/E15 are two readings of the same rows: the
    union of their grids is the larger grid, and the second figure of a
    pair executes nothing."""
    assert identities(second) <= identities(first)
    db_path = str(tmp_path / "pair.sqlite")
    _, _, executed = measure(FIGURES[first], db_path, TINY, seeds=(1,))
    assert executed == len(identities(first))
    rows, _, executed = measure(FIGURES[second], db_path, TINY, seeds=(1,))
    assert executed == 0 and rows
    with ExperimentDB(db_path) as db:
        assert len(db.rows()) == len(identities(first))


def test_neutral_figures_share_the_profile_point():
    """E10, E11 and the JFRT-off half of E2 are the same four rows."""
    assert identities("E11") < identities("E10") < identities("E2")


def test_every_grid_is_valid_at_every_committed_scale():
    for scale in SCALES.values():
        for name, figure in FIGURES.items():
            if figure.grids is not None:
                assert identities(name, scale, seeds=(1, 2)), name


def test_the_mean_is_over_seeds(tmp_path):
    db_path = str(tmp_path / "seeds.sqlite")
    figure = FIGURES["E17"]
    per_seed = [measure(figure, db_path, TINY, seeds=(seed,))[0] for seed in (1, 2, 3)]
    mean, _, executed = measure(figure, db_path, TINY, seeds=(1, 2, 3))
    assert executed == 0
    for position, row in enumerate(mean):
        hops = [rows[position]["hops_per_tuple"] for rows in per_seed]
        assert len(set(hops)) > 1  # the seeds really differ
        assert row["hops_per_tuple"] == pytest.approx(sum(hops) / 3)
    assert mean[1]["blowup"] == pytest.approx(
        mean[1]["hops_per_tuple"] / mean[0]["hops_per_tuple"]
    )


def test_an_unfinished_grid_is_reported_not_averaged(tmp_path):
    db_path = str(tmp_path / "broken.sqlite")
    figure = FIGURES["E17"]
    with ExperimentDB(db_path) as db:
        db.fill(dict(row) for row in identities("E17"))
        claim = db.claim("elsewhere")  # another worker holds one of the two rows
    with pytest.raises(RuntimeError, match=r"E17: 1 of 2 experiments are not done .* 'running'"):
        measure(figure, db_path, TINY, seeds=(1,))
    with ExperimentDB(db_path) as db:
        assert db.get(claim.id)["worker"] == "elsewhere"


def test_every_figure_reads_from_the_committed_history(tmp_path):
    """EXPERIMENTS.md's tables are the `default`-scale, seeds 1-5 rows of
    BENCH_history.json: importing the file is enough to print every
    figure — nothing is left to run."""
    from pathlib import Path

    from repro.expdb.cli import main

    history = Path(__file__).resolve().parents[2] / "BENCH_history.json"
    db_path = str(tmp_path / "history.sqlite")
    assert main(["--db", db_path, "import-json", str(history)]) == 0
    for name, figure in FIGURES.items():
        rows, _, executed = measure(figure, db_path, SCALES["default"])
        assert executed == 0 and rows, name
    e6 = {row["replication"]: row for row in measure(FIGURES["E6"], db_path, SCALES["default"])[0]}
    assert round(e6[1]["max_rewriter_filtering"]) == 21049  # EXPERIMENTS.md E6
    assert round(e6[2]["max_rewriter_filtering"]) == 11047
