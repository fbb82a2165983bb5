"""Grid expansion: declarative axes to normalized parameter rows."""

import json

import pytest

from repro.expdb.grid import ALGORITHMS, AXES, GridSpec, parse_axis


class TestGridSpec:
    def test_default_grid_is_one_point_per_algorithm(self):
        grid = GridSpec()
        rows = list(grid.expand())
        assert grid.size() == len(rows) == len(ALGORITHMS)
        assert [row["algorithm"] for row in rows] == list(ALGORITHMS)

    def test_size_matches_expansion(self):
        grid = GridSpec(
            algorithms=("sai", "dai-v"), n_nodes=(16, 32, 64), seeds=(1, 2)
        )
        assert grid.size() == 2 * 3 * 2
        assert len(list(grid.expand())) == grid.size()

    def test_seeds_iterate_innermost(self):
        grid = GridSpec(algorithms=("sai",), n_nodes=(16, 32), seeds=(1, 2))
        rows = list(grid.expand())
        assert [(row["n_nodes"], row["seed"]) for row in rows] == [
            (16, 1),
            (16, 2),
            (32, 1),
            (32, 2),
        ]

    def test_expansion_is_normalized(self):
        row = next(
            GridSpec(windows=(240,), fault_plans=({"loss_probability": 0.1},)).expand()
        )
        assert row["window"] == 240.0
        assert row["fault_plan"] == '{"loss_probability":0.1}'

    def test_expansion_order_is_stable(self):
        grid = GridSpec(algorithms=("dai-t", "sai"), seeds=(3, 1, 2))
        assert list(grid.expand()) == list(grid.expand())

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            GridSpec(transports=("carrier-pigeon",))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            GridSpec(algorithms=("sai", "dai-x"))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GridSpec(seeds=())

    @pytest.mark.parametrize("every", [0, -5])
    def test_evict_every_below_one_rejected(self, every):
        # The staged executor refuses it too; the grid must not expand a
        # ``sim`` row that runs and a ``shard`` row that fails.
        with pytest.raises(ValueError, match="evict_every"):
            GridSpec(transports=("sim", "shard"), evict_everys=(64, every))
        with pytest.raises(ValueError, match="evict_every"):
            GridSpec.from_dict({"evict_everys": every})

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            GridSpec(algorithms=("sai",), windows=(None, -5.0))

    def test_negative_jfrt_capacity_rejected(self):
        with pytest.raises(ValueError, match="jfrt_capacity"):
            GridSpec(algorithms=("sai",), jfrt_capacities=(8, -1))


class TestGridSpecJSON:
    def test_round_trip(self):
        grid = GridSpec(
            transports=("sim", "shard"),
            n_nodes=(16, 64),
            windows=(None, 240.0),
            seeds=(1, 2, 3),
        )
        assert GridSpec.from_dict(grid.to_dict()) == grid

    def test_scalars_promoted_to_axes(self):
        grid = GridSpec.from_dict({"algorithms": "sai", "n_nodes": 32})
        assert grid.algorithms == ("sai",)
        assert grid.n_nodes == (32,)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown grid axes"):
            GridSpec.from_dict({"n_node": [16]})

    def test_from_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"algorithms": ["dai-v"], "seeds": [4, 5]}))
        grid = GridSpec.from_file(str(path))
        assert grid.algorithms == ("dai-v",)
        assert grid.seeds == (4, 5)

    def test_axes_cover_all_dataclass_fields(self):
        from dataclasses import fields

        assert {attr for attr, _ in AXES} == {f.name for f in fields(GridSpec)}


class TestParseAxis:
    def test_none_passthrough(self):
        assert parse_axis(None) is None

    def test_converts_each_item(self):
        assert parse_axis("16, 32,64", convert=int) == (16, 32, 64)

    def test_literal_none_items(self):
        assert parse_axis("none,240", convert=float) == (None, 240.0)

    def test_empty_flag_rejected(self):
        with pytest.raises(ValueError, match="names no values"):
            parse_axis(" , ")
