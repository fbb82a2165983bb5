"""``python -m repro.expdb diff``: every row against its ``sim`` sibling.

The may-differ table (:data:`repro.bench.rows.MAY_DIFFER`) is the only
licence a sibling has to differ, so each entry is pinned here: it has a
reason, and taking it out fails the diff at the point where it was
measured.  The live entries are explained by measurement at the
baseline live point (16 nodes, 30 queries, 400 tuples, domain 40, zipf
0.9, seed 1; DESIGN.md §16).
"""

from __future__ import annotations

import pytest

from repro.bench.rows import MAY_DIFFER, sibling_differences
from repro.chord.routing import Router
from repro.core.dai_t import DAITuple
from repro.expdb import gate
from repro.expdb.cli import main
from repro.expdb.db import TRANSPORTS, decode_params, normalize_params
from repro.expdb.gate import DIFF_BATCH, diff_rows
from repro.expdb.grid import ALGORITHMS, GridSpec
from repro.expdb.runner import run_experiment
from repro.sim.shard import fork_available

LIVE_POINT = dict(n_nodes=16, n_queries=30, n_tuples=400, domain_size=40, zipf_s=0.9)
SHARD_POINT = dict(n_nodes=64, n_queries=80, n_tuples=200, domain_size=60, zipf_s=0.9)


def row(transport: str, algorithm: str, point: dict) -> dict:
    return decode_params(
        normalize_params(dict(point, transport=transport, algorithm=algorithm, seed=1))
    )


def metrics(transport: str, algorithm: str, point: dict, shards=None) -> dict:
    return run_experiment(row(transport, algorithm, point), shards=shards).metrics


SWEEP = Router._multisend_recursive


def sweep_source_first(self, source, messages, idents):
    """:meth:`Router._multisend_recursive` as the live source runs it:
    every pair the source owns is delivered there, before the sweep."""
    targets = [None] * len(idents)
    rest = []
    for index, (message, ident) in enumerate(zip(messages, idents)):
        if source.owns(ident):
            self.stats.record_batch(message.type, 1, 0)
            targets[index] = self._deliver(message, source)
        else:
            rest.append(index)
    swept = SWEEP(
        self, source, [messages[i] for i in rest], [idents[i] for i in rest]
    )
    for index, target in zip(rest, swept):
        targets[index] = target
    return targets


@pytest.fixture(scope="module")
def live_point() -> dict:
    """``algorithm -> {"sim", "live", "source-first"}`` metrics at the
    baseline live point; "source-first" is the simulator with the live
    source's delivery rule."""
    measured = {
        algorithm: {
            "sim": metrics("sim", algorithm, LIVE_POINT),
            "live": metrics("live", algorithm, LIVE_POINT),
        }
        for algorithm in ALGORITHMS
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Router, "_multisend_recursive", sweep_source_first)
        for algorithm in ALGORITHMS:
            measured[algorithm]["source-first"] = metrics("sim", algorithm, LIVE_POINT)
    return measured


@pytest.fixture(scope="module")
def shard_point() -> dict:
    """The ``shard`` rows of the pinned point, forked where possible."""
    shards = 4 if fork_available() else 1
    return {
        "sim": metrics("sim", "sai", SHARD_POINT),
        "shard": metrics("shard", "sai", SHARD_POINT, shards=shards),
    }


def pinned(key: tuple, live_point: dict, shard_point: dict) -> list[tuple]:
    """``(params, sim metrics, metrics)`` at an entry's pinned point."""
    transport, algorithm = key
    if transport == "shard":
        return [(row("shard", "sai", SHARD_POINT), shard_point["sim"], shard_point["shard"])]
    return [
        (row("live", name, LIVE_POINT), runs["sim"], runs["live"])
        for name, runs in live_point.items()
        if algorithm in (None, name)
    ]


class TestTable:
    def test_every_entry_has_a_reason(self):
        for (transport, algorithm), entries in MAY_DIFFER.items():
            assert transport in TRANSPORTS and transport != "sim"
            assert algorithm is None or algorithm in ALGORITHMS
            for path, reason in entries.items():
                assert path and reason.strip(), (transport, path)

    def test_the_pinned_points_pass(self, live_point, shard_point):
        for key in MAY_DIFFER:
            for params, sim, got in pinned(key, live_point, shard_point):
                assert sibling_differences(sim, got, params) == [], params

    @pytest.mark.parametrize(
        "key, path",
        [(key, path) for key, entries in MAY_DIFFER.items() for path in entries],
        ids=lambda value: value if isinstance(value, str) else "/".join(map(str, value)),
    )
    def test_removing_an_entry_fails_the_diff(
        self, key, path, live_point, shard_point, monkeypatch
    ):
        if key[0] == "shard" and path == "exchange_records" and not fork_available():
            pytest.skip("records only cross between forked shards")
        trimmed = {name: why for name, why in MAY_DIFFER[key].items() if name != path}
        monkeypatch.setitem(MAY_DIFFER, key, trimmed)
        found = {
            column
            for params, sim, got in pinned(key, live_point, shard_point)
            for column, _, _ in sibling_differences(sim, got, params)
        }
        assert found and all(c == path or c.startswith(path + ".") for c in found)


class TestLiveGaps:
    """Each live gap, measured and explained (DESIGN.md §16)."""

    def test_answers_and_storage_agree(self, live_point):
        for runs in live_point.values():
            sim, live = runs["sim"], runs["live"]
            for column in ("notification_digest", "notifications_delivered"):
                assert sim[column] == live[column]
            assert sim["load"]["TS"] == live["load"]["TS"]
            assert sim["load"]["al_filtering"] == live["load"]["al_filtering"]

    def test_measured_gaps(self, live_point):
        def gap(column):
            return {
                name: tuple(column(runs[side]) for side in ("sim", "live"))
                for name, runs in live_point.items()
            }

        assert gap(lambda m: m["install_traffic"]["hops"]) == {
            "sai": (70, 70), "dai-q": (113, 108), "dai-t": (113, 108), "dai-v": (113, 108),
        }
        assert gap(lambda m: m["stream_traffic"]["hops"]) == {
            "sai": (14990, 13544), "dai-q": (16786, 15335),
            "dai-t": (13946, 13082), "dai-v": (9194, 9072),
        }
        assert gap(lambda m: m["stream_traffic"]["messages_by_type"]["notification"]) == {
            "sai": (3655, 3649), "dai-q": (3679, 3780),
            "dai-t": (3424, 3699), "dai-v": (3424, 3429),
        }
        assert gap(lambda m: m["load"]["TF"]) == {
            "sai": (21538, 21538), "dai-q": (37830, 37830),
            "dai-t": (28680, 28680), "dai-v": (30899, 30930),
        }

    def test_sweep_hops_are_the_source_delivery_rule(self, live_point, monkeypatch):
        """Run with the live source's rule, the simulator's sweeps cost
        exactly the live hops — every hop outside the notifications —
        but for DAI-T's 2: its rewriters send a rewritten query once,
        with the first tuple that reaches them, so the arrival order
        there decides which sweep carries it.  Without that memory the
        two agree on DAI-T too."""

        def swept(metrics, phase):
            traffic = metrics[phase]
            return traffic["hops"] - traffic["hops_by_type"].get("notification", 0)

        residue = {
            name: [
                swept(runs["live"], phase) - swept(runs["source-first"], phase)
                for phase in ("install_traffic", "stream_traffic")
            ]
            for name, runs in live_point.items()
        }
        assert residue == {"sai": [0, 0], "dai-q": [0, 0], "dai-t": [0, 2], "dai-v": [0, 0]}
        for runs in live_point.values():
            assert swept(runs["sim"], "stream_traffic") > swept(runs["live"], "stream_traffic")
        assert live_point["sai"]["sim"]["install_traffic"]["hops_by_type"] == {"query": 70}
        assert live_point["dai-q"]["live"]["install_traffic"]["hops_by_type"] == {
            "multisend": 108, "query": 0,
        }

        monkeypatch.setattr(DAITuple, "remembers_sent_keys", lambda self, engine: False)
        live = metrics("live", "dai-t", LIVE_POINT)
        monkeypatch.setattr(Router, "_multisend_recursive", sweep_source_first)
        sim = metrics("sim", "dai-t", LIVE_POINT)
        assert swept(sim, "stream_traffic") == swept(live, "stream_traffic")

    def test_notification_gap_is_answer_order(self, live_point):
        """Same answers, grouped into other messages; what the live
        pre-hop filter lets through (answers still in flight) the
        subscriber drops, so the two drops sum to the simulator's."""
        for runs in live_point.values():
            sim, live = runs["sim"], runs["live"]
            assert sim["duplicate_deliveries"] == 0
            assert sim["suppressed_renotifications"] == (
                live["suppressed_renotifications"] + live["duplicate_deliveries"]
            )
        assert live_point["dai-t"]["live"]["duplicate_deliveries"] == 43

    def test_dai_v_filtering_gap_is_value_level(self, live_point):
        sim, live = live_point["dai-v"]["sim"]["load"], live_point["dai-v"]["live"]["load"]
        assert live["TF"] - sim["TF"] == live["vl_filtering"] - sim["vl_filtering"] == 31
        assert sum(sim["filtering"]) == sim["TF"] and sum(live["filtering"]) == live["TF"]


class TestDiffRows:
    def test_one_sim_run_per_identity(self, monkeypatch):
        calls = []

        def counting(params, *, shards=None, batch_size):
            calls.append((params["transport"], params["algorithm"], shards))
            assert batch_size == DIFF_BATCH
            return run_experiment(params, shards=shards, batch_size=batch_size)

        monkeypatch.setattr(gate, "run_experiment", counting)
        grid = GridSpec(
            transports=("shard", "sim"), algorithms=("sai", "dai-q"), n_nodes=(24,),
            n_queries=(8,), n_tuples=(20,), domain_sizes=(10,),
        )
        verdicts = list(diff_rows(grid.expand()))
        assert [problems for _, problems in verdicts] == [[]] * len(calls)
        sims = [call for call in calls if call[0] == "sim"]
        assert sims == [("sim", "sai", None), ("sim", "dai-q", None)]
        assert calls[0][0] == "sim"  # the sibling runs before the rows held to it
        shards = [call[2] for call in calls if call[0] == "shard"]
        assert shards == ([1, 4] * 2 if fork_available() else [1] * 2)

    def test_a_diverging_row_fails_the_command(self, monkeypatch, capsys):
        def tampered(params, **staging):
            outcome = run_experiment(params, **staging)
            if params["transport"] == "shard":
                outcome.metrics["stream_traffic"]["hops"] += 1
            return outcome

        monkeypatch.setattr(gate, "run_experiment", tampered)
        code = main(
            ["diff", "--transports", "sim,shard", "--algorithms", "sai",
             "--nodes", "24", "--queries", "8", "--tuples", "20", "--domains", "10"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines()[:2] == [
            "ok   sim/sai n=24 seed=1", "FAIL shard/sai n=24 seed=1 shards=1",
        ]
        assert (
            "DIFF FAIL: shard/sai n=24 seed=1 shards=1: stream_traffic.hops "
            "differs from sim"
        ) in captured.err

    def test_a_refused_row_fails_without_hiding_the_rest(self):
        plan = {"loss_probability": 0.1, "seed": 2}
        grid = GridSpec(
            transports=("sim", "shard"), algorithms=("dai-t",), n_nodes=(24,),
            n_queries=(8,), n_tuples=(20,), domain_sizes=(10,), fault_plans=(plan,),
        )
        verdicts = list(diff_rows(grid.expand()))
        assert verdicts[0] == ("sim/dai-t n=24 seed=1", [])
        failed = [(label, problems) for label, problems in verdicts if problems]
        assert failed and all(label.startswith("shard/dai-t") for label, _ in failed)
        assert "refuses perturbing fault plans" in failed[0][1][0]

    def test_a_failed_sim_sibling_ends_its_group(self, monkeypatch):
        def failing(params, **staging):
            if params["transport"] == "sim":
                raise RuntimeError("no sibling")
            return run_experiment(params, **staging)

        monkeypatch.setattr(gate, "run_experiment", failing)
        grid = GridSpec(
            transports=("sim", "shard"), algorithms=("sai",), n_nodes=(24,),
            n_queries=(8,), n_tuples=(20,), domain_sizes=(10,),
        )
        ((label, problems),) = diff_rows(grid.expand())
        assert label == "sim/sai n=24 seed=1" and "no sibling" in problems[0]

    def test_labels_name_what_tells_groups_apart(self):
        grid = GridSpec(
            transports=("sim",), algorithms=("sai",), n_nodes=(24,), n_queries=(8,),
            n_tuples=(20,), domain_sizes=(10,), windows=(None, 5.0), jfrt_capacities=(0, 8),
        )
        labels = [label for label, _ in diff_rows(grid.expand())]
        assert len(set(labels)) == len(labels) == 4
        assert "sim/sai n=24 seed=1 window=5.0 jfrt_capacity=8" in labels
