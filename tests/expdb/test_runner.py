"""Transport dispatch: database rows through the real harnesses.

The determinism assertions here back the database's core promise: the
metric columns are machine-independent, so re-running a row (on any
worker, any day) reproduces byte-identical metrics.
"""

import json

import pytest

from repro.expdb.db import normalize_params
from repro.expdb.runner import (
    engine_overrides,
    fault_plan_from_dict,
    run_experiment,
    scale_for,
)
from repro.faults import DelaySpec

TINY_SIM = {
    "transport": "sim",
    "algorithm": "dai-t",
    "n_nodes": 16,
    "n_queries": 12,
    "n_tuples": 30,
    "domain_size": 12,
    "seed": 3,
}


def params(**overrides):
    return normalize_params({**TINY_SIM, **overrides})


def decoded(**overrides):
    from repro.expdb.db import decode_params

    return decode_params(params(**overrides))


class TestSimTransport:
    def test_metrics_are_byte_identical_across_runs(self):
        first = run_experiment(decoded())
        second = run_experiment(decoded())
        canonical = lambda metrics: json.dumps(metrics, sort_keys=True)
        assert canonical(first.metrics) == canonical(second.metrics)
        assert first.metrics["notifications_delivered"] > 0
        assert first.metrics["kind"] == "run"

    def test_resources_ride_along(self):
        outcome = run_experiment(decoded())
        assert outcome.resources["wall_seconds"] > 0
        assert outcome.resources["peak_rss_kb"] > 0
        assert outcome.resources["events_per_sec"] > 0

    def test_feature_columns_change_the_run(self):
        plain = run_experiment(decoded())
        windowed = run_experiment(decoded(window=5.0, jfrt_capacity=8))
        assert plain.metrics != windowed.metrics

    def test_fault_plan_perturbs_traffic_deterministically(self):
        faulted = decoded(fault_plan={"loss_probability": 0.05})
        first = run_experiment(faulted)
        second = run_experiment(faulted)
        assert first.metrics == second.metrics
        assert first.metrics["stream_traffic"]["messages_dropped"] > 0

    def test_different_seeds_differ(self):
        assert (
            run_experiment(decoded(seed=1)).metrics
            != run_experiment(decoded(seed=2)).metrics
        )


class TestShardTransport:
    def test_shard_run_carries_the_stable_row(self):
        outcome = run_experiment(
            decoded(transport="shard", n_nodes=48, algorithm="sai"), shards=1
        )
        assert outcome.metrics["kind"] == "shard"
        assert outcome.metrics["notifications_delivered"] > 0
        assert outcome.resources["shards"] == 1
        assert outcome.resources["wall_seconds"] > 0

    def test_fault_plans_are_refused(self):
        with pytest.raises(ValueError, match="refuses perturbing fault plans"):
            run_experiment(
                decoded(transport="shard", fault_plan={"loss_probability": 0.1}),
                shards=1,
            )


class TestLiveTransport:
    def test_live_run_reports_answer_set_metrics(self):
        outcome = run_experiment(
            decoded(
                transport="live",
                algorithm="sai",
                n_nodes=5,
                n_queries=6,
                n_tuples=20,
                domain_size=10,
            )
        )
        assert outcome.metrics["kind"] == "live"
        assert outcome.metrics["notifications_delivered"] > 0
        assert len(outcome.metrics["notification_digest"]) == 40
        assert outcome.resources["events_per_sec"] > 0
        assert "latency_ms" in outcome.resources

    def test_fault_plans_are_refused(self):
        with pytest.raises(ValueError, match="live"):
            run_experiment(
                decoded(transport="live", fault_plan={"loss_probability": 0.1})
            )

    def test_windowed_rows_are_refused(self):
        # The pipelined driver loses windowed answers, so such a row
        # could never pass the simulator check a live row ends with.
        with pytest.raises(ValueError, match="refuses windowed rows"):
            run_experiment(decoded(transport="live", window=5.0))


class TestSeedColumn:
    """The ``seed`` column seeds the workload too, on every transport."""

    POINT = dict(algorithm="sai", n_nodes=64, n_queries=40, n_tuples=150, domain_size=60)

    def test_sim_seeds_draw_different_workloads(self):
        delivered = {
            seed: run_experiment(decoded(**self.POINT, seed=seed)).metrics[
                "notifications_delivered"
            ]
            for seed in (1, 2, 3)
        }
        assert len(set(delivered.values())) == 3, delivered

    def test_sim_and_shard_agree_at_the_same_seed(self):
        for seed in (1, 2):
            sim = run_experiment(decoded(**self.POINT, seed=seed)).metrics
            shard = run_experiment(
                decoded(**self.POINT, seed=seed, transport="shard"), shards=1
            ).metrics
            assert (sim["notifications_delivered"], sim["notification_digest"]) == (
                shard["notifications_delivered"],
                shard["notification_digest"],
            )

    def test_a_workload_seed_override_pins_the_draw(self):
        pinned = {"workload": {"seed": 0}}
        answers = {
            run_experiment(decoded(**self.POINT, seed=seed, overrides=pinned)).metrics[
                "notifications_delivered"
            ]
            for seed in (1, 2, 3)
        }
        assert len(answers) == 1  # placement moves with the seed, the draw does not


class TestOverrides:
    def test_engine_overrides_reach_the_engine(self):
        plain = run_experiment(decoded(algorithm="dai-v"))
        keyed = run_experiment(
            decoded(algorithm="dai-v", overrides={"engine": {"daiv_keyed": True}})
        )
        assert plain.metrics["notification_digest"] == keyed.metrics["notification_digest"]
        assert keyed.metrics["stream_traffic"]["hops"] > plain.metrics["stream_traffic"]["hops"]

    def test_workload_overrides_reach_the_generator(self):
        warmed = run_experiment(decoded(overrides={"workload": {"warmup_tuples": 10}}))
        assert warmed.metrics["load"]["fifth"]["events"] == (30 + 10) // 5

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"engine": {"vibes": 1}}, r"overrides.engine cannot set \['vibes'\]"),
            ({"workload": {"n_tuples": 9}}, r"overrides.workload cannot set \['n_tuples'\]"),
            ({"engine": {"window": 5.0}}, r"overrides.engine cannot set \['window'\]"),
            ({"network": {}}, "overrides must map sections"),
        ],
    )
    def test_unknown_keys_are_refused_by_name_at_fill_and_at_run(self, overrides, named):
        with pytest.raises(ValueError, match=named):
            params(overrides=overrides)
        smuggled = decoded()
        smuggled["overrides"] = overrides
        with pytest.raises(ValueError, match=named):
            run_experiment(smuggled)

    def test_a_workload_override_on_a_live_row_is_refused_by_name(self):
        live = dict(transport="live", overrides={"workload": {"bos_ratio": 4.0}})
        with pytest.raises(ValueError, match=r"overrides.workload \['bos_ratio'\] on a 'live' row"):
            params(**live)
        smuggled = decoded(transport="live")
        smuggled["overrides"] = live["overrides"]
        with pytest.raises(ValueError, match="on a 'live' row"):
            run_experiment(smuggled)

    def test_equal_overrides_are_one_identity(self):
        spelled = params(overrides={"workload": {"seed": 0, "bos_ratio": 2.0}, "engine": {}})
        assert spelled["overrides"] == '{"workload":{"bos_ratio":2.0,"seed":0}}'
        assert params(overrides=spelled["overrides"]) == spelled
        assert params(overrides={"engine": {}})["overrides"] == ""


class TestRowsRunBackToBack:
    def test_one_full_collection_before_each_row_none_inside_a_replay(
        self, monkeypatch
    ):
        """``run_experiment`` frees the previous row's ring before its
        timer starts, and the replay stays collector-free through it
        (the ``tests/sim/test_collector.py`` invariant, via the runner)."""
        import repro.bench.scale as scale_module

        from ..sim.test_collector import CollectionProbe

        probe = CollectionProbe()
        run_sharded = scale_module.run_sharded

        def marked(*args, **kwargs):
            probe.generations.append("replay")
            try:
                return run_sharded(*args, **kwargs)
            finally:
                probe.generations.append("end")

        monkeypatch.setattr(scale_module, "run_sharded", marked)
        row = decoded(transport="shard", n_nodes=48, algorithm="dai-t")
        with probe:
            run_experiment(row, shards=1)
            run_experiment(row, shards=1)
        seen = probe.generations
        starts = [i for i, mark in enumerate(seen) if mark == "replay"]
        ends = [i for i, mark in enumerate(seen) if mark == "end"]
        assert len(starts) == len(ends) == 2
        for before, start, end in zip([0, ends[0]], starts, ends):
            assert seen[before:start].count(2) == 1
            assert set(seen[start + 1 : end]) <= {0}
        assert probe.unreachable > 0  # the first row's ring, freed by the second


class TestDispatchHelpers:
    def test_unknown_transport_rejected(self):
        bad = decoded()
        bad["transport"] = "pigeon"
        with pytest.raises(ValueError, match="unknown transport"):
            run_experiment(bad)

    def test_scale_for_maps_workload_columns(self):
        scale = scale_for(decoded())
        assert scale.n_nodes == 16
        assert scale.n_queries == 12
        assert scale.n_tuples == 30
        assert scale.domain_size == 12
        assert scale.zipf_s == 0.9

    def test_engine_overrides_only_lift_non_defaults(self):
        assert engine_overrides(decoded()) == {"index_choice": "random"}
        lifted = engine_overrides(
            decoded(window=240, replication_factor=2, jfrt_capacity=64)
        )
        assert lifted == {
            "index_choice": "random",
            "window": 240.0,
            "replication_factor": 2,
            "jfrt_capacity": 64,
        }

    def test_fault_plan_from_dict_builds_delay_spec(self):
        plan = fault_plan_from_dict(
            {
                "loss_probability": 0.1,
                "delay": {"probability": 0.2, "minimum": 1.0, "maximum": 3.0},
            }
        )
        assert plan.loss_probability == 0.1
        assert plan.delay == DelaySpec(probability=0.2, minimum=1.0, maximum=3.0)

    def test_net_fault_specs_are_live_only(self):
        with pytest.raises(ValueError, match="live-cluster only"):
            fault_plan_from_dict({"net": {"disconnect_rate": 0.1}})
