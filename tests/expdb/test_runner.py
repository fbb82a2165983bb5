"""Transport dispatch: database rows through the real harnesses.

The determinism assertions here back the database's core promise: the
metric columns are machine-independent, so re-running a row (on any
worker, any day) reproduces byte-identical metrics.
"""

import json

import pytest

from repro.bench.harness import make_engine, run_standard, run_workload, workload_for
from repro.bench.rows import exact_columns
from repro.bench.scale import run_scale_point
from repro.core.engine import EngineConfig
from repro.expdb.db import normalize_params
from repro.expdb.runner import (
    engine_overrides,
    fault_plan_from_dict,
    row_workload,
    run_experiment,
    scale_for,
)
from repro.faults import DelaySpec, FaultInjector, NetFaultSpec
from repro.net.cluster import simulate_reference

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


class TestFaultedSimRows:
    """A ``sim`` row with a fault plan is held to its fault-free answers."""

    POINT = dict(n_nodes=64, n_queries=40, n_tuples=200, domain_size=20, seed=1)
    DELAY = {"delay": {"probability": 0.3, "maximum": 2.0}, "seed": 7}
    CHURN = {"crash_every": 40.0, "restart_after": 30.0, "lease_refresh_every": 100.0}

    @pytest.mark.parametrize("algorithm", ["sai", "dai-q", "dai-t", "dai-v"])
    def test_loss_only_plans_equal_the_clean_answers(self, algorithm):
        faulted = decoded(**self.POINT, algorithm=algorithm,
                          fault_plan={"loss_probability": 0.1, "seed": 7})
        clean = decoded(**self.POINT, algorithm=algorithm)
        metrics = run_experiment(faulted).metrics
        assert metrics["stream_traffic"]["messages_dropped"] > 0
        expected = run_experiment(clean).metrics
        assert metrics["notification_digest"] == expected["notification_digest"]

    @pytest.mark.parametrize("algorithm", ["sai", "dai-q", "dai-t", "dai-v"])
    def test_the_delay_probe_equals_its_clean_digest(self, algorithm):
        metrics = run_experiment(
            decoded(**self.POINT, algorithm=algorithm, fault_plan=self.DELAY)
        ).metrics
        assert metrics["stream_traffic"]["messages_delayed"] > 0
        assert metrics["notifications_delivered"] == 5240

    def test_dai_v_does_not_raise_under_the_delay_probe(self):
        # The installs land before the stream, so DAI-V projects every
        # tuple for every query it will meet.
        row = decoded(**self.POINT, algorithm="dai-v", fault_plan=self.DELAY)
        injector = FaultInjector(fault_plan_from_dict(self.DELAY))
        engine = make_engine(
            scale_for(row),
            EngineConfig("dai-v", seed=row["seed"], **engine_overrides(row)),
            injector=injector,
        )
        report = run_workload(engine, row_workload(row), seed=row["seed"])
        assert injector.pending_deliveries == 0
        assert report.notifications_delivered == 5240

    @pytest.mark.parametrize("algorithm", ["sai", "dai-q", "dai-t", "dai-v"])
    def test_a_crash_row_really_crashes_and_recovers(self, algorithm):
        churned = run_experiment(decoded(
            **self.POINT, algorithm=algorithm, fault_plan={**self.CHURN, "seed": 3}
        )).metrics
        clean = run_experiment(decoded(**self.POINT, algorithm=algorithm)).metrics
        assert churned["stream_traffic"] != clean["stream_traffic"]
        assert churned["notification_digest"] == clean["notification_digest"]
        assert churned["duplicate_deliveries"] == 0

    def test_churn_under_loss_and_delay_recovers_the_clean_digest(self):
        plan = {**self.CHURN, **self.DELAY, "loss_probability": 0.05}
        metrics = run_experiment(decoded(**self.POINT, algorithm="dai-t", fault_plan=plan)).metrics
        assert metrics["stream_traffic"]["messages_dropped"] > 0
        assert metrics["notifications_delivered"] == 5240

    # Wider delays leave the clock the install quiesce reached (5.8 on
    # DAI-T plan seed 3) past the stream's first publishes, which then
    # share one publish time; DAI-Q/DAI-T lose a pair of them (5238 or
    # 5239 of 5240; nothing held, no duplicate).  ROADMAP item 2.
    @pytest.mark.xfail(strict=True, raises=RuntimeError, reason="publishes sharing one time lose pairs")
    @pytest.mark.parametrize("algorithm, plan_seed", [("dai-t", 3), ("dai-q", 7)])
    def test_wide_delays_keep_every_answer(self, algorithm, plan_seed):
        plan = {"delay": {"probability": 0.5, "minimum": 0.5, "maximum": 6.0}, "seed": plan_seed}
        run_experiment(decoded(**self.POINT, algorithm=algorithm, fault_plan=plan))


class TestOneRowShape:
    """One parameter tuple, three transports, one row shape."""

    POINT = dict(n_nodes=16, n_queries=12, n_tuples=40, domain_size=12, seed=2)

    @pytest.mark.parametrize("algorithm", ["sai", "dai-q", "dai-t", "dai-v"])
    def test_sim_shard_and_live_rows_share_keys_and_sim_equals_shard(self, algorithm):
        rows = {
            transport: run_experiment(
                decoded(**self.POINT, algorithm=algorithm, transport=transport), shards=1
            ).metrics
            for transport in ("sim", "shard", "live")
        }
        assert set(rows["sim"]) == set(rows["shard"]) == set(rows["live"])
        sim, shard = (exact_columns(rows[name]) for name in ("sim", "shard"))
        # The per-tuple hop series is the serial replay's alone.
        del sim["load"]["fifth"]
        assert sim == shard
        for counter in ("suppressed_renotifications", "duplicate_deliveries", "events"):
            assert rows["sim"][counter] == rows["shard"][counter]
        assert (rows["sim"]["shard"], rows["sim"]["live"]) == (None, None)
        assert rows["live"]["notification_digest"] == sim["notification_digest"]


    def test_warm_up_tuples_replay_in_one_order_on_every_transport(self):
        """Warm-up tuples come before the queries; every driver publishes
        them there, so the live row passes its simulator check and all
        three rows give one answer set."""
        point = dict(
            algorithm="dai-t", n_nodes=6, n_queries=10, n_tuples=40, domain_size=12,
            seed=1, overrides={"workload": {"warmup_tuples": 8}},
        )
        rows = {
            transport: run_experiment(decoded(**point, transport=transport), shards=1)
            for transport in ("sim", "shard", "live")
        }
        answers = {
            transport: (
                outcome.metrics["notification_digest"],
                outcome.metrics["notifications_delivered"],
            )
            for transport, outcome in rows.items()
        }
        assert len(set(answers.values())) == 1, answers
        assert answers["sim"][1] > 0
        for phase in ("install_traffic", "stream_traffic"):
            assert rows["live"].metrics[phase]["messages_by_type"]["al-index"] > 0


class TestShardTransport:
    def test_shard_run_carries_the_stable_row(self):
        outcome = run_experiment(
            decoded(transport="shard", n_nodes=48, algorithm="sai"), shards=1
        )
        assert outcome.metrics["kind"] == "shard"
        assert outcome.metrics["notifications_delivered"] > 0
        assert outcome.metrics["shard"]["shards"] == 1
        assert outcome.resources["wall_seconds"] > 0
        assert outcome.resources["peak_rss_kb"] > 0
        assert outcome.resources["events_per_sec"] > 0

    def test_fault_plans_are_refused(self):
        refusal = "the shard transport cannot carry fault plan field 'loss_probability'"
        with pytest.raises(ValueError, match=refusal):
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
        # The overlay traffic the socket transport counted, split at the
        # post-install drain as on a sim row.
        for phase in ("install_traffic", "stream_traffic"):
            traffic = outcome.metrics[phase]
            assert traffic["hops"] > 0 and traffic["messages"] > 0
        assert outcome.metrics["install_traffic"]["messages_by_type"]["query"] > 0
        assert outcome.resources["events_per_sec"] > 0
        assert "latency_ms" in outcome.metrics["live"]

    def test_fault_plans_are_refused(self):
        refusal = "the live transport cannot carry fault plan field 'loss_probability'"
        with pytest.raises(ValueError, match=refusal):
            run_experiment(
                decoded(transport="live", fault_plan={"loss_probability": 0.1})
            )

    def test_a_plan_the_wire_carries_is_refused_as_a_row(self):
        # A chaos soak's counters follow event-loop timing: the row
        # would not repeat.
        with pytest.raises(ValueError, match="faulted live row does not repeat"):
            run_experiment(decoded(transport="live", fault_plan={"crash_every": 5.0}))

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

    def test_a_hand_called_seed_draws_the_workload_too(self):
        """``run_standard`` and ``run_scale_point`` take ``seed`` as a row
        takes its column: it reaches the workload, so seeds 2 and 3
        differ, and a ``sim`` row is the hand call at the row's seed."""
        row = decoded(**self.POINT, seed=2)
        scale, config = scale_for(row), engine_overrides(row)
        by_hand = {
            seed: run_standard(
                "sai",
                scale,
                config_overrides=config,
                seed=seed,
                evict_every=row["evict_every"],
            ).to_row()
            for seed in (2, 3)
        }
        assert by_hand[2]["notification_digest"] != by_hand[3]["notification_digest"]
        assert run_experiment(row).metrics == by_hand[2]
        point, _ = run_scale_point("sai", scale, seed=3, config_overrides=config)
        assert point.notification_digest == by_hand[3]["notification_digest"]


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

    def test_a_workload_override_on_a_live_row_reaches_the_live_run(self):
        """A ``live`` row draws its workload as a ``sim`` row does,
        ``overrides.workload`` included, and equals the simulator on it."""
        point = dict(transport="live", algorithm="dai-q", n_nodes=5, n_queries=6,
                     n_tuples=24, domain_size=10)
        row = decoded(**point, overrides={"workload": {"bos_ratio": 4.0}})
        outcome = run_experiment(row)
        workload = workload_for(scale_for(row), seed=row["seed"], bos_ratio=4.0)
        assert (
            outcome.metrics["notification_digest"],
            outcome.metrics["notifications_delivered"],
        ) == simulate_reference(workload, algorithm="dai-q", n_nodes=5, seed=row["seed"])
        plain = run_experiment(decoded(**point)).metrics
        assert plain["notification_digest"] != outcome.metrics["notification_digest"]

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
            assert seen[start + 1 : end] == []
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
        plan = {"net": {"frame_fault_probability": 0.1}}
        assert fault_plan_from_dict(plan).net == NetFaultSpec(frame_fault_probability=0.1)
        refusal = "the sim transport cannot carry fault plan field 'net.frame_fault_probability'"
        with pytest.raises(ValueError, match=refusal):
            run_experiment(decoded(transport="sim", fault_plan=plan))
