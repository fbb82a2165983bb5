"""Tests for the experiment harness and scale profiles."""

import pytest

from repro import EngineConfig
from repro.bench.configs import SCALES, Scale, current_scale
from repro.bench.harness import make_engine, run_standard, run_workload, workload_for
from repro.core.oracle import CentralizedOracle

TINY = Scale("tiny", n_nodes=32, n_queries=20, n_tuples=60, domain_size=20)


class TestScales:
    def test_profiles_exist(self):
        assert {"smoke", "default", "large", "paper"} <= set(SCALES)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"

    def test_unknown_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            current_scale()

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "default"

    def test_scaled_multiplies(self):
        derived = TINY.scaled(nodes=2.0, queries=0.5)
        assert derived.n_nodes == 64
        assert derived.n_queries == 10
        assert derived.n_tuples == TINY.n_tuples

    def test_scaled_floors_at_minimum(self):
        derived = TINY.scaled(queries=0.0)
        assert derived.n_queries == 1


class TestHarness:
    def test_make_engine(self):
        engine = make_engine(TINY)
        assert len(engine.network) == TINY.n_nodes

    def test_workload_for_uses_scale(self):
        workload = workload_for(TINY)
        assert workload.n_queries == TINY.n_queries
        assert workload.n_tuples == TINY.n_tuples

    def test_workload_for_overrides(self):
        workload = workload_for(TINY, n_queries=3, bos_ratio=4.0)
        assert workload.n_queries == 3
        assert workload.params.bos_ratio == 4.0

    def test_run_workload_phases(self):
        engine = make_engine(TINY)
        workload = workload_for(TINY)
        result = run_workload(engine, workload)
        assert len(engine.queries) == TINY.n_queries
        assert result.events == TINY.n_queries + TINY.n_tuples
        assert result.install_traffic.hops > 0
        assert result.stream_traffic.hops > 0
        assert result.install_traffic.messages_by_type["query"] > 0
        assert result.stream_traffic.messages_by_type.get("query", 0) == 0

    def test_run_workload_oracle_agreement(self):
        engine = make_engine(TINY)
        workload = workload_for(TINY)
        oracle = CentralizedOracle(window=engine.config.window)

        def subscribe(origin, query, _real=engine.subscribe):
            bound = _real(origin, query)
            oracle.subscribe(bound)
            return bound

        def publish(origin, relation, values, _real=engine.publish):
            tup = _real(origin, relation, values)
            oracle.insert(tup)
            return tup

        engine.subscribe, engine.publish = subscribe, publish
        run_workload(engine, workload)
        assert len(engine.queries) == TINY.n_queries
        for key in engine.queries:
            assert engine.delivered_rows(key) == oracle.rows_for(key)

    def test_per_tuple_hops_collected(self):
        engine = make_engine(TINY)
        result = run_workload(engine, workload_for(TINY))
        assert len(result.per_tuple_hops) == TINY.n_tuples
        assert all(hops >= 0 for hops in result.per_tuple_hops)

    def test_run_standard_one_call(self):
        result = run_standard("dai-t", TINY, config_overrides={"index_choice": "random"})
        assert result.engine.config.algorithm == "dai-t"
        assert result.notifications_delivered >= 0

    def test_windowed_run_evicts(self):
        workload = workload_for(TINY)
        unbounded = run_standard(
            "sai",
            TINY,
            config_overrides={"index_choice": "random"},
            workload=workload,
        )
        windowed = run_standard(
            "sai",
            TINY,
            config_overrides={"index_choice": "random", "window": 5.0},
            workload=workload,
        )
        # After the final eviction only the last window of value-level
        # state remains — far below the unbounded run's storage.
        assert (
            windowed.load.total_evaluator_storage
            < unbounded.load.total_evaluator_storage / 2
        )

    @pytest.mark.parametrize("every", [0, -5])
    def test_evict_every_below_one_rejected(self, every):
        engine = make_engine(TINY, EngineConfig(window=10.0))
        with pytest.raises(ValueError, match="evict_every"):
            run_workload(engine, workload_for(TINY), evict_every=every)
        assert engine.traffic.hops == 0

    def test_shared_workload_gives_identical_results(self):
        workload = workload_for(TINY)
        first = run_standard("sai", TINY, config_overrides={"index_choice": "random"}, workload=workload)
        second = run_standard("sai", TINY, config_overrides={"index_choice": "random"}, workload=workload)
        assert first.stream_traffic.hops == second.stream_traffic.hops
        assert first.load.total_filtering == second.load.total_filtering
