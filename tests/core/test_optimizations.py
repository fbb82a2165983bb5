"""Integration tests for JFRT and the replication scheme.

The invariants: optimizations never change the delivered answer sets;
JFRT only reduces hops; replication spreads attribute-level filtering
load while multiplying attribute-level storage.
"""

import pytest

from repro.bench.configs import Scale
from repro.bench.harness import run_standard, workload_for

SMOKE = Scale("test", n_nodes=64, n_queries=60, n_tuples=160, domain_size=40)


@pytest.fixture(scope="module")
def shared_workload():
    return workload_for(SMOKE)


class TestJFRTIntegration:
    @pytest.mark.parametrize("algorithm", ["sai", "dai-q", "dai-t", "dai-v"])
    def test_same_answers_fewer_hops(self, algorithm, shared_workload):
        baseline = run_standard(
            algorithm,
            SMOKE,
            config_overrides={"index_choice": "random"},
            workload=shared_workload,
        )
        cached = run_standard(
            algorithm,
            SMOKE,
            config_overrides={"index_choice": "random", "jfrt_capacity": 4096},
            workload=shared_workload,
        )
        baseline_rows = {
            key: baseline.engine.delivered_rows(key)
            for key in baseline.engine.delivered
        }
        cached_rows = {
            key: cached.engine.delivered_rows(key) for key in cached.engine.delivered
        }
        assert baseline_rows == cached_rows
        assert cached.stream_traffic.hops < baseline.stream_traffic.hops

    def test_cache_hits_accumulate(self, shared_workload):
        result = run_standard(
            "sai",
            SMOKE,
            config_overrides={"index_choice": "random", "jfrt_capacity": 4096},
            workload=shared_workload,
        )
        hits = sum(
            state.jfrt.hits
            for node in result.engine.network
            if (state := result.engine.state(node)).jfrt is not None
        )
        assert hits > 0

    def test_join_hops_drop_with_cache(self, shared_workload):
        baseline = run_standard(
            "sai",
            SMOKE,
            config_overrides={"index_choice": "random"},
            workload=shared_workload,
        )
        cached = run_standard(
            "sai",
            SMOKE,
            config_overrides={"index_choice": "random", "jfrt_capacity": 4096},
            workload=shared_workload,
        )
        assert (
            cached.stream_traffic.hops_by_type.get("join", 0)
            < baseline.stream_traffic.hops_by_type.get("join", 0)
        )


class TestReplicationIntegration:
    @pytest.mark.parametrize("factor", [2, 4])
    def test_same_answers(self, factor, shared_workload):
        baseline = run_standard(
            "sai",
            SMOKE,
            config_overrides={"index_choice": "random"},
            workload=shared_workload,
        )
        replicated = run_standard(
            "sai",
            SMOKE,
            config_overrides={"index_choice": "random", "replication_factor": factor},
            workload=shared_workload,
        )
        for key in baseline.engine.delivered:
            assert baseline.engine.delivered_rows(key) == replicated.engine.delivered_rows(
                key
            )

    def test_hottest_rewriter_relieved(self, shared_workload):
        baseline = run_standard(
            "sai",
            SMOKE,
            config_overrides={"index_choice": "random"},
            workload=shared_workload,
        )
        replicated = run_standard(
            "sai",
            SMOKE,
            config_overrides={"index_choice": "random", "replication_factor": 4},
            workload=shared_workload,
        )
        baseline_max = max(baseline.load.attribute_level_filtering.values())
        replicated_max = max(replicated.load.attribute_level_filtering.values())
        assert replicated_max < baseline_max

    def test_attribute_storage_multiplied(self, shared_workload):
        baseline = run_standard(
            "sai",
            SMOKE,
            config_overrides={"index_choice": "random"},
            workload=shared_workload,
        )
        replicated = run_standard(
            "sai",
            SMOKE,
            config_overrides={"index_choice": "random", "replication_factor": 4},
            workload=shared_workload,
        )
        baseline_storage = sum(baseline.load.attribute_level_storage.values())
        replicated_storage = sum(replicated.load.attribute_level_storage.values())
        assert replicated_storage == 4 * baseline_storage
