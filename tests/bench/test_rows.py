"""The stable row serialization and the digest every executor shares."""

import hashlib
import json

import pytest

from repro.bench.harness import run_standard
from repro.bench.rows import (
    ROW_VERSION,
    delivered_pairs,
    digest_of_pairs,
    exact_columns,
    metric_summary,
    notification_digest,
    traffic_to_row,
)
from repro.bench.configs import Scale
from repro.sim.stats import TrafficSnapshot

TINY = Scale(
    name="rows-tiny",
    n_nodes=16,
    n_queries=10,
    n_tuples=24,
    domain_size=12,
    zipf_s=0.9,
)


def tiny_result():
    return run_standard("dai-t", TINY, seed=5)


class TestTrafficRow:
    def test_round_trip(self):
        snapshot = TrafficSnapshot(
            hops=10,
            messages=4,
            hops_by_type={"probe": 10},
            messages_by_type={"probe": 4},
            messages_dropped=2,
            retries=1,
            messages_delayed=3,
        )
        assert TrafficSnapshot(**traffic_to_row(snapshot)) == snapshot

    def test_row_is_json_safe(self):
        row = traffic_to_row(TrafficSnapshot(1, 1, {"a": 1}, {"a": 1}))
        assert json.loads(json.dumps(row)) == row


class TestRunResultRow:
    def test_to_row_is_json_safe_and_versioned(self):
        row = tiny_result().to_row()
        assert row["row_version"] == ROW_VERSION
        assert row["kind"] == "run"
        assert json.loads(json.dumps(row)) == row

    def test_rows_are_deterministic(self):
        canonical = lambda row: json.dumps(row, sort_keys=True)
        assert canonical(tiny_result().to_row()) == canonical(tiny_result().to_row())


class TestShardResultRow:
    def test_round_trip(self):
        from repro.bench.scale import run_scale_point

        report, _ = run_scale_point("sai", TINY, shards=1, batch_size=8)
        row = report.to_row()
        assert row["kind"] == "shard"
        assert json.loads(json.dumps(row)) == row


class TestNotificationDigest:
    @pytest.mark.parametrize("algorithm", ("sai", "dai-q", "dai-t", "dai-v"))
    def test_both_entry_points_hash_the_stored_canonical_form(self, algorithm):
        """``notification_digest(engine)`` (serial, live) and
        ``digest_of_pairs`` (the sharded merge) must keep producing the
        digests already stored in ``BENCH_baseline.json``."""
        engine = run_standard(algorithm, TINY, seed=5).engine
        assert any(engine.delivered.values())
        canonical = sorted(
            (key, sorted((n.join_value_repr, repr(n.row)) for n in batch))
            for key, batch in engine.delivered.items()
        )
        expected = hashlib.sha1(repr(canonical).encode("utf-8")).hexdigest()
        assert notification_digest(engine) == expected
        pairs = delivered_pairs(engine)
        assert digest_of_pairs(pairs) == expected
        # Neither delivery order nor query order is part of the answer.
        shuffled = {key: pairs[key][::-1] for key in reversed(list(pairs))}
        assert digest_of_pairs(shuffled) == expected


class TestMetricSummary:
    def test_scale_fields_include_evictions(self):
        # What expdb diff and the gate compare, alike.
        exact = exact_columns(tiny_result().to_row())
        assert {"evictions", "install_traffic", "stream_traffic", "load"} <= set(exact)

    def test_summary_totals_combine_install_and_stream(self):
        row = tiny_result().to_row()
        summary = metric_summary(row)
        assert (
            summary["hops"]
            == row["install_traffic"]["hops"] + row["stream_traffic"]["hops"]
        )

    def test_projection_is_idempotent(self):
        first = metric_summary(tiny_result().to_row())
        assert metric_summary(first) == first

    def test_summary_form_rows_pass_through(self):
        # Committed baselines store top-level hops/messages, no
        # traffic snapshots; those values must win over the recompute.
        summary = metric_summary(
            {
                "hops": 42,
                "messages": 7,
                "notifications_delivered": 3,
                "notification_digest": "d" * 40,
            },
            ("hops", "messages", "notification_digest"),
        )
        assert summary == {
            "hops": 42,
            "messages": 7,
            "notification_digest": "d" * 40,
        }
