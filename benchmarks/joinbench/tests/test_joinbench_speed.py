"""Reference-speed arithmetic: the kernel gauge and what it divides."""

import pytest

from joinbench import bench, spec
from joinbench.drivers import AlgRun
from joinbench.speed import REFERENCE_S, read_kernel, slowdown


def test_slowdown_is_the_trimmed_kernel_time_over_the_reference():
    assert slowdown([REFERENCE_S] * 12) == pytest.approx(1.0)
    assert slowdown([2 * REFERENCE_S] * 12) == pytest.approx(2.0)
    # One stall among twelve readings is trimmed away.
    assert slowdown([REFERENCE_S] * 11 + [1.0]) == pytest.approx(1.0)
    readings = read_kernel(3)
    assert len(readings) == 3 and all(reading > 0 for reading in readings)


def test_the_publish_schedule_of_an_open_loop_is_not_rescaled():
    closed = AlgRun("sai", install_s=0.2, stream_s=1.0, settle_s=0.8, slowdown=2.0)
    assert closed.reference_wall_s == pytest.approx(1.0)
    paced = AlgRun(
        "sai", install_s=0.2, stream_s=1.0, settle_s=0.8, paced_s=0.5, slowdown=2.0
    )
    assert paced.reference_wall_s == pytest.approx(0.5 + 1.5 / 2.0)


def test_answer_latencies_weigh_every_publish_once():
    run = AlgRun(
        "sai",
        # Publish 2.0 is a hot key with three notifications, 1.0 has one.
        latencies=[0.030, 0.010, 0.020, 0.001],
        latency_publish=[2.0, 2.0, 2.0, 1.0],
    )
    assert run.answer_latencies() == [0.001, 0.020]


def runs_of_a_round(factor):
    """Four runs that took ``factor`` times the undisturbed time while
    the kernel, too, ran ``factor`` times slower."""
    return [
        AlgRun(
            algorithm,
            gen_s=0.01 * factor,
            install_s=0.1 * factor,
            stream_s=0.4 * factor,
            publish_s=[0.002 * factor, 0.004 * factor, 0.006 * factor],
            slowdown=factor,
        )
        for algorithm in spec.ALGORITHMS
    ]


def test_a_uniformly_slower_round_reads_the_same_at_reference_speed():
    workload = spec.WORKLOAD_BY_NAME["sim_fanout"]
    size = spec.Size(n_nodes=8, n_queries=4, n_tuples=3, domain_size=10)
    samples = bench.round_samples(
        workload, size, [runs_of_a_round(1.0), runs_of_a_round(1.7)]
    )
    for name, expected in (
        ("setup_s", 0.04),
        ("events_per_s", 12 / 2.0),
        ("latency_p50_ms", 4.0),
    ):
        assert samples[name] == pytest.approx([expected, expected])
    values = bench.end_to_end(size, [runs_of_a_round(1.0)], samples, rss_mb=50.0)
    assert values["events_per_s"] == pytest.approx(6.0)
    assert values["latency_p50_ms"] == pytest.approx(4.0)
