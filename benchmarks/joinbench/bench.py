"""Rounds, correctness checks and the metric arithmetic.

A *round* replays one seeded workload through all four algorithms, each
with a fresh ring and engine.  A run warms up with one smoke-sized round
(which on the simulators is also checked row-for-row against
``CentralizedOracle``), then repeats full-size rounds until the measuring
time is used up.  Every timed end-to-end metric is the median over the
rounds of that round's value at reference speed (``speed.py``: the box
this runs on changes speed by the minute), phase walls are medians over
the rounds as measured, and counted metrics must, on the simulators,
repeat exactly in every round.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Optional

from repro.bench.scale import peak_rss_kb
from repro.core.oracle import CentralizedOracle
from repro.net.cluster import simulate_reference
from repro.workload import generator

from .drivers import RUNNERS, AlgRun, workload_params
from .spec import ALGORITHMS, SPANS, Size, Workload
from .speed import read_kernel, slowdown
from .stats import highest_supported_percentile, median, percentile
from .trace import Tracer, group_self_s, install_repro_spans

clock = time.perf_counter

Round = list  # of AlgRun, one per algorithm in ALGORITHMS order

#: Share of ``--seconds`` a traced run spends on its untraced rounds.
UNTRACED_SHARE = 0.4


def run_round(
    workload: Workload, size: Size, seed: int, *, keep_inputs: bool = False
) -> Round:
    runner = RUNNERS[workload.executor]
    runs = []
    readings = read_kernel()
    for algorithm in ALGORITHMS:
        # The previous ring and engine are cyclic garbage; reclaim them
        # outside the timed regions so no round pays for its predecessor.
        gc.collect()
        runs.append(runner(workload, size, algorithm, seed, keep_inputs=keep_inputs))
        readings += read_kernel()
    round_slowdown = slowdown(readings)
    for run in runs:
        run.slowdown = round_slowdown
    return runs


def run_rounds(workload: Workload, size: Size, seed: int, seconds: float) -> list[Round]:
    """Full rounds until ``seconds`` are used (always at least one; a
    round is started only if at least half of it is expected to fit)."""
    rounds: list[Round] = []
    started = clock()
    while True:
        round_started = clock()
        rounds.append(run_round(workload, size, seed))
        now = clock()
        if (now - started) + (now - round_started) / 2 > seconds:
            return rounds


# ----------------------------------------------------------------------
# Correctness and failure accounting
# ----------------------------------------------------------------------
@dataclass
class Verdict:
    """Outcome of the checks: what the result's ``correct`` /
    ``attempted`` / ``failed`` are made from."""

    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Notification digest of the full-size workload (all four
    #: algorithms agree on it when ``problems`` is empty).
    digest: str = ""

    @property
    def correct(self) -> bool:
        return not self.problems


def failure_counts(
    run: AlgRun, size: Size, expected_notifications: int, *, live: bool
) -> tuple[int, int]:
    """``(attempted, failed)`` of one algorithm's run.

    Attempted = subscribe calls + publish calls + notifications that
    should have arrived.  Failed = calls that raised + quiesce timeouts
    and delivery failures the drains absorbed (shed frames are among
    them) + missing notifications + — on the simulators — duplicate
    deliveries.  On the live cluster pipelined DAI-Q/DAI-T publishes can
    both find each other, the mirror image of the probe race the settle
    pass closes; the subscriber-side filter drops the second arrival
    before any listener sees it, so there it is reported as wasted work
    (``core.engine.duplicates``), not as a failed operation.  An
    open-loop run that did not sustain its rate fails every sample.
    """
    attempted = size.n_queries + size.n_tuples + expected_notifications
    if run.unsustainable:
        return attempted, attempted
    missing = max(0, expected_notifications - run.notifications)
    failed = run.raised + run.delivery_failures + missing
    if not live:
        failed += run.duplicates
    return attempted, min(failed, attempted)


def check_oracle(workload: Workload, runs: Round) -> list[str]:
    """Row-for-row comparison of a (smoke-sized) simulator round with
    the centralized nested-loop oracle."""
    reference = runs[0]
    oracle = CentralizedOracle(window=workload.engine.get("window"))
    for query in reference.queries:
        oracle.subscribe(query)
    for tup in reference.tuples:
        oracle.insert(tup)
    problems = []
    for run in runs:
        wrong = [
            key
            for key in oracle.rows
            if run.delivered_rows.get(key, set()) != oracle.rows_for(key)
        ]
        if wrong:
            problems.append(
                f"{workload.name}/{run.algorithm}: {len(wrong)} of "
                f"{len(oracle.rows)} queries differ from CentralizedOracle "
                f"(first: {wrong[0]})"
            )
    return problems


def check_rounds(
    workload: Workload, size: Size, seed: int, rounds: list[Round]
) -> Verdict:
    """Cross-algorithm digests, live = simulator, failed operations, and
    (on the simulators) bit-for-bit repetition of every counted metric."""
    verdict = Verdict()
    first = rounds[0]
    verdict.digest = first[0].digest
    live = workload.executor == "live"
    references: dict[str, tuple[str, int]] = {}
    if live:
        inputs = generator.build_workload(workload_params(workload, size, seed))
        for algorithm in ALGORITHMS:
            references[algorithm] = simulate_reference(
                inputs, algorithm=algorithm, n_nodes=size.n_nodes, seed=seed
            )
    for index, runs in enumerate(rounds):
        label = f"{workload.name} round {index}"
        if len({run.digest for run in runs}) != 1:
            verdict.problems.append(
                f"{label}: algorithms disagree on the notification digest: "
                + ", ".join(f"{run.algorithm}={run.digest[:10]}" for run in runs)
            )
        agreed = max(run.notifications for run in runs)
        for run, baseline in zip(runs, first):
            expected = agreed
            if live:
                digest, expected = references[run.algorithm]
                if run.digest != digest:
                    verdict.problems.append(
                        f"{label}/{run.algorithm}: live digest {run.digest[:10]} "
                        f"!= simulator {digest[:10]}"
                    )
            elif exact_counts(run) != exact_counts(baseline):
                verdict.problems.append(
                    f"{label}/{run.algorithm}: counted metrics differ from "
                    f"round 0 — the simulator is not deterministic"
                )
            attempted, failed = failure_counts(run, size, expected, live=live)
            verdict.attempted += attempted
            verdict.failed += failed
    if verdict.failed:
        verdict.problems.append(
            f"{workload.name}: {verdict.failed} of {verdict.attempted} operations failed"
        )
    return verdict


def exact_counts(run: AlgRun) -> tuple:
    """The counters that must repeat bit-for-bit for a seed on the
    simulators."""
    return (
        run.digest,
        run.hops,
        run.messages,
        sorted(run.hops_by_type.items()),
        run.notifications,
        run.suppressed,
        run.evictions,
        run.rewriter_candidates,
        run.evaluator_candidates,
        run.storage_items,
        run.tf_max_over_mean,
    )


# ----------------------------------------------------------------------
# Metric arithmetic
# ----------------------------------------------------------------------
def _round_sum(runs: Round, attribute: str) -> float:
    return sum(getattr(run, attribute) for run in runs)


def _median_over_rounds(rounds: list[Round], attribute: str) -> float:
    return median([_round_sum(runs, attribute) for runs in rounds])


def _pooled(rounds: list[Round], attribute: str) -> list[float]:
    return [
        sample for runs in rounds for run in runs for sample in getattr(run, attribute)
    ]


def event_latencies(workload: Workload, run: AlgRun) -> list[float]:
    """What one run contributes to ``latency_p50_ms``, one value per event.

    Serial simulator: the ``engine.publish`` call, which returns once the
    tuple is indexed and every notification it causes has been delivered
    — the request latency of the closed loop's only client (every
    publish counts, answered or not).  Staged and live: publish (due
    instant in the open loop) to subscriber-side delivery, one value per
    answered publish.
    """
    return run.publish_s if workload.executor == "serial" else run.answer_latencies()


def round_samples(
    workload: Workload, size: Size, rounds: list[Round]
) -> dict[str, list[float]]:
    """Per-round values of the timed end-to-end metrics, at reference
    speed.  Their medians are the reported metrics; ``compare`` takes a
    run's own spread from them."""
    events = len(ALGORITHMS) * size.n_tuples
    return {
        "setup_s": [
            sum(run.at_reference_speed(run.setup_s) for run in runs) for runs in rounds
        ],
        "events_per_s": [
            events / sum(run.reference_wall_s for run in runs) for runs in rounds
        ],
        # A mean of per-algorithm medians: the algorithms' latencies form
        # separate clusters, and a median of the pooled samples would sit
        # in the gap between two of them and jump with the seed.
        "latency_p50_ms": [
            mean(
                run.at_reference_speed(median(event_latencies(workload, run)))
                for run in runs
            )
            * 1e3
            for runs in rounds
        ],
    }


def end_to_end(
    size: Size, rounds: list[Round], samples: dict, rss_mb: float
) -> dict[str, float]:
    events = len(ALGORITHMS) * size.n_tuples
    # Counted metrics are equal in every round on the simulators; on live
    # DAI-Q/DAI-T race recoveries move them a little, hence the median.
    return {
        "setup_s": median(samples["setup_s"]),
        "events_per_s": median(samples["events_per_s"]),
        "latency_p50_ms": median(samples["latency_p50_ms"]),
        "peak_rss_mb": rss_mb,
        "hops_per_event": _median_over_rounds(rounds, "hops") / events,
        "storage_items": _median_over_rounds(rounds, "storage_items"),
    }


def untraced_layers(size: Size, rounds: list[Round], verdict: Verdict) -> dict[str, float]:
    """Per-layer metrics that need no tracer: phase timings (medians
    over rounds) and counters read from public state."""
    events = len(ALGORITHMS) * size.n_tuples
    values: dict[str, float] = {}
    for name, attribute in (
        ("bench.gen_s", "gen_s"),
        ("bench.build_s", "build_s"),
        ("net.cluster.start_s", "start_s"),
        ("bench.install_s", "install_s"),
        ("bench.stream_s", "stream_s"),
        ("bench.settle_s", "settle_s"),
        ("bench.drain_s", "drain_s"),
    ):
        values[name] = _median_over_rounds(rounds, attribute)
    wall = _median_over_rounds(rounds, "wall_s")
    values["bench.settle_share"] = values["bench.settle_s"] / wall if wall else 0.0
    for index, algorithm in enumerate(ALGORITHMS):
        values[f"bench.alg.{algorithm}.wall_s"] = median(
            [runs[index].wall_s for runs in rounds]
        )
    publishes = _pooled(rounds, "publish_s")
    values["bench.publish_p50_ms"] = percentile(publishes, 0.5) * 1e3
    values["bench.publish_p99_ms"] = percentile(publishes, 0.99) * 1e3
    latencies = _pooled(rounds, "latencies")
    values["loadgen.late_p99_ms"] = percentile(_pooled(rounds, "lateness"), 0.99) * 1e3
    values["loadgen.latency_p95_ms"] = percentile(latencies, 0.95) * 1e3
    values["loadgen.latency_p99_ms"] = percentile(latencies, 0.99) * 1e3
    values["loadgen.latency_samples"] = len(latencies)
    top = highest_supported_percentile(len(latencies))
    values["loadgen.latency_top_pct"] = top * 100 if top else 0.0
    values["loadgen.latency_top_ms"] = percentile(latencies, top) * 1e3 if top else 0.0

    for name, attribute in (
        ("chord.routing.hops", "hops"),
        ("chord.routing.messages", "messages"),
        ("core.rewriter.candidates", "rewriter_candidates"),
        ("core.evaluator.candidates", "evaluator_candidates"),
        ("core.tables.al_items", "al_items"),
        ("core.tables.vl_items", "vl_items"),
        ("core.tables.evictions", "evictions"),
        ("core.engine.notifications", "notifications"),
        ("core.engine.suppressed", "suppressed"),
        ("core.engine.duplicates", "duplicates"),
        ("net.peer.frames_sent", "frames_sent"),
        ("net.peer.bytes_sent", "bytes_sent"),
        ("net.peer.batches_sent", "batches_sent"),
        ("net.peer.frames_shed", "frames_shed"),
        ("net.settle.recovered", "recovered"),
    ):
        values[name] = _median_over_rounds(rounds, attribute)
    for kind in ("al-index", "vl-index", "join", "notification", "query"):
        values[f"chord.routing.hops.{kind}"] = median(
            [sum(run.hops_by_type.get(kind, 0) for run in runs) for runs in rounds]
        )
    created = _median_over_rounds(rounds, "notifications_created")
    examined = values["core.evaluator.candidates"]
    values["core.evaluator.match_share"] = created / examined if examined else 0.0
    batches = values["net.peer.batches_sent"]
    values["net.peer.frames_per_batch"] = (
        values["net.peer.frames_sent"] / batches if batches else 0.0
    )
    values["net.peer.peak_in_flight"] = max(
        run.peak_in_flight for runs in rounds for run in runs
    )
    values["tf_max_over_mean"] = median(
        [max(run.tf_max_over_mean for run in runs) for runs in rounds]
    )
    values["wire_bytes_per_event"] = values["net.peer.bytes_sent"] / events
    values["failed_share"] = (
        verdict.failed / verdict.attempted if verdict.attempted else 0.0
    )
    return values


def traced_layers(
    tracer: Tracer,
    traced_rounds: list[Round],
    untraced_rounds: list[Round],
) -> dict[str, float]:
    """Per-layer metrics of the traced rounds, per round."""
    n = len(traced_rounds)
    summary = tracer.summary()
    values: dict[str, float] = {}
    for span, _ in SPANS:
        entry = summary.get(span, {"calls": 0, "self_s": 0.0, "items": 0})
        values[f"{span}.calls"] = entry["calls"] / n
        values[f"{span}.self_s"] = entry["self_s"] / n
    values["net.codec.encode.bytes"] = summary["net.codec.encode"]["items"] / n
    rewrites = summary["sql.query.rewrite"]["calls"]
    shipped = summary["core.algorithm.on_join"]["items"]
    values["core.rewriter.useful_share"] = shipped / rewrites if rewrites else 0.0
    peeks = summary["net.frames.peek"]["calls"]
    decodes = summary["net.codec.decode"]["calls"]
    values["net.peer.relay_share"] = peeks / (peeks + decodes) if peeks + decodes else 0.0
    for group, self_s in group_self_s(summary).items():
        values[f"trace.group.{group}.self_s"] = self_s / n

    # Ring build and cluster start run outside every span, so coverage is
    # judged on the wall the spans can cover: generation + install..settle.
    def round_wall(runs: Round) -> float:
        return _round_sum(runs, "gen_s") + _round_sum(runs, "wall_s")

    traced_wall = sum(round_wall(runs) for runs in traced_rounds)
    covered = tracer.total_self_s()
    values["net.loop.untraced_s"] = max(0.0, traced_wall - covered) / n
    values["trace.covered_share"] = covered / traced_wall if traced_wall else 0.0
    # The two sets of rounds ran at different times, so each wall is
    # taken at reference speed before they are compared.
    def reference_wall(runs: Round) -> float:
        return sum(
            run.at_reference_speed(run.gen_s) + run.reference_wall_s for run in runs
        )

    untraced_wall = median([reference_wall(runs) for runs in untraced_rounds])
    values["trace.overhead_ratio"] = (
        median([reference_wall(runs) for runs in traced_rounds]) / untraced_wall
        if untraced_wall
        else 0.0
    )
    return values


# ----------------------------------------------------------------------
# One workload, start to finish
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    workload: str
    seed: int
    size: Size
    rounds: int
    verdict: Verdict
    end_to_end: dict
    samples: dict
    #: Median slowdown of the untraced runs (``speed.py``).
    slowdown: float
    #: ``None`` unless the run was traced.
    per_layer: Optional[dict] = None
    traced_rounds: int = 0
    spans_written: int = 0


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    spans_out: Optional[str] = None,
) -> Outcome:
    """Warm up, measure, (trace,) check — one workload in this process."""
    size = workload.smoke if smoke else workload.full
    simulator = workload.executor != "live"

    warmup = run_round(workload, workload.smoke, seed, keep_inputs=simulator)
    gc.collect()

    budget = seconds * UNTRACED_SHARE if trace else seconds
    rounds = run_rounds(workload, size, seed, budget)
    rss_mb = peak_rss_kb() / 1024

    tracer = None
    traced: list[Round] = []
    if trace:
        tracer = Tracer()
        install_repro_spans(tracer)
        try:
            traced = run_rounds(workload, size, seed, seconds - budget)
        finally:
            tracer.restore()

    verdict = check_rounds(workload, size, seed, rounds + traced)
    warm_verdict = check_rounds(workload, workload.smoke, seed, [warmup])
    verdict.problems.extend(f"warm-up: {problem}" for problem in warm_verdict.problems)
    if simulator:
        verdict.problems.extend(check_oracle(workload, warmup))

    samples = round_samples(workload, size, rounds)
    outcome = Outcome(
        workload=workload.name,
        seed=seed,
        size=size,
        rounds=len(rounds),
        verdict=verdict,
        end_to_end=end_to_end(size, rounds, samples, rss_mb),
        samples=samples,
        slowdown=median([run.slowdown for runs in rounds for run in runs]),
    )
    if tracer is not None:
        outcome.per_layer = {
            "bench.slowdown": outcome.slowdown,
            **untraced_layers(size, rounds, verdict),
            **traced_layers(tracer, traced, rounds),
        }
        outcome.traced_rounds = len(traced)
        if spans_out:
            outcome.spans_written = tracer.write_spans(spans_out)
    return outcome
