"""xmark-drift: XMark traffic served through the online tuning loop.

One closed-loop client.  Traffic alternates between the XMark training
and unseen workloads every ``PHASE_ROUNDS`` rounds; queries are
normalized once up front, so no statement parsing is timed.  Each round
executes every query of the current workload, in an order the seed
shuffles, on the tuned database (whose executor feeds the controller's
monitor) and on a reference with no indexes (alternating which goes
first); results must agree.  After every round the monitor ticks and
``run_cycle()`` runs.  The
policy has the online-tuning experiment's shape: decay 0.5, prune
floor 0.02, cluster cap 32, a 96 KiB disk budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from common import (WRITE_METRICS, Pipeline, instrument_advisor, instrument_executor,
                    on_both, rank_agreement, report_counts, report_layers,
                    report_phases, trace_overhead)
from harness import (Checker, Report, StreamClock, Tracer, counts, delta, instrument,
                     median, ratio, result_key, samples_needed)

from repro import (AdvisorParameters, QueryExecutor, TuningController, TuningPolicy,
                   xmark_query_workload, xmark_unseen_queries)
from repro.telemetry import MetricsRegistry
from repro.xquery import normalize_workload

NAME = "xmark-drift"
DECAY = 0.5
PRUNE_FRACTION = 0.02
CLUSTER_CAP = 32
DISK_BUDGET_BYTES = 96 * 1024.0
#: Rounds of one workload before traffic switches to the other.
PHASE_ROUNDS = 3
#: Cycle outcomes that count as failed operations.
FAILED_ACTIONS = ("aborted", "rolled-back")


@dataclass
class Sizes:
    #: Loads of the text (see ``common.Pipeline``).
    setups: int = 9
    #: ``recommend`` calls and ``create_indexes`` samples on the probe.
    advise_repeats: int = 7
    build_repeats: int = 15
    #: Rounds whose registry counts, cycle outcomes and total ``run_cycle``
    #: time (``tune_total_s``) are reported: fixed work, so the counts
    #: repeat exactly for a seed.
    count_rounds: int = 30
    min_queries: int = samples_needed(0.99)
    min_migrations: int = samples_needed(0.5)
    #: Rounds of the training workload replayed for the tracing overhead.
    overhead_rounds: int = 10


#: Metrics with no value on this workload, and why.
NOT_APPLICABLE = {
    **{name: "no document writes in this workload" for name in WRITE_METRICS},
    "xquery.normalize_us": "queries are normalized once before the stream",
}


def policy() -> TuningPolicy:
    return TuningPolicy(disk_budget_bytes=DISK_BUDGET_BYTES, decay=DECAY,
                        min_weight_fraction=PRUNE_FRACTION, cluster_cap=CLUSTER_CAP)


def parameters() -> AdvisorParameters:
    return AdvisorParameters(disk_budget_bytes=DISK_BUDGET_BYTES)


def run(inputs: Dict[str, object], seed: int, seconds: float, tracer: Tracer,
        sizes: Sizes = Sizes()):
    report, checker = Report(), Checker()
    training = normalize_workload(xmark_query_workload())
    unseen = normalize_workload(xmark_unseen_queries())
    pipeline = Pipeline(NAME, inputs["collections"], tracer, sizes, training,
                        parameters, training + unseen)
    registry = MetricsRegistry()
    tuned = QueryExecutor(pipeline.system.database, registry=registry)
    reference = QueryExecutor(pipeline.reference.database, registry=MetricsRegistry())
    controller = TuningController(pipeline.system.database, executor=tuned,
                                  policy=policy(), registry=MetricsRegistry())
    instrument_executor(tracer, tuned, "tuned")
    instrument_executor(tracer, reference, "reference")
    instrument_advisor(tracer, controller.advisor)
    instrument(tracer, controller.monitor, "record", "tuning.record")
    instrument(tracer, controller.monitor, "snapshot", "tuning.snapshot")
    for method, span_name in (("advise", "tuning.advise"),
                              ("plan_migration", "tuning.plan"),
                              ("apply", "tuning.apply")):
        instrument(tracer, controller, method, span_name)

    sides = (("reference", reference), ("tuned", tuned))

    def execute(query) -> Callable[[str, QueryExecutor], object]:
        """An :func:`on_both` call that executes a normalized query."""
        return lambda side, executor: result_key(
            executor.execute(query, extract_values=True))

    # Warm-up with the monitor detached, so it captures no traffic.
    tracer.phase = "warmup"
    tuned.attach_monitor(None)
    for parity, query in enumerate(training + unseen):
        on_both(sides, parity, f"warm-up {query.query_id}", checker, execute(query))
    tuned.attach_monitor(controller.monitor)

    tracer.phase = "stream"
    rng = random.Random(f"{NAME}:{seed}")
    latencies: List[float] = []
    cycles: List[float] = []
    migrations: List[float] = []
    actions: List[str] = []
    totals = {"reference": 0.0, "tuned": 0.0}
    window_before = counts(registry)
    window = None
    rounds = issued = 0
    clock = StreamClock(tracer, seconds)
    while clock.keep_going(len(latencies) < sizes.min_queries
                           or len(migrations) < sizes.min_migrations
                           or rounds < sizes.count_rounds):
        queries = list(training if (rounds // PHASE_ROUNDS) % 2 == 0
                       else unseen)
        rng.shuffle(queries)
        for query in queries:
            tracer.request = issued
            times = on_both(sides, issued, f"round {rounds} {query.query_id}",
                            checker, execute(query))
            issued += 1
            if len(times) == 2 and clock.measuring:
                for side, side_seconds in times.items():
                    totals[side] += side_seconds
                latencies.append(times["tuned"])
        tracer.request = None
        controller.monitor.tick()
        with tracer.span("tuning.run_cycle") as timer:
            event = controller.run_cycle()
        actions.append(event.action)
        if event.action in FAILED_ACTIONS:
            checker.fail(f"cycle {event.cycle}", f"{event.action}: {event.error}")
        else:
            checker.passed()
        if clock.measuring:
            cycles.append(timer.seconds)
            if event.action == "migrated":
                migrations.append(timer.seconds)
        rounds += 1
        if rounds == sizes.count_rounds:
            window = delta(window_before, counts(registry))
    if window is None:
        window = delta(window_before, counts(registry))
    window_actions = actions[:sizes.count_rounds]

    pipeline.finish()
    report_phases(report, pipeline.phases)
    report.add("rss_peak_mb", pipeline.rss_mb, "MB")
    report.latency("query", latencies, (("p50", 0.5), ("p99", 0.99)))
    report.add("throughput_ops_s",
               ratio(len(latencies), totals["tuned"] + sum(cycles)), "1/s",
               count=len(latencies))
    report.add("advised_speedup", ratio(totals["reference"], totals["tuned"]),
               "ratio", count=len(latencies))
    report.latency("migrate", migrations, (("p50", 0.5),))
    report.add("tune_total_s", sum(cycles[:sizes.count_rounds]), "s",
               count=len(cycles[:sizes.count_rounds]))
    if tracer.enabled:
        agreement, compared = rank_agreement(
            tracer, training + unseen, pipeline.system.database, reference, tuned)
        report_layers(report, tracer, pipeline.phases,
                      pipeline.system.database.statistics.columnar_bytes,
                      NOT_APPLICABLE, "tuned")
        report_counts(report, window, pipeline.advise_calls,
                      len(pipeline.recommendation.candidates), NOT_APPLICABLE)
        report.add("optimizer.rank_agreement", agreement, "ratio", count=compared,
                   note="" if agreement is not None else
                   "no query ran an index plan under the final configuration")
        record = tracer.durations("tuning.record", phase="stream")
        report.add("tuning.record_us", median(record) * 1e6 if record else None, "us",
                   count=len(record), note="" if record else "no samples")
        for name in ("snapshot", "advise", "plan", "apply"):
            spans = tracer.durations(f"tuning.{name}", phase="stream")
            report.add(f"tuning.{name}_ms", median(spans) * 1e3 if spans else None,
                       "ms", count=len(spans), note="" if spans else "no samples")
        report.add("tuning.migrations", window_actions.count("migrated"), "count",
                   count=len(window_actions), deterministic=True)
        report.add("tuning.idle_cycles", window_actions.count("idle"), "count",
                   count=len(window_actions), deterministic=True)
        replay = training * sizes.overhead_rounds
        report.add("telemetry.trace_overhead", trace_overhead(
            tracer, lambda: [tuned.execute(query, extract_values=True)
                             for query in replay]), "ratio", count=len(replay))
    return report, checker
