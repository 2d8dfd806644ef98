"""xmark-serve: load, advise once, build, then serve a skewed request
stream with no indexes and with the advised indexes.

One closed-loop client.  Each request is a statement string drawn by
template frequency from the XMark training and unseen workloads with
re-drawn literals; it is normalized and executed on a database with no
indexes and on one with the advised indexes (alternating which goes
first), and the two results must agree.  The same stream therefore
runs under both configurations, interleaved per request so that both
see the same machine state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from common import (TUNING_METRICS, WRITE_METRICS, Pipeline, instrument_executor,
                    on_both, rank_agreement, report_counts, report_layers,
                    report_phases, statement_read, trace_overhead)
from harness import (Checker, Report, StreamClock, Tracer, counts, delta, ratio,
                     samples_needed)
from statements import StatementStream

from repro import AdvisorParameters, QueryExecutor, xmark_query_workload, xmark_unseen_queries
from repro.telemetry import MetricsRegistry
from repro.xquery import normalize_statement

NAME = "xmark-serve"


@dataclass
class Sizes:
    #: Loads of the text (see ``common.Pipeline``).
    setups: int = 5
    #: ``recommend`` calls and ``create_indexes`` samples on the probe.
    advise_repeats: int = 5
    build_repeats: int = 3
    #: Requests whose registry counts are reported (fixed, so the
    #: counts repeat exactly for a seed).
    count_window: int = 1000
    #: Requests always issued, whatever ``seconds`` says.
    min_requests: int = samples_needed(0.99)
    #: Requests replayed twice traced and twice untraced for the
    #: tracing overhead.
    overhead_requests: int = 200


#: Metrics with no value on this workload, and why.
NOT_APPLICABLE = {
    **{name: "no document writes in this workload" for name in WRITE_METRICS},
    **{name: "no tuning loop in this workload" for name in TUNING_METRICS},
}


def run(inputs: Dict[str, object], seed: int, seconds: float, tracer: Tracer,
        sizes: Sizes = Sizes()):
    report, checker = Report(), Checker()
    training, unseen = xmark_query_workload(), xmark_unseen_queries()
    templates = [s.text for s in list(training) + list(unseen)]
    pipeline = Pipeline(NAME, inputs["collections"], tracer, sizes, training,
                        AdvisorParameters, templates)
    registry = MetricsRegistry()
    plain = QueryExecutor(pipeline.reference.database, registry=MetricsRegistry())
    advised = QueryExecutor(pipeline.system.database, registry=registry)
    instrument_executor(tracer, plain, "plain")
    instrument_executor(tracer, advised, "advised")
    pipeline.build_system(advised)

    sides = (("plain", plain), ("advised", advised))

    # Warm-up: every template once with its written literals, so lazily
    # built value projections are in place before timing.
    tracer.phase = "warmup"
    for parity, text in enumerate(templates):
        on_both(sides, parity, "warm-up", checker, statement_read(tracer, text))

    tracer.phase = "stream"
    stream = StatementStream(
        [(s.text, s.frequency) for s in list(training) + list(unseen)],
        inputs["domains"], random.Random(f"{NAME}:{seed}"))
    latencies: List[float] = []
    totals = {"plain": 0.0, "advised": 0.0}
    replay: List[str] = []
    window_before = counts(registry)
    window = None
    issued = 0
    clock = StreamClock(tracer, seconds)
    while clock.keep_going(len(latencies) < sizes.min_requests):
        tracer.request = issued
        _, text = stream.draw()
        if len(replay) < sizes.overhead_requests:
            replay.append(text)
        times = on_both(sides, issued, f"request {issued}", checker,
                        statement_read(tracer, text))
        issued += 1
        if len(times) == 2 and clock.measuring:
            for side, side_seconds in times.items():
                totals[side] += side_seconds
            latencies.append(times["advised"])
        if issued == sizes.count_window:
            window = delta(window_before, counts(registry))
    tracer.request = None
    if window is None:
        window = delta(window_before, counts(registry))

    pipeline.finish()
    report_phases(report, pipeline.phases)
    report.add("rss_peak_mb", pipeline.rss_mb, "MB")
    report.latency("query", latencies, (("p50", 0.5), ("p99", 0.99)))
    report.add("throughput_ops_s", ratio(len(latencies), totals["advised"]), "1/s",
               count=len(latencies))
    report.add("advised_speedup", ratio(totals["plain"], totals["advised"]), "ratio",
               count=len(latencies))
    if tracer.enabled:
        tracer.phase = "check"
        agreement, compared = rank_agreement(
            tracer, [s.text for s in training], pipeline.system.database, plain,
            advised)
        report_layers(report, tracer, pipeline.phases,
                      pipeline.system.database.statistics.columnar_bytes,
                      NOT_APPLICABLE, "advised")
        report_counts(report, window, pipeline.advise_calls,
                      len(pipeline.recommendation.candidates), NOT_APPLICABLE)
        report.add("optimizer.rank_agreement", agreement, "ratio", count=compared,
                   note="" if agreement is not None else
                   "no training query ran an index plan")
        report.add("telemetry.trace_overhead", trace_overhead(
            tracer, lambda: [advised.execute(normalize_statement(text),
                                             extract_values=True)
                             for text in replay]), "ratio", count=len(replay))
    return report, checker
