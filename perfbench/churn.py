"""tpox-churn: TPoX reads interleaved with order-document writes.

One closed-loop client.  70 % of operations are reads drawn from the
ten TPoX read templates with re-drawn literals; 30 % are writes on the
``order`` collection, half adding an order document taken (as text)
from a pool generated with a different seed, half removing a random
order document.  Reads and writes follow a fixed pattern in which every
write is followed by a read, so every run has the same mix of reads
that pay the catch-up and reads that do not.  Every operation runs on the database with the advised
indexes and on a twin with no indexes (alternating which goes first);
reads must agree.  The first read after a write pays the executor's
lazy index catch-up and is reported separately.  After the stream a
fresh database rebuilt from the surviving texts must answer every read
the stream issued exactly as the maintained database does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from common import (TUNING_METRICS, Pipeline, instrument_executor, load, on_both,
                    rank_agreement, report_counts, report_layers, report_phases,
                    statement_read, trace_overhead)
from harness import (Checker, Report, StreamClock, Tracer, counts, delta, ratio,
                     result_key, samples_needed)
from statements import Deck, StatementStream

from repro import AdvisorParameters, QueryExecutor, tpox_workload
from repro.telemetry import MetricsRegistry
from repro.workloads.tpox import tpox_query_workload
from repro.xquery import normalize_statement

NAME = "tpox-churn"
COLLECTIONS = ("order", "security", "custacc")
#: Update share of the workload the advisor tunes for.
ADVISED_UPDATE_RATIO = 0.3
#: Stream operations repeat this pattern of reads (R) and writes (W):
#: 70 % reads, every write followed by a read.  Writes add and remove in
#: shuffled pairs; each read position deals templates from its own deck,
#: so reads right after a write, and those further on, get the same
#: template mix in every run.
OPERATION_PATTERN = "RRWRRWRRWR"


@dataclass
class Sizes:
    #: Loads of the text (see ``common.Pipeline``).
    setups: int = 15
    #: ``recommend`` calls and ``create_indexes`` samples on the probe.
    advise_repeats: int = 9
    build_repeats: int = 15
    #: Operations whose registry counts are reported.
    count_window: int = 1000
    min_reads: int = samples_needed(0.99)
    min_writes: int = samples_needed(0.95)
    min_reads_after_write: int = samples_needed(0.95)
    overhead_requests: int = 200
    #: Distinct stream reads re-checked against a rebuilt database.
    check_statements: int = 400


#: Metrics with no value on this workload, and why.
NOT_APPLICABLE = {name: "no tuning loop in this workload" for name in TUNING_METRICS}


def run(inputs: Dict[str, object], seed: int, seconds: float, tracer: Tracer,
        sizes: Sizes = Sizes()):
    report, checker = Report(), Checker()
    collections = {name: inputs["collections"][name] for name in COLLECTIONS}
    pool = inputs["pool"]
    read_statements = [(s.text, s.frequency) for s in tpox_query_workload()]
    pipeline = Pipeline(NAME, collections, tracer, sizes,
                        tpox_workload(ADVISED_UPDATE_RATIO), AdvisorParameters,
                        [text for text, _ in read_statements])
    registry = MetricsRegistry()
    plain = QueryExecutor(pipeline.reference.database, registry=MetricsRegistry())
    advised = QueryExecutor(pipeline.system.database, registry=registry)
    instrument_executor(tracer, plain, "plain")
    instrument_executor(tracer, advised, "advised")
    pipeline.build_system(advised)

    sides = (("plain", plain), ("advised", advised))

    def write(adding: bool, argument) -> Callable[[str, QueryExecutor], None]:
        """An :func:`on_both` call that adds or removes one order document."""
        def call(side: str, executor: QueryExecutor) -> None:
            orders = executor.database.collection("order")
            if adding:
                with tracer.span("storage.add", side=side):
                    orders.add_document(argument)
            else:
                with tracer.span("storage.remove", side=side):
                    orders.remove_document(argument)
        return call

    tracer.phase = "warmup"
    for parity, (text, _) in enumerate(read_statements):
        on_both(sides, parity, "warm-up", checker, statement_read(tracer, text))

    tracer.phase = "stream"
    rng = random.Random(f"{NAME}:{seed}:ops")
    write_kinds = Deck([("add", 1), ("remove", 1)], rng)
    stream = StatementStream(
        read_statements,
        inputs["domains"],
        random.Random(f"{NAME}:{seed}:reads"))
    survivors = list(collections["order"])
    reads: List[float] = []
    reads_after_write: List[float] = []
    writes: List[float] = []
    issued_reads: List[str] = []
    totals = {"plain": 0.0, "advised": 0.0}
    completed = 0
    after_write = False
    window_before = counts(registry)
    window = None
    clock = StreamClock(tracer, seconds)
    while clock.keep_going(len(reads) < sizes.min_reads
                           or len(writes) < sizes.min_writes
                           or len(reads_after_write) < sizes.min_reads_after_write):
        tracer.request = completed
        label = f"operation {completed}"
        position = completed % len(OPERATION_PATTERN)
        if OPERATION_PATTERN[position] == "W":
            if write_kinds.draw() == "add" or not survivors:
                text = pool[rng.randrange(len(pool))]
                times = on_both(sides, completed, label, checker, write(True, text))
                survivors.append(text)
            else:
                doc_id = rng.randrange(len(survivors))
                times = on_both(sides, completed, label, checker, write(False, doc_id))
                del survivors[doc_id]
            samples, after_write = writes, True
        else:
            _, text = stream.draw(lane=position)
            issued_reads.append(text)
            times = on_both(sides, completed, label, checker, statement_read(tracer, text))
            samples = reads_after_write if after_write else reads
            after_write = False
        completed += 1
        if len(times) == 2 and clock.measuring:
            for side, side_seconds in times.items():
                totals[side] += side_seconds
            samples.append(times["advised"])
        if completed == sizes.count_window:
            window = delta(window_before, counts(registry))
    tracer.request = None
    if window is None:
        window = delta(window_before, counts(registry))
    operations = len(reads) + len(reads_after_write) + len(writes)

    # Rebuild from the surviving texts; every read the stream issued (up
    # to check_statements distinct ones) must agree with the maintained
    # database.
    tracer.phase = "check"
    rebuilt = load(dict(collections, order=survivors), tracer, f"{NAME}-rebuilt")
    fresh = QueryExecutor(rebuilt.database, registry=MetricsRegistry())
    distinct = list(dict.fromkeys([t for t, _ in read_statements] + issued_reads))
    for text in distinct[:sizes.check_statements]:
        try:
            expected = result_key(fresh.execute(normalize_statement(text),
                                                extract_values=True))
            actual = result_key(advised.execute(normalize_statement(text),
                                                extract_values=True))
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            checker.fail(f"rebuilt check {text!r}", repr(exc))
            continue
        checker.compare(f"rebuilt check {text!r}", expected, actual)

    pipeline.finish()
    report_phases(report, pipeline.phases)
    report.add("rss_peak_mb", pipeline.rss_mb, "MB")
    report.latency("query", reads, (("p50", 0.5), ("p99", 0.99)))
    report.add("throughput_ops_s", ratio(operations, totals["advised"]), "1/s",
               count=operations)
    report.add("advised_speedup", ratio(totals["plain"], totals["advised"]), "ratio",
               count=operations)
    report.latency("write", writes, (("p50", 0.5), ("p95", 0.95)))
    report.latency("read_after_write", reads_after_write, (("p50", 0.5), ("p95", 0.95)))
    if tracer.enabled:
        agreement, compared = rank_agreement(
            tracer, [t for t, _ in read_statements], pipeline.system.database, plain,
            advised)
        report_layers(report, tracer, pipeline.phases,
                      pipeline.system.database.statistics.columnar_bytes,
                      NOT_APPLICABLE, "advised")
        report_counts(report, window, pipeline.advise_calls,
                      len(pipeline.recommendation.candidates), NOT_APPLICABLE)
        report.add("optimizer.rank_agreement", agreement, "ratio", count=compared,
                   note="" if agreement is not None else
                   "no read template ran an index plan")
        replay = issued_reads[:sizes.overhead_requests]
        report.add("telemetry.trace_overhead", trace_overhead(
            tracer, lambda: [advised.execute(normalize_statement(text),
                                             extract_values=True)
                             for text in replay]), "ratio", count=len(replay))
    return report, checker
