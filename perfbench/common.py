"""Steps every workload shares: loading text, advising, building
indexes, instrumenting the layer objects, and the per-layer metrics
that read the same spans in every workload."""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from harness import (Checker, Report, Tracer, counts, delta, hit_ratio, instrument,
                     median, ratio, result_key)

from repro import (AdvisorParameters, Optimizer, QueryExecutor, XmlDatabase,
                   XmlIndexAdvisor)
from repro.telemetry import MetricsRegistry
from repro.xmldb import parse_document
from repro.xquery import normalize_statement


#: Per-layer metrics of the tuning loop (xmark-drift only).
TUNING_METRICS = ("tuning.record_us", "tuning.snapshot_ms", "tuning.advise_ms",
                  "tuning.plan_ms", "tuning.apply_ms", "tuning.migrations",
                  "tuning.idle_cycles", "migrate_p50_ms", "tune_total_s")
#: Metrics of document writes (tpox-churn only).
WRITE_METRICS = ("write_p50_ms", "write_p95_ms", "read_after_write_p50_ms",
                 "read_after_write_p95_ms", "storage.add_ms", "storage.remove_ms",
                 "executor.maintain_ms")
#: Executions of each query per side when ranking scan against index plan.
RANK_REPEATS = 5
#: Traced and untraced replays of the segment behind the tracing overhead.
OVERHEAD_ROUNDS = 4
#: Layers of the self-time table, named as the span prefixes.
LAYERS = ("xmldb", "storage", "xquery", "optimizer", "executor", "index",
          "advisor", "tuning")


@dataclass
class Setup:
    """One load of the workload's text into a queryable database."""

    database: XmlDatabase
    parse_s: float = 0.0
    add_s: float = 0.0
    columnar_s: float = 0.0
    statistics_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.parse_s + self.add_s + self.columnar_s + self.statistics_s


@dataclass
class Phases:
    """Samples of the set-up phases shared by every workload."""

    setups: List[Setup] = field(default_factory=list)
    advise_s: List[float] = field(default_factory=list)
    build_s: List[float] = field(default_factory=list)
    input_bytes: int = 0


def load(texts: Dict[str, List[str]], tracer: Tracer, name: str) -> Setup:
    """Parse and store every text, then touch each collection's columnar
    store and statistics (and the merged statistics) once.

    Everything alive beforehand first moves to the garbage collector's
    permanent generation, so every load -- and the stream after the
    system's load -- pays the collector for its own objects only.  The
    reference copy, loaded just before the system, thus never doubles
    the collector's work while the system is timed, and the system's
    own collector cost stays in its figures."""
    gc.collect()
    gc.freeze()
    database = XmlDatabase(name)
    setup = Setup(database)
    for collection_name, documents in texts.items():
        collection = database.create_collection(collection_name)
        for index, text in enumerate(documents):
            with tracer.span("xmldb.parse") as timer:
                document = parse_document(text, uri=f"{collection_name}-{index}.xml")
            setup.parse_s += timer.seconds
            with tracer.span("storage.add") as timer:
                collection.add_document(document)
            setup.add_s += timer.seconds
    with tracer.span("storage.columnar_build") as timer:
        for collection in database.collections:
            collection.columnar_store
    setup.columnar_s = timer.seconds
    with tracer.span("storage.statistics_build") as timer:
        for collection in database.collections:
            collection.statistics
        database.statistics
    setup.statistics_s = timer.seconds
    return setup


def release(setup: Setup) -> None:
    """Drop a set-up's database once nothing else refers to it, and let
    the collector reclaim its node trees (which hold cycles; a database
    is never frozen before the next load, so this frees it)."""
    setup.database = None
    gc.collect()


def on_both(sides: Sequence, parity: int, label: str, checker: Checker,
            call: Callable[[str, QueryExecutor], object]) -> Dict[str, float]:
    """Run ``call(side, executor)`` on both ``(side, executor)`` pairs,
    in an order that alternates with ``parity``, and check that the two
    return values agree.  Returns each side's seconds, or nothing when a
    call raised (counted as a failed operation)."""
    times: Dict[str, float] = {}
    values = {}
    for side, executor in sides if parity % 2 == 0 else sides[::-1]:
        start = time.perf_counter()
        try:
            values[side] = call(side, executor)
        except Exception as exc:  # noqa: BLE001 -- counted as a failure
            checker.fail(f"{label} on {side}", repr(exc))
            return {}
        times[side] = time.perf_counter() - start
    checker.compare(label, *(values[side] for side, _ in sides))
    return times


def statement_read(tracer: Tracer, text: str) -> Callable[[str, QueryExecutor], object]:
    """An :func:`on_both` call that normalizes and executes ``text``."""
    def call(side: str, executor: QueryExecutor):
        with tracer.span("xquery.normalize", side=side):
            query = normalize_statement(text)
        return result_key(executor.execute(query, extract_values=True))
    return call


def instrument_executor(tracer: Tracer, executor: QueryExecutor, side: str) -> None:
    """Record every ``execute`` call as an ``executor.execute`` span with
    the execution's own span tree nested under it; the plan label is
    the one the result reports (``used_index_plan``)."""
    original = executor.execute

    def execute(query, **kwargs):
        if not tracer.enabled:
            return original(query, **kwargs)
        with tracer.span("executor.execute", side=side) as record:
            result = original(query, trace=True, **kwargs)
            record.attrs.update(used_index_plan=result.used_index_plan,
                                documents_examined=result.documents_examined,
                                result_count=result.result_count)
        if result.trace is not None:
            tracer.nest_execution_trace(record, result.trace)
        return result

    executor.execute = execute
    instrument(tracer, executor, "build_index_structure", "index.build",
               annotate=lambda structure: {"bytes": structure.size_bytes}, side=side)
    instrument(tracer, executor, "install_index", "index.install", side=side)


def instrument_advisor(tracer: Tracer, advisor: XmlIndexAdvisor) -> None:
    for method, span_name in (("enumerate_candidates", "advisor.enumerate"),
                              ("generalize", "advisor.generalize"),
                              ("build_evaluator", "advisor.search"),
                              ("search", "advisor.search")):
        instrument(tracer, advisor, method, span_name)


def advise(phases: Phases, database: XmlDatabase, workload,
           parameters: Callable[[], AdvisorParameters], repeats: int,
           tracer: Tracer, registry: MetricsRegistry,
           calls: List[Dict[str, float]]):
    """``recommend`` ``repeats`` times, each on a fresh advisor; appends
    each call's registry count deltas to ``calls`` and returns the last
    recommendation (they are identical)."""
    recommendation = None
    for _ in range(repeats):
        gc.collect()
        advisor = XmlIndexAdvisor(database, parameters(), registry=registry)
        instrument_advisor(tracer, advisor)
        before = counts(registry)
        with tracer.span("advisor.recommend") as timer:
            recommendation = advisor.recommend(workload)
        phases.advise_s.append(timer.seconds)
        calls.append(delta(before, counts(registry)))
    return recommendation


def build(phases: Phases, executor: QueryExecutor, definitions: Sequence,
          tracer: Tracer) -> None:
    """One ``create_indexes`` of the recommendation (after dropping any
    index the executor has), timed as an ``index_build_s`` sample."""
    executor.drop_all_indexes()
    gc.collect()
    with tracer.span("index.create") as timer:
        executor.create_indexes(definitions)
    phases.build_s.append(timer.seconds)


def stage_each(executor: QueryExecutor, definitions: Sequence) -> None:
    """Traced runs only: stage (build without installing) each index of
    the recommendation once, so the wrapped ``build_index_structure``
    records an ``index.build`` span with the structure's size per index.
    ``create_indexes`` builds the same structures in one call, so its
    samples carry no per-index split."""
    for definition in definitions:
        executor.build_index_structure(definition)


class Pipeline:
    """Load, advise and build: the set-up every workload shares.

    The text is loaded ``sizes.setups`` times; ``setup_s`` is the median.

    1. A probe database, loaded first while the process holds nothing
       else: ``sizes.advise_repeats`` ``recommend`` calls (each on a fresh
       advisor) and ``sizes.build_repeats`` ``create_indexes`` of the
       recommendation run on it, then every warm-up query.  The peak
       resident memory this adds to the process is ``rss_peak_mb``: the
       program's own memory for one database, advised, indexed and
       warmed, without the benchmark's other copies.  It is then dropped.
    2. The reference, which never gets indexes.
    3. The system under test, loaded last and left to the collector;
       :meth:`build_system` gives it the recommended indexes.
    4. After the timed stream, :meth:`finish` loads the text
       ``sizes.setups - 3`` more times for set-up samples only, so the
       samples come from both ends of the run, not from one stretch of
       machine time."""

    def __init__(self, name: str, texts: Dict[str, List[str]], tracer: Tracer,
                 sizes, workload, parameters: Callable[[], AdvisorParameters],
                 warm_up: Sequence) -> None:
        self.tracer = tracer
        self.phases = Phases(input_bytes=sum(len(text.encode())
                                             for documents in texts.values()
                                             for text in documents))
        self.advisor_registry = MetricsRegistry()
        self.advise_calls: List[Dict[str, float]] = []
        gc.collect()
        before_mb = peak_rss_mb()
        tracer.phase = "setup"
        probe = self._load(texts, f"{name}-probe")
        tracer.phase = "advise"
        self.recommendation = advise(
            self.phases, probe.database, workload, parameters, sizes.advise_repeats,
            tracer, self.advisor_registry, self.advise_calls)
        executor = QueryExecutor(probe.database, registry=MetricsRegistry())
        instrument_executor(tracer, executor, "probe")
        tracer.phase = "build"
        for _ in range(sizes.build_repeats):
            build(self.phases, executor, self.configuration, tracer)
        if tracer.enabled:
            stage_each(executor, self.configuration)
        tracer.phase = "warmup"
        for query in warm_up:
            executor.execute(query, extract_values=True)
        self.rss_mb = peak_rss_mb() - before_mb
        del executor
        release(probe)
        tracer.phase = "setup"
        self.reference = self._load(texts, f"{name}-reference")
        self.system = self._load(texts, f"{name}-system")
        self._texts, self._name, self._late_setups = texts, name, sizes.setups - 3

    def _load(self, texts: Dict[str, List[str]], name: str) -> Setup:
        setup = load(texts, self.tracer, name)
        self.phases.setups.append(setup)
        return setup

    @property
    def configuration(self):
        return self.recommendation.configuration

    def build_system(self, executor: QueryExecutor) -> None:
        self.tracer.phase = "build"
        build(self.phases, executor, self.configuration, self.tracer)

    def finish(self) -> None:
        """Take the remaining set-up samples."""
        self.tracer.phase = "setup"
        for index in range(self._late_setups):
            release(self._load(self._texts, f"{self._name}-{index}"))


def report_phases(report: Report, phases: Phases) -> None:
    """The end-to-end set-up metrics every workload reports."""
    report.add("setup_s", median([s.total_s for s in phases.setups]), "s",
               count=len(phases.setups))
    report.add("advise_s", median(phases.advise_s), "s", count=len(phases.advise_s))
    report.add("index_build_s", median(phases.build_s), "s",
               count=len(phases.build_s))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (``ru_maxrss`` is in
    KiB).  Each workload runs in a process of its own (see ``run.py``),
    so the peak is never another workload's."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _us(values: Sequence[float]) -> Optional[float]:
    value = median(values)
    return None if value is None else value * 1e6


def _ms(values: Sequence[float]) -> Optional[float]:
    value = median(values)
    return None if value is None else value * 1e3


def report_layers(report: Report, tracer: Tracer, phases: Phases,
                  columnar_bytes: float, not_applicable: Dict[str, str],
                  system_side: str) -> None:
    """Per-layer metrics read from the spans every workload records.

    ``not_applicable`` maps a metric name to the reason it has no value
    on this workload; ``system_side`` names the executor whose
    executions the executor metrics describe."""
    def add(name, value, unit, count=None):
        note = not_applicable.get(name, "")
        if note:
            value = None
        elif value is None:
            note = "no samples in this run"
        report.add(name, value, unit, count=count, note=note)

    setups = phases.setups
    add("xmldb.parse_s", median([s.parse_s for s in setups]), "s", len(setups))
    add("storage.add_s", median([s.add_s for s in setups]), "s", len(setups))
    add("storage.columnar_build_s", median([s.columnar_s for s in setups]), "s",
        len(setups))
    add("storage.statistics_build_s", median([s.statistics_s for s in setups]),
        "s", len(setups))
    adds = tracer.durations("storage.add", phase="stream", side=system_side)
    removes = tracer.durations("storage.remove", phase="stream", side=system_side)
    add("storage.add_ms", _ms(adds), "ms", len(adds))
    add("storage.remove_ms", _ms(removes), "ms", len(removes))
    add("storage.columnar_bytes", columnar_bytes, "bytes")
    add("storage.input_bytes", phases.input_bytes, "bytes")
    add("storage.bytes_per_input_byte", ratio(columnar_bytes, phases.input_bytes),
        "ratio")

    normalize = tracer.durations("xquery.normalize", phase="stream", side=system_side)
    add("xquery.normalize_us", _us(normalize), "us", len(normalize))

    executions = tracer.select("executor.execute", phase="stream", side=system_side)
    every = tracer.select("executor.execute", phase="stream")
    add("executor.execute_us", _us([s.seconds for s in executions]), "us",
        len(executions))
    scans = [s.seconds for s in every if not s.attrs["used_index_plan"]]
    index_plans = [s.seconds for s in every if s.attrs["used_index_plan"]]
    add("executor.scan_us", _us(scans), "us", len(scans))
    add("executor.index_plan_us", _us(index_plans), "us", len(index_plans))
    add("executor.index_plan_share",
        ratio(sum(1 for s in executions if s.attrs["used_index_plan"]),
              len(executions)), "ratio", len(executions))
    add("executor.documents_examined_per_result",
        ratio(sum(s.attrs["documents_examined"] for s in executions),
              sum(s.attrs["result_count"] for s in executions)), "ratio",
        len(executions))
    maintain = [s.seconds for s in tracer.select("executor.maintain", phase="stream")
                if tracer.spans[s.parent].attrs.get("side") == system_side]
    add("executor.maintain_ms", _ms(maintain), "ms", len(maintain))

    builds = tracer.select("index.build")
    add("index.build_ms", _ms([s.seconds for s in builds]), "ms", len(builds))
    # The recommended configuration, as the probe's staged builds sized it.
    configuration = tracer.select("index.build", phase="build")
    add("index.bytes", sum(s.attrs["bytes"] for s in configuration)
        if configuration else None, "bytes", len(configuration))

    recommends = tracer.select("advisor.recommend", phase="advise")
    per_call = len(recommends) or 1
    for phase in ("enumerate", "generalize", "search"):
        total = sum(tracer.durations(f"advisor.{phase}", phase="advise"))
        add(f"advisor.{phase}_s", total / per_call if recommends else None, "s",
            len(recommends))


def report_self_times(report: Report, tracer: Tracer) -> None:
    """Self time per layer over the whole traced run (0 for a layer the
    workload never calls)."""
    self_times = tracer.layer_self_times()
    for layer in LAYERS:
        report.add(f"self_s.{layer}", self_times.get(layer, 0.0), "s")


def report_counts(report: Report, window: Dict[str, float],
                  advise_calls: List[Dict[str, float]], candidates: int,
                  not_applicable: Dict[str, str]) -> None:
    """Registry-count metrics.  ``window`` holds the system registry's
    deltas over the stream's fixed-length count window, so they repeat
    exactly for a seed; ``advise_calls`` the deltas of each
    ``recommend`` call, deterministic when every call agrees."""
    def add(name, value, unit, deterministic):
        note = not_applicable.get(name, "")
        report.add(name, None if note else value, unit, note=note,
                   deterministic=deterministic and not note)

    add("optimizer.plan.calls", window.get("optimizer.plan.calls", 0), "count", True)
    add("optimizer.plan_cache.hit_ratio",
        hit_ratio(window, "optimizer.plan_cache.hits", "optimizer.plan_cache.misses"),
        "ratio", True)
    for name in ("executor.index.delta_maintenances", "executor.index.rebuilds",
                 "executor.scan.fallbacks", "executor.scan.node_materializations"):
        add(name, window.get(name, 0), "count", True)
    repeatable = all(call == advise_calls[0] for call in advise_calls)
    last = advise_calls[-1]
    add("advisor.candidates", candidates, "count", True)
    add("evaluator.whatif.costings", last.get("evaluator.whatif.costings", 0),
        "count", repeatable)
    add("evaluator.memo.hit_ratio",
        hit_ratio(last, "evaluator.memo.hits", "evaluator.memo.misses"),
        "ratio", repeatable)


def rank_agreement(tracer: Tracer, queries: Sequence, database: XmlDatabase,
                   plain: QueryExecutor, advised: QueryExecutor):
    """Share of ``queries`` whose predicted order of scan and index plan
    matches the measured order, over the queries that ran an index plan
    on ``advised``.  The scan's predicted cost comes from a separate
    optimizer given no candidate indexes.  Returns (share, compared)."""
    optimizer = Optimizer(database, registry=MetricsRegistry())
    enabled, tracer.enabled = tracer.enabled, False
    agree = compared = 0
    try:
        for query in queries:
            if isinstance(query, str):
                query = normalize_statement(query)
            scan_cost = optimizer.optimize(query, candidate_indexes=[]).total_cost
            chosen = optimizer.optimize(
                query, candidate_indexes=database.catalog.usable_physical_indexes)
            if not chosen.uses_indexes:
                continue
            plain_s, advised_s, index_plan = [], [], True
            for _ in range(RANK_REPEATS):
                for executor, times in ((plain, plain_s), (advised, advised_s)):
                    start = time.perf_counter()
                    result = executor.execute(query, extract_values=True)
                    times.append(time.perf_counter() - start)
                    if executor is advised:
                        index_plan = index_plan and result.used_index_plan
            if not index_plan:
                continue
            compared += 1
            agree += ((chosen.total_cost < scan_cost)
                      == (median(advised_s) < median(plain_s)))
    finally:
        tracer.enabled = enabled
    return ratio(agree, compared), compared


def trace_overhead(tracer: Tracer, segment: Callable[[], None]) -> float:
    """Traced time / untraced time of the same request segment, run
    :data:`OVERHEAD_ROUNDS` times each way, alternating which goes first."""
    phase, tracer.phase = tracer.phase, "overhead"
    totals = {False: 0.0, True: 0.0}
    try:
        for round_ in range(OVERHEAD_ROUNDS):
            for enabled in (False, True) if round_ % 2 == 0 else (True, False):
                tracer.enabled = enabled
                gc.collect()
                start = time.perf_counter()
                segment()
                totals[enabled] += time.perf_counter() - start
    finally:
        tracer.enabled, tracer.phase = True, phase
    return totals[True] / totals[False]
