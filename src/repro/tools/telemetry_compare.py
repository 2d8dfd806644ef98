"""Telemetry overhead comparison (shared E15 protocol).

One implementation of the tracing-overhead measurement used by the E15
benchmark entry in ``tools/bench_record.py`` and the tier-1
``bench_smoke`` guard, so the protocol cannot silently diverge between
the guard and the recorded numbers.

Protocol: the co-resident XMark+TPoX database runs the predicate-heavy
E14 workload through two executors sharing the database:

* the **untraced** executor (``trace=False``) runs with the metrics
  registry armed (counters are never optional) but builds no span
  trees and records no cost-accounting samples;
* the **traced** executor (``trace=True``) additionally builds the
  full per-query span tree (parse -> compile -> plan -> route ->
  scan/index-probe -> residual -> extract) and pairs every planned
  query's predicted cost with its measured wall time.

Wall-clock is best-of-``repeats`` per mode; equivalence is byte-exact
per query (result counts, documents examined and the extracted value
streams), pinning the observe-only contract: tracing must never change
what a query returns.  The overhead ratio (traced / untraced) is the
number ``REPRO_SMOKE_MAX_TELEMETRY_OVERHEAD`` gates in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.executor.executor import QueryExecutor
from repro.telemetry import wall_clock
from repro.tools.routing_compare import build_coresident_database
from repro.tools.vectorized_compare import predicate_workload
from repro.xquery.model import NormalizedQuery


@dataclass
class TelemetryComparison:
    """Outcome of one traced-vs-untraced comparison run."""

    documents: int
    untraced_seconds: float
    traced_seconds: float
    queries_total: int
    result_rows: int
    #: Spans in the trace trees of the last traced run (one tree per
    #: query; deterministic for a fixed workload and database).
    spans_recorded: int
    #: Predicted-vs-measured cost samples the traced executor paired.
    cost_samples: int
    #: Per-query result counts, documents examined and extracted value
    #: streams identical between the two modes (the observe-only gate).
    identical_results: bool

    @property
    def overhead_ratio(self) -> float:
        """Wall-clock cost of tracing (lower is better; 1.0 = free)."""
        return self.traced_seconds / max(self.untraced_seconds, 1e-9)


def _run_queries(executor: QueryExecutor,
                 queries: Sequence[NormalizedQuery]) -> list:
    return [executor.execute(query, extract_values=True)
            for query in queries]


def _result_signature(results) -> list:
    return [(result.result_count, result.documents_examined,
             tuple(result.extracted_values or ()))
            for result in results]


def compare_telemetry_modes(scale: float = 0.25, seed: int = 42,
                            repeats: int = 3) -> TelemetryComparison:
    """Run the full traced-vs-untraced comparison at ``scale``.

    The scale is floored at 0.25: tracing costs a fixed handful of
    microseconds per query, so measuring it against sub-0.1ms toy
    queries reports an overhead no real workload would see.
    """
    database = build_coresident_database(scale=max(scale, 0.25), seed=seed,
                                         name="telemetry")
    queries = predicate_workload()

    # Tracing pinned explicitly per executor (not inherited from
    # REPRO_TRACE) so the comparison measures both modes regardless of
    # how the environment armed the session.
    untraced = QueryExecutor(database, trace=False)
    traced = QueryExecutor(database, trace=True)
    # Publish the lazy snapshots (statistics, columnar stores, value
    # projections) outside the timed region: both modes measure
    # steady-state execution, not builds.
    untraced_results = _run_queries(untraced, queries)
    traced_results = _run_queries(traced, queries)

    untraced_best = traced_best = float("inf")
    for _ in range(repeats):
        start = wall_clock()
        untraced_results = _run_queries(untraced, queries)
        untraced_best = min(untraced_best, wall_clock() - start)
        start = wall_clock()
        traced_results = _run_queries(traced, queries)
        traced_best = min(traced_best, wall_clock() - start)

    identical = (_result_signature(untraced_results)
                 == _result_signature(traced_results))
    spans = sum(len(list(result.trace.walk())) for result in traced_results
                if result.trace is not None)
    return TelemetryComparison(
        documents=database.statistics.document_count,
        untraced_seconds=untraced_best,
        traced_seconds=traced_best,
        queries_total=len(queries),
        result_rows=sum(r.result_count for r in untraced_results),
        spans_recorded=spans,
        cost_samples=len(traced.cost_accounting.samples),
        identical_results=identical)
