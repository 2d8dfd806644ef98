"""Columnar pre/post scan comparison (shared E13 protocol).

One implementation of the columnar measurement used by three consumers
-- the E13 benchmark (``benchmarks/bench_e13_columnar.py``), the tier-1
``bench_smoke`` guard (``tests/test_bench_smoke.py``), and the
perf-trajectory recorder (``tools/bench_record.py``) -- so the
measurement protocol cannot silently diverge between the guard, the
bench and the recorded numbers.

Protocol: an XMark database is generated at ``scale`` and a
*descendant-heavy* workload of ``//`` navigation queries (shapes where a
descendant step may match its own context, whose descendant-or-self
semantics strict pattern matching cannot answer) is executed as
document scans by two executors sharing the database:

* the **columnar** executor (``use_columnar=True``, the default) lowers
  the spines onto :class:`~repro.storage.columnar.ColumnarStore`'s
  pre/post axis engine -- exact descendant-or-self semantics straight
  off the sorted columns, zero per-node tree walks;
* the **interpretive** executor (``use_columnar=False``, the escape
  hatch) evaluates every spine with the per-document
  :class:`~repro.xpath.evaluator.XPathEvaluator`.

Wall-clock is best-of-``repeats`` per mode; equivalence is byte-exact
per query (result counts and the sorted extracted node-id streams).
The comparison also cross-checks the sizing contract the advisor's
reports rely on: ``ColumnarStore.nbytes`` must equal the
statistics-derived ``DatabaseStatistics.columnar_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.executor.executor import QueryExecutor
from repro.storage.document_store import XmlDatabase
from repro.telemetry import wall_clock
from repro.workloads.xmark import XMarkConfig, generate_xmark_database
from repro.xquery.model import NormalizedQuery
from repro.xquery.normalizer import normalize_statement

#: The descendant-heavy workload: ``//`` shapes over the XMark schema
#: (`//x` where an `x` ancestor exists, `//*` tails, and a
#: double-descendant spine) whose descendant-or-self semantics strict
#: pattern matching cannot answer; the escape hatch pays one full
#: interpreter walk per document per query.
DESCENDANT_QUERIES: Tuple[str, ...] = (
    "/site//*",
    "/site/regions//*",
    "/site/open_auctions//*",
    "/site//item//name",
    "/site/people//person//*",
)


@dataclass
class ColumnarComparison:
    """Outcome of one columnar-vs-interpretive comparison run."""

    documents: int
    #: Stored positions in the collection's columnar encoding.
    node_count: int
    columnar_seconds: float
    interpretive_seconds: float
    #: Interpreter-evaluated (query, document) residuals on the columnar
    #: side -- the acceptance criterion: zero (every descendant-heavy
    #: spine stays on the axis engine).
    columnar_fallbacks: int
    #: Same counter on the escape-hatch side (must be positive: the
    #: workload genuinely exercises the unsafe shapes).
    interpretive_fallbacks: int
    queries_total: int
    result_rows: int
    #: Per-query result counts and extracted node-id streams identical
    #: between the two modes.
    identical_results: bool
    #: ``ColumnarStore.nbytes`` equal to the statistics-derived
    #: ``DatabaseStatistics.columnar_bytes``.
    sizing_consistent: bool

    @property
    def scan_ratio(self) -> float:
        """Wall-clock speedup of the columnar scan (higher is better)."""
        return self.interpretive_seconds / max(self.columnar_seconds, 1e-9)


def descendant_workload() -> List[NormalizedQuery]:
    """The normalized descendant-heavy query list."""
    return [normalize_statement(text) for text in DESCENDANT_QUERIES]


def _run_queries(executor: QueryExecutor,
                 queries: Sequence[NormalizedQuery]) -> list:
    return [executor.execute(query, extract=True) for query in queries]


def _result_signature(results) -> list:
    return [(result.result_count,
             tuple(sorted(node.node_id for node in result.extracted_nodes
                          or [])))
            for result in results]


def compare_columnar_modes(scale: float = 0.25, seed: int = 42,
                           repeats: int = 3) -> ColumnarComparison:
    """Run the full columnar-vs-interpretive comparison at ``scale``."""
    database = generate_xmark_database(XMarkConfig(scale=scale, seed=seed))
    collection = database.collection("xmark")
    queries = descendant_workload()

    # Vectorized predicates are pinned off on both sides so the ratio
    # keeps isolating the *axis engine* (postings bisects vs pointer
    # chasing); the E14 comparison owns the set-at-a-time engine.
    columnar = QueryExecutor(database, use_columnar=True,
                             use_vectorized_predicates=False)
    interpretive = QueryExecutor(database, use_columnar=False,
                                 use_vectorized_predicates=False)
    # Publish the lazy snapshots (columnar store, statistics) outside the
    # timed region: both modes measure steady-state scans, not builds.
    store = collection.columnar_store
    columnar_results = _run_queries(columnar, queries)
    interpretive_results = _run_queries(interpretive, queries)

    columnar_best = interpretive_best = float("inf")
    for _ in range(repeats):
        start = wall_clock()
        columnar_results = _run_queries(columnar, queries)
        columnar_best = min(columnar_best, wall_clock() - start)
        start = wall_clock()
        interpretive_results = _run_queries(interpretive, queries)
        interpretive_best = min(interpretive_best,
                                wall_clock() - start)

    identical = (_result_signature(columnar_results)
                 == _result_signature(interpretive_results))
    stats = database.statistics
    sizing_consistent = (
        store.nbytes == stats.collection_stats["xmark"].columnar_bytes
        and stats.columnar_bytes == sum(
            c.columnar_store.nbytes for c in database.collections))

    return ColumnarComparison(
        documents=len(collection),
        node_count=store.node_count,
        columnar_seconds=columnar_best,
        interpretive_seconds=interpretive_best,
        columnar_fallbacks=columnar.interpretive_spine_fallbacks,
        interpretive_fallbacks=interpretive.interpretive_spine_fallbacks,
        queries_total=len(queries),
        result_rows=sum(r.result_count for r in columnar_results),
        identical_results=identical,
        sizing_consistent=sizing_consistent,
    )
