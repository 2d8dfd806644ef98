"""Vectorized predicate scan comparison (shared E14 protocol).

One implementation of the vectorized measurement used by three
consumers -- the E14 benchmark (``benchmarks/bench_e14_vectorized.py``),
the tier-1 ``bench_smoke`` guard (``tests/test_bench_smoke.py``), and
the perf-trajectory recorder (``tools/bench_record.py``) -- so the
measurement protocol cannot silently diverge between the guard, the
bench and the recorded numbers.

Protocol: one database hosts XMark (at ``scale``) and the three TPoX
collections side by side, and a *predicate-heavy* workload -- range and
equality comparisons on element text, attributes, floats and strings,
including conjunctions -- is executed as document scans with value
extraction by two executors sharing the database:

* the **vectorized** executor (``use_vectorized_predicates=True``, the
  default) answers each predicate with two bisects over the path's
  value-sorted projection and intersects the per-predicate document
  sets (:meth:`~repro.storage.columnar.ColumnarStore.matching_documents`),
  serving extraction values straight from the values column -- zero
  ``XmlNode`` materializations, guarded by the executor's
  ``scan_node_materializations`` counter;
* the **object-hop** executor (``use_vectorized_predicates=False``, the
  escape hatch) runs the same columnar-backed scans but materializes
  each document's predicate nodes and compares typed values one object
  at a time (`_document_matches` -> `_compare_node`).

Both sides keep the columnar axis engine on, so the ratio isolates
set-at-a-time predicate evaluation -- not PR 8's axis engine (that is
E13's comparison).  Wall-clock is best-of-``repeats`` per mode;
equivalence is byte-exact per query (result counts, documents examined
and the extracted value streams).  The sizing cross-check asserts
``ColumnarStore.nbytes`` (now including the projection slots) still
equals the statistics-derived ``columnar_bytes`` per collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.executor.executor import QueryExecutor
from repro.storage.document_store import XmlDatabase
from repro.telemetry import wall_clock
from repro.tools.routing_compare import build_coresident_database
from repro.xquery.model import NormalizedQuery
from repro.xquery.normalizer import normalize_statement

#: The predicate-heavy workload: every statement carries at least one
#: value comparison (equality and range, element text and attributes,
#: float and string literals, plus conjunctions), spread over the XMark
#: collection and all three TPoX collections.
PREDICATE_QUERIES: Tuple[str, ...] = (
    # XMark: numeric ranges over items, auctions and people.
    'for $i in doc("x")/site/regions/africa/item '
    'where $i/quantity > 7 return $i/name',
    'for $i in doc("x")/site/regions/namerica/item '
    'where $i/price >= 350 return $i/name',
    'for $i in doc("x")/site/regions/africa/item '
    'where $i/payment = "Creditcard" return $i/name',
    'for $p in doc("x")/site/people/person '
    'where $p/profile/@income > 200000 return $p/name',
    'for $p in doc("x")/site/people/person '
    'where $p/profile/age >= 80 return $p/name',
    'for $p in doc("x")/site/people/person '
    'where $p/address/city = "Cairo" return $p/name',
    'for $a in doc("x")/site/open_auctions/auction '
    'where $a/current > 250 return $a/itemref',
    'for $c in doc("x")/site/closed_auctions/auction '
    'where $c/price >= 400 return $c/price',
    'for $i in doc("x")/site/regions/africa/item '
    'where $i/quantity > 5 and $i/payment = "Creditcard" return $i/name',
    # TPoX: orders, securities and customer accounts.
    'for $o in doc("order.xml")/FIXML/Order '
    'where $o/OrdQty/@Qty > 4500 return $o/Instrmt',
    'for $s in doc("security.xml")/Security '
    'where $s/Price/LastTrade > 800 return $s/Symbol',
    'for $s in doc("security.xml")/Security '
    'where $s/Sector = "Technology" and $s/SecurityInformation/Yield > 7 '
    'return $s/Name',
    'for $c in doc("custacc.xml")/Customer '
    'where $c/Accounts/Account/@balance > 1800000 return $c/Name/LastName',
    'for $c in doc("custacc.xml")/Customer '
    'where $c/CountryOfResidence = "DE" and $c/PremiumCustomer = "true" '
    'return $c/Name/LastName',
)


@dataclass
class VectorizedComparison:
    """Outcome of one vectorized-vs-object-hop comparison run."""

    documents: int
    vectorized_seconds: float
    hatch_seconds: float
    #: XmlNode list materializations on the vectorized side -- the
    #: acceptance criterion: zero (predicates and value extraction
    #: never leave the columns).
    vectorized_materializations: int
    #: Same counter on the escape-hatch side (must be positive: the
    #: workload genuinely exercises the object hop being compared).
    hatch_materializations: int
    queries_total: int
    result_rows: int
    #: Per-query result counts, documents examined and extracted value
    #: streams identical between the two modes.
    identical_results: bool
    #: ``ColumnarStore.nbytes`` (including the projection slots) equal
    #: to the statistics-derived ``columnar_bytes`` per collection.
    sizing_consistent: bool

    @property
    def scan_ratio(self) -> float:
        """Wall-clock speedup of the vectorized scan (higher is better)."""
        return self.hatch_seconds / max(self.vectorized_seconds, 1e-9)


def predicate_workload() -> List[NormalizedQuery]:
    """The normalized predicate-heavy query list."""
    return [normalize_statement(text) for text in PREDICATE_QUERIES]


def _run_queries(executor: QueryExecutor,
                 queries: Sequence[NormalizedQuery]) -> list:
    return [executor.execute(query, extract_values=True)
            for query in queries]


def _result_signature(results) -> list:
    return [(result.result_count, result.documents_examined,
             tuple(result.extracted_values or ()))
            for result in results]


def compare_vectorized_modes(scale: float = 0.25, seed: int = 42,
                             repeats: int = 3) -> VectorizedComparison:
    """Run the full vectorized-vs-object-hop comparison at ``scale``."""
    database = build_coresident_database(scale=scale, seed=seed,
                                         name="vectorized")
    queries = predicate_workload()

    # Both hatches pinned explicitly (not inherited from the
    # environment) so the comparison still measures the set-at-a-time
    # engine under the hatch-off CI matrix jobs.
    vectorized = QueryExecutor(database, use_columnar=True,
                               use_vectorized_predicates=True)
    hatch = QueryExecutor(database, use_columnar=True,
                          use_vectorized_predicates=False)
    # Publish the lazy snapshots (statistics, columnar stores, value
    # projections) outside the timed region: both modes measure
    # steady-state scans, not builds.
    vectorized_results = _run_queries(vectorized, queries)
    hatch_results = _run_queries(hatch, queries)

    vectorized_best = hatch_best = float("inf")
    for _ in range(repeats):
        start = wall_clock()
        vectorized_results = _run_queries(vectorized, queries)
        vectorized_best = min(vectorized_best, wall_clock() - start)
        start = wall_clock()
        hatch_results = _run_queries(hatch, queries)
        hatch_best = min(hatch_best, wall_clock() - start)

    identical = (_result_signature(vectorized_results)
                 == _result_signature(hatch_results))
    stats = database.statistics
    sizing_consistent = all(
        database.collection(name).columnar_store.nbytes
        == stats.collection_stats[name].columnar_bytes
        for name in ("xmark", "order", "security", "custacc"))
    return VectorizedComparison(
        documents=stats.document_count,
        vectorized_seconds=vectorized_best,
        hatch_seconds=hatch_best,
        vectorized_materializations=vectorized.scan_node_materializations,
        hatch_materializations=hatch.scan_node_materializations,
        queries_total=len(queries),
        result_rows=sum(r.result_count for r in vectorized_results),
        identical_results=identical,
        sizing_consistent=sizing_consistent)
