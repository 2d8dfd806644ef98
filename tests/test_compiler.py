"""Tests for the XPath compiler and the executor's scan engines.

Covers:

* :mod:`repro.xpath.compiler` lowering rules, fallback classification
  and the parse/compile LRU caches;
* node-set equivalence between compiled columnar-store lookups and the
  interpretive :class:`~repro.xpath.evaluator.XPathEvaluator` across
  the synthetic and XMark workloads (the property the executor's
  columnar scan engine relies on);
* executor behaviour: columnar scans vs. interpretive scans, and
  documents added after an executor was constructed.
"""

from __future__ import annotations

import pytest

from _support import TINY_SITE_XML, build_varied_database
from repro.executor.executor import QueryExecutor
from repro.index.definition import IndexDefinition
from repro.storage import XmlDatabase
from repro.workloads.synthetic import SyntheticWorkloadGenerator
from repro.xmldb import parse_document
from repro.xpath.compiler import (
    clear_compiler_caches,
    compile_xpath,
    parse_xpath_cached,
)
from repro.xpath.evaluator import XPathEvaluator
from repro.xquery.model import ValueType
from repro.xquery.normalizer import normalize_workload


# ----------------------------------------------------------------------
# Compiler lowering and caches
# ----------------------------------------------------------------------
class TestCompiler:
    def test_predicate_free_paths_are_columnar_backed(self):
        for text in ("/site/people/person/@id", "//keyword",
                     "/site/regions/*/item", "//item/name/text()",
                     "/site//item/payment", "//@id"):
            compiled = compile_xpath(text)
            assert compiled.pattern is not None, text
            assert not compiled.residual_predicates

    @pytest.mark.parametrize("text", ["/a//a", "//site//*"])
    def test_descendant_self_shapes_are_columnar_backed(self, text):
        # ``//`` steps that may match their own context compile like any
        # other linear spine: the store matches them exactly.
        compiled = compile_xpath(text)
        assert compiled.pattern is not None, text
        assert compiled.fallback_reason is None

    def test_final_step_predicates_become_residual(self):
        compiled = compile_xpath("/site/regions/africa/item[quantity > 5]")
        assert compiled.pattern is not None
        assert len(compiled.residual_predicates) == 1
        assert compiled.pattern.to_text() == "/site/regions/africa/item"

    @pytest.mark.parametrize("text,reason_fragment", [
        ("item/name", "relative"),
        ("$i/quantity", "variable"),
        ("/", "document root"),
        ("/site/person[@id = 'p']/name", "inner step"),
        ("/site//text()", "text()"),
        ("count(//item)", "not a location path"),
    ])
    def test_fallback_reasons(self, text, reason_fragment):
        compiled = compile_xpath(text)
        assert compiled.pattern is None
        assert reason_fragment in compiled.fallback_reason

    def test_fallback_still_evaluates_via_interpreter(self, tiny_document):
        compiled = compile_xpath("//person[@id = \"p1\"]/name")
        assert compiled.pattern is None
        nodes = compiled.select_nodes(None, tiny_document)
        assert [n.string_value() for n in nodes] == ["Alice"]

    def test_compile_cache_returns_same_object(self):
        clear_compiler_caches()
        first = compile_xpath("/site/people/person")
        second = compile_xpath("/site/people/person")
        assert first is second
        assert parse_xpath_cached("/site/people/person") is parse_xpath_cached(
            "/site/people/person")

    def test_compiled_lookup_serves_ordered_extraction(self):
        """CompiledXPath.select_nodes(ordered=True) returns the spine in
        document order from the columnar store, matching the
        interpreter's order."""
        database = XmlDatabase("t")
        collection = database.create_collection("site")
        document = collection.add_document(parse_document(TINY_SITE_XML))
        compiled = compile_xpath("//@id")
        assert compiled.pattern is not None
        nodes = compiled.select_nodes(collection.columnar_store, document,
                                      ordered=True)
        interpreted = XPathEvaluator(document).select_nodes(compiled.expression)
        assert [n.node_id for n in nodes] == [n.node_id for n in interpreted]


# ----------------------------------------------------------------------
# Compiled-vs-interpreter node-set equivalence (the core property)
# ----------------------------------------------------------------------
def _assert_equivalent(database, expressions):
    checked = 0
    for collection in database.collections:
        store = collection.columnar_store
        for document in collection:
            evaluator = XPathEvaluator(document)
            for text in expressions:
                compiled = compile_xpath(text)
                got = {id(n) for n in compiled.select_nodes(store, document,
                                                            evaluator)}
                want = {id(n) for n in evaluator.select_nodes(text)}
                assert got == want, (text, document.doc_id)
                checked += 1
    assert checked > 0


HAND_EXPRESSIONS = [
    "/site/people/person/@id",
    "/site/regions/*/item",
    "/site/regions/africa/item[quantity > 5]",
    "//keyword",
    "//@id",
    "//item/name/text()",
    "/site//item/payment",
    "//regions//item",
    "/site/people/person[profile/@income >= 42000]",
    "/a//a",                      # descendant-or-self shape
    "//person[@id = \"p1\"]/name",  # inner predicate: interpreter both ways
]


def test_compiled_equivalence_tiny(tiny_database):
    _assert_equivalent(tiny_database, HAND_EXPRESSIONS)


def test_compiled_equivalence_xmark_workload(xmark_database, xmark_workload):
    expressions = set(HAND_EXPRESSIONS)
    for query in normalize_workload(xmark_workload):
        for predicate in query.predicates:
            expressions.add(predicate.pattern.to_text())
        for pattern in query.extraction_paths:
            expressions.add(pattern.to_text())
    _assert_equivalent(xmark_database, sorted(expressions))


def test_compiled_equivalence_synthetic_workload():
    database = build_varied_database(documents=20, name="synth-equiv")
    workload = SyntheticWorkloadGenerator(database, seed=5).generate(
        12, predicates_per_query=2, name="synthetic-equivalence")
    expressions = set()
    for query in normalize_workload(workload):
        for predicate in query.predicates:
            expressions.add(predicate.pattern.to_text())
        for pattern in query.extraction_paths:
            expressions.add(pattern.to_text())
    assert expressions
    _assert_equivalent(database, sorted(expressions))


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
class TestExecutorScanEngine:
    QUERY = ('for $i in doc("x")/site/regions/africa/item '
             'where $i/quantity > 90 return $i/name')

    def test_columnar_and_interpretive_scans_agree(self, xmark_database,
                                                   xmark_workload):
        queries = [q for q in normalize_workload(xmark_workload)
                   if not q.is_update]
        columnar_results = QueryExecutor(
            xmark_database, use_columnar=True).execute_workload(queries)
        interpretive_results = QueryExecutor(
            xmark_database, use_columnar=False).execute_workload(queries)
        for columnar, interpretive in zip(columnar_results,
                                          interpretive_results):
            assert columnar.result_count == interpretive.result_count
            assert columnar.documents_examined == interpretive.documents_examined

    def test_index_build_matches_brute_force_entries(self):
        from repro.index.physical import build_physical_index

        database = build_varied_database(documents=15, name="idx-equiv")
        definition = IndexDefinition.create("/site/regions/*/item/quantity",
                                            ValueType.DOUBLE)
        index = build_physical_index(definition, database)
        # Reference: brute-force walk of every document.
        expected = []
        for collection in database.collections:
            for document in collection:
                for element in document.descendant_elements():
                    if definition.pattern.matches(element.simple_path()):
                        key = element.double_value()
                        if key is not None:
                            expected.append((key, collection.name,
                                             document.doc_id, element.node_id))
        got = [(e.key, e.collection, e.doc_id, e.node_id)
               for e in index.entries]
        assert got
        assert sorted(got) == sorted(expected)

    def test_index_plan_sees_documents_added_after_construction(self):
        database = build_varied_database(documents=10, name="stale-lookup")
        executor = QueryExecutor(database)
        # A document added *after* the executor was constructed...
        late = parse_document(TINY_SITE_XML.replace('id="p1"', 'id="p777"'))
        database.collection("site").add_document(late)
        executor.create_indexes([
            IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR)])
        query = ('for $p in doc("x")/site/people/person '
                 'where $p/@id = "p777" return $p/name')
        result = executor.execute(query)
        # ...must be found by the index plan (the lookup refreshes itself).
        assert result.used_index_plan
        assert result.result_count == 1

    def test_index_built_before_add_is_rebuilt_on_execute(self):
        # Regression: a physical index materialized *before* a document
        # was added must be rebuilt, not just the doc lookup refreshed —
        # otherwise the index plan silently misses the new document.
        database = build_varied_database(documents=10, name="stale-index")
        executor = QueryExecutor(database)
        executor.create_indexes([
            IndexDefinition.create("/site/people/person/@id", ValueType.VARCHAR)])
        late = parse_document(TINY_SITE_XML.replace('id="p1"', 'id="p888"'))
        database.collection("site").add_document(late)
        query = ('for $p in doc("x")/site/people/person '
                 'where $p/@id = "p888" return $p/name')
        result = executor.execute(query)
        assert result.used_index_plan
        assert result.result_count == 1

    def test_scan_sees_documents_added_after_construction(self):
        database = build_varied_database(documents=5, name="stale-scan")
        executor = QueryExecutor(database)
        before = executor.execute(self.QUERY).documents_examined
        database.collection("site").add_document(parse_document(TINY_SITE_XML))
        after = executor.execute(self.QUERY).documents_examined
        assert after == before + 1
