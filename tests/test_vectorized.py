"""Equivalence tests for the vectorized predicate engine (PR 9).

The set-at-a-time engine answers value predicates with two bisects over
each path's value-sorted projection (`ColumnarStore.match_positions` /
`matching_documents`) and serves extraction values straight from the
values column.  Every test here pins the same property: the vectorized
path, the legacy object-hop path (``use_vectorized_predicates=False``)
and the purely interpretive path (``use_columnar=False``) return
**byte-identical** matching documents, extracted node ids and extracted
values -- across randomized mixed-type data (numeric-looking strings
like ``"010"``, negatives, floats, empty values), every comparison
operator, interleaved add/remove deltas, and under
``REPRO_FREEZE_SNAPSHOTS=1``.

The ``scan_node_materializations`` counter is the structural guarantee:
zero on the vectorized scan path (predicates and value extraction never
left the columns), positive on every legacy path.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap

from _support import (
    EXECUTOR_COUNTERS,
    TINY_SITE_XML,
    assert_counter_parity,
    build_varied_database,
)
from repro.executor.executor import QueryExecutor
from repro.storage import XmlDatabase
from repro.xmldb.nodes import build_document, normalized_node_value
from repro.xquery.normalizer import normalize_statement

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
TESTS = os.path.dirname(os.path.abspath(__file__))

#: Mixed value pool: plain numerics, a numeric-looking string whose
#: lexicographic and numeric orders disagree ("010" < "9" numerically
#: but not as strings), negatives, floats, empty, and non-castable text.
VALUE_POOL = ["7", "010", "10", "9", "-3.5", "0", "", "drum", "7.0",
              "12abc", "100", "-41", "3.25", "carved mask"]

OPS = ["=", "!=", "<", "<=", ">", ">="]

#: String literals exercise the lexicographic compare; float literals
#: the parsed-double compare (including values no node carries).
STR_LITERALS = ["010", "7", "drum", "", "-3.5", "zzz"]
FLOAT_LITERALS = ["7.0", "0.5", "0.0", "10.0", "3.2", "1000.0"]


def _mixed_database(documents: int = 30, seed: int = 9,
                    name: str = "vec-mixed") -> XmlDatabase:
    """Randomized documents over the tiny <site> schema with values
    drawn from the mixed pool (so every operator hits genuine type
    boundaries: castable vs not, empty, negative, float)."""
    rng = random.Random(seed)
    database = XmlDatabase(name)
    collection = database.create_collection("site")
    for d in range(documents):
        doc, site = build_document("site")
        region = site.add_element("regions").add_element(
            rng.choice(["africa", "namerica"]))
        for k in range(rng.randint(1, 4)):
            item = region.add_element("item",
                                      attributes={"id": f"i{d}_{k}"})
            item.add_element("quantity", rng.choice(VALUE_POOL))
            item.add_element("price", rng.choice(VALUE_POOL))
            item.add_element("name", rng.choice(VALUE_POOL))
        collection.add_document(doc)
    return database


def _predicate_statements() -> list:
    statements = []
    for op in OPS:
        for literal in STR_LITERALS:
            statements.append(
                'for $i in doc("x")/site/regions/africa/item '
                f'where $i/quantity {op} "{literal}" return $i/name')
        for literal in FLOAT_LITERALS:
            statements.append(
                'for $i in doc("x")/site/regions/africa/item '
                f'where $i/quantity {op} {literal} return $i/name')
    # Conjunctions (set intersection) and attribute predicates.
    statements.append(
        'for $i in doc("x")/site/regions/africa/item '
        'where $i/quantity > 3.0 and $i/price < "7" return $i/name')
    statements.append(
        'for $i in doc("x")/site/regions/africa/item '
        'where $i/@id != "i0_0" return $i/quantity')
    return statements


def _signature(executor: QueryExecutor, statement: str):
    query = normalize_statement(statement)
    result = executor.execute(query, extract=True, extract_values=True)
    return (result.result_count,
            result.documents_examined,
            tuple(node.node_id for node in result.extracted_nodes),
            tuple(result.extracted_values))


def _three_executors(database: XmlDatabase):
    # Hatches pinned explicitly (not inherited from the environment) so
    # the three paths stay distinct under the hatch-off CI matrix jobs.
    return (QueryExecutor(database, use_columnar=True,
                          use_vectorized_predicates=True),
            QueryExecutor(database, use_columnar=True,
                          use_vectorized_predicates=False),
            QueryExecutor(database, use_columnar=False))


class TestEquivalence:
    def test_randomized_predicates_byte_identical(self):
        database = _mixed_database()
        vectorized, hatch, interpretive = _three_executors(database)
        for statement in _predicate_statements():
            expected = _signature(hatch, statement)
            assert _signature(vectorized, statement) == expected, statement
            assert _signature(interpretive, statement) == expected, statement
        # PR 10: the legacy counters became registry metrics -- parity
        # must hold after a randomized workload on every hatch mode.
        for executor in (vectorized, hatch, interpretive):
            assert_counter_parity(executor, EXECUTOR_COUNTERS)

    def test_navigation_only_queries(self):
        database = _mixed_database(seed=11, name="vec-nav")
        vectorized, hatch, interpretive = _three_executors(database)
        for statement in ("/site/regions/africa/item/name",
                          "/site//quantity",
                          "/site/regions/*/item/@id"):
            expected = _signature(hatch, statement)
            assert _signature(vectorized, statement) == expected, statement
            assert _signature(interpretive, statement) == expected, statement

    def test_equivalence_across_interleaved_deltas(self):
        database = _mixed_database(seed=13, name="vec-delta")
        collection = database.collection("site")
        vectorized, hatch, interpretive = _three_executors(database)
        statements = _predicate_statements()[::7]
        rng = random.Random(29)
        for round_number in range(4):
            for statement in statements:
                expected = _signature(hatch, statement)
                assert _signature(vectorized, statement) == expected, statement
                assert _signature(interpretive, statement) == expected, statement
            # Interleave an add and a remove (delta-maintained snapshots
            # carry untouched projections, rebuild touched ones).
            value = rng.choice(VALUE_POOL)
            collection.add_document(
                "<site><regions><africa><item id='d%d'>"
                "<quantity>%s</quantity><name>added</name>"
                "</item></africa></regions></site>" % (round_number, value))
            collection.remove_document(rng.randrange(len(collection)))

    def test_env_hatch_disables_vectorized(self, monkeypatch):
        monkeypatch.setenv("REPRO_USE_VECTORIZED", "0")
        database = _mixed_database(documents=3, seed=3, name="vec-env")
        executor = QueryExecutor(database)
        assert executor.use_vectorized_predicates is False
        executor.execute('for $i in doc("x")/site/regions/africa/item '
                         'where $i/quantity > 3.0 return $i/name')
        assert executor.scan_node_materializations > 0


class TestNoMaterialization:
    def test_vectorized_value_scan_touches_no_nodes(self):
        database = build_varied_database(documents=20, name="vec-zero")
        vectorized = QueryExecutor(database, use_columnar=True,
                                   use_vectorized_predicates=True)
        hatch = QueryExecutor(database, use_columnar=True,
                              use_vectorized_predicates=False)
        statement = ('for $i in doc("x")/site/regions/africa/item '
                     'where $i/quantity > 50.0 return $i/name')
        vec_result = vectorized.execute(statement, extract_values=True)
        hatch_result = hatch.execute(statement, extract_values=True)
        assert vec_result.result_count == hatch_result.result_count
        assert vec_result.extracted_values == hatch_result.extracted_values
        assert vec_result.extracted_values  # non-degenerate workload
        assert vectorized.scan_node_materializations == 0, (
            "the vectorized scan path materialized XmlNode lists")
        assert hatch.scan_node_materializations > 0

    def test_index_plan_residuals_use_the_set_engine(self):
        from repro.index.definition import IndexDefinition
        from repro.xquery.model import ValueType

        database = build_varied_database(documents=40, name="vec-index")
        vectorized = QueryExecutor(database, use_columnar=True,
                                   use_vectorized_predicates=True)
        hatch = QueryExecutor(database, use_columnar=True,
                              use_vectorized_predicates=False)
        statement = ('for $i in doc("x")/site/regions/africa/item '
                     'where $i/quantity > 90.0 return $i/name')
        scan_expected = hatch.execute(statement, extract_values=True)
        for executor in (vectorized, hatch):
            executor.create_indexes([IndexDefinition.create(
                "/site/regions/*/item/quantity", ValueType.DOUBLE)])
        vectorized.scan_node_materializations = 0
        vec_result = vectorized.execute(statement, extract_values=True)
        hatch_result = hatch.execute(statement, extract_values=True)
        assert vec_result.used_index_plan and hatch_result.used_index_plan
        assert vec_result.result_count == scan_expected.result_count
        assert vec_result.extracted_values == hatch_result.extracted_values
        assert vec_result.extracted_values == scan_expected.extracted_values
        assert vectorized.scan_node_materializations == 0
        vectorized.drop_all_indexes()
        hatch.drop_all_indexes()


class TestColumnsAndSynopsisAgree:
    """Satellite: the values column and the statistics synopsis are fed
    by one shared normalizer (`normalized_node_value`), so their
    per-path value views can never disagree."""

    def test_values_column_matches_synopsis_per_path(self):
        database = _mixed_database(seed=17, name="vec-synopsis")
        collection = database.collection("site")
        store = collection.columnar_store
        stats = database.statistics.collection_stats["site"]
        for path, stat in stats.path_stats.items():
            pid = store._path_index.get(path)
            assert pid is not None, path
            positions = store._postings[pid]
            column = [store.values[p] for p in positions]
            assert stat.node_count == len(column)
            # The synopsis records only value-bearing nodes; the column
            # stores "" for structural ones.
            assert stat.distinct_values == len(
                {value for value in column if value})
            castable = []
            for value in column:
                if not value:
                    continue
                try:
                    castable.append(float(value))
                except ValueError:
                    pass
            assert stat.numeric_count == len(castable)
            if castable:
                assert stat.min_value == min(castable)
                assert stat.max_value == max(castable)

    def test_values_column_is_normalized_node_value(self):
        database = XmlDatabase("vec-norm")
        collection = database.create_collection("site")
        collection.add_document(TINY_SITE_XML)
        store = collection.columnar_store
        for position, node in enumerate(store._nodes):
            assert store.values[position] == normalized_node_value(node)


class TestFrozenSubprocess:
    def _run(self, extra_env):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS])
        env["REPRO_USE_VECTORIZED"] = "1"  # assert vectorized even under
        env["REPRO_USE_COLUMNAR"] = "1"    # the hatch-off CI matrix jobs
        env.update(extra_env)
        snippet = """
            from test_vectorized import (_mixed_database, _signature,
                                         _predicate_statements)
            from repro.executor.executor import QueryExecutor

            database = _mixed_database(documents=8, name="vec-frozen")
            collection = database.collection("site")
            vectorized = QueryExecutor(database)
            hatch = QueryExecutor(database, use_vectorized_predicates=False)
            statements = _predicate_statements()[::9]
            for statement in statements:
                assert _signature(vectorized, statement) == \\
                    _signature(hatch, statement), statement
            collection.add_document("<site><regions><africa><item id='z'>"
                                    "<quantity>010</quantity>"
                                    "<name>frozen</name>"
                                    "</item></africa></regions></site>")
            collection.remove_document(0)
            for statement in statements:
                assert _signature(vectorized, statement) == \\
                    _signature(hatch, statement), statement
            print("VECTORIZED-OK", vectorized.scan_node_materializations)
        """
        return subprocess.run([sys.executable, "-c",
                               textwrap.dedent(snippet)],
                              capture_output=True, text=True, env=env)

    def test_runs_under_snapshot_freeze(self):
        completed = self._run({"REPRO_FREEZE_SNAPSHOTS": "1"})
        assert completed.returncode == 0, completed.stderr
        assert "VECTORIZED-OK" in completed.stdout

    def test_runs_under_fault_smoke(self):
        completed = self._run({"REPRO_FAULTS": "smoke",
                               "REPRO_FREEZE_SNAPSHOTS": "1"})
        assert completed.returncode == 0, completed.stderr
        assert "VECTORIZED-OK" in completed.stdout
