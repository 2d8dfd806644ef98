"""Index partitions and exact probes.

A physical index keeps one partition per collection and is keyed by
the values predicates compare, so an index probe whose pattern,
operator and key type match a predicate answers it exactly and the
executor skips that predicate's residual check.  The tests pin the
properties that make this sound:

* keys are ``typed_value()``/``double_value()`` (descendant text
  included), NaN keys live outside the sorted column, and a DOUBLE
  index never answers an existence test;
* a delete touches only its own collection's partition;
* index plans, no-index scans and the interpretive executor agree on
  randomized multi-predicate queries over two collections with tied
  keys, across interleaved adds and removes, while the maintained
  entries stay identical to fresh rebuilds;
* ``executor.residual.predicates`` stays 0 for all-exact plans.
"""

from __future__ import annotations

import random

import pytest

from repro.executor.executor import QueryExecutor
from repro.index.definition import IndexDefinition
from repro.index.matching import answers_exactly
from repro.index.physical import build_physical_index
from repro.storage.document_store import XmlDatabase
from repro.xpath.ast import BinaryOp
from repro.xpath.patterns import PathPattern
from repro.xquery.model import PathPredicate, ValueType
from repro.xquery.normalizer import normalize_statement

#: Filler elements: they make a document scan expensive enough that the
#: optimizer picks index plans for selective predicates.
_PAD = "".join(f"<p{j}>filler text {j}</p{j}>" for j in range(30))


def _database(documents, name="probes", collections=("r",)):
    database = XmlDatabase(name)
    for collection in collections:
        target = database.create_collection(collection)
        for xml in documents:
            target.add_document(xml)
    return database


def _executed(executor, statement):
    result = executor.execute(statement, extract_values=True)
    return result.result_count, result.extracted_values


# ----------------------------------------------------------------------
# Keys are the values predicates compare
# ----------------------------------------------------------------------
class TestNanKeys:
    VALUES = ["1", "NaN", "3", "NaN", "5", "7", "NaN", "2", "9", "4"]

    def _index(self):
        database = _database([f"<r><v>{v}</v></r>" for v in self.VALUES])
        definition = IndexDefinition.create("/r/v", ValueType.DOUBLE)
        return build_physical_index(definition, database)

    def test_nan_keys_stay_out_of_the_sorted_keys(self):
        keys = [entry.key for entry in self._index().entries]
        ordered = [key for key in keys if key == key]
        assert ordered == [1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 9.0]
        assert keys[:len(ordered)] == ordered
        assert all(key != key for key in keys[len(ordered):])
        assert len(keys) == len(self.VALUES)

    def test_nan_satisfies_only_not_equal(self):
        index = self._index()
        assert [(e.key, e.doc_id) for e in index.lookup_equal(2.0)] == [(2.0, 7)]
        assert len(index.lookup_range(BinaryOp.LT, 100.0)) == 7
        assert len(index.lookup_range(BinaryOp.GE, -100.0)) == 7
        assert len(index.lookup_range(BinaryOp.NE, 2.0)) == 9
        assert index.lookup_equal(float("nan")) == []
        assert len(index.lookup_range(BinaryOp.NE, float("nan"))) == 10
        documents, scanned = index.probe(BinaryOp.GT, 4.0)
        assert documents == {"r": {4, 5, 8}} and scanned == 3

    def test_nan_index_plans_match_scans(self):
        rng = random.Random(5)
        values = ["NaN" if rng.random() < 0.3 else str(rng.randrange(200))
                  for _ in range(400)]
        database = _database([f"<r><v>{v}</v><w>{i}</w>{_PAD}</r>"
                              for i, v in enumerate(values)])
        scan = QueryExecutor(database)
        indexed = QueryExecutor(database)
        indexed.create_indexes([IndexDefinition.create("/r/v", ValueType.DOUBLE)])
        index_plans = 0
        for literal in range(0, 200, 7):
            for op in ("=", "<", ">"):
                statement = (f'for $d in doc("x")/r where $d/v {op} {literal}.0 '
                             'return $d/w')
                result = indexed.execute(statement, extract_values=True)
                index_plans += result.used_index_plan
                assert (result.result_count, result.extracted_values) == \
                    _executed(scan, statement), statement
        assert index_plans > 0


class TestElementKeys:
    def test_element_keys_include_descendant_text(self):
        database = _database(["<r><v>k5<b>x</b></v></r>", "<r><v>k5</v></r>"])
        index = build_physical_index(
            IndexDefinition.create("/r/v", ValueType.VARCHAR), database)
        assert [entry.key for entry in index.entries] == ["k5", "k5x"]

    def test_descendant_text_matches_in_index_plans(self):
        documents = [f"<r><v>k{i % 200}<b>x</b></v><w>{i}</w>{_PAD}</r>"
                     if i % 2 else f"<r><v>k{i % 200}</v><w>{i}</w>{_PAD}</r>"
                     for i in range(400)]
        database = _database(documents)
        statement = 'for $d in doc("x")/r where $d/v = "k5x" return $d/w'
        expected = _executed(QueryExecutor(database), statement)
        indexed = QueryExecutor(database)
        indexed.create_indexes([IndexDefinition.create("/r/v", ValueType.VARCHAR)])
        result = indexed.execute(statement, extract_values=True)
        assert result.used_index_plan
        assert expected[0] == 2
        assert (result.result_count, result.extracted_values) == expected


class TestExistence:
    def test_double_index_does_not_answer_existence(self):
        documents = []
        for i in range(400):
            group = ""
            if i % 10 == 0:
                group = f"<g>{i}</g>" if i % 20 == 0 else "<g><v>k7</v></g>"
            documents.append(f"<r>{group}<w>{i}</w>{_PAD}</r>")
        database = _database(documents)
        statement = ("SELECT 1 FROM r WHERE XMLEXISTS("
                     "'$d/r/g[v = \"k7\"]' PASSING doc AS \"d\")")
        expected = QueryExecutor(database).execute(statement).result_count
        indexed = QueryExecutor(database)
        indexed.create_indexes([IndexDefinition.create("/r/g", ValueType.DOUBLE)])
        assert expected == 20
        assert indexed.execute(statement).result_count == expected


class TestSelfMatchingDescendant:
    def test_self_matching_predicate_path_matches_no_index(self):
        # ``/a//a`` also selects the root ``a`` under the evaluator's
        # descendant-or-self semantics, which the strict index pattern
        # ``/a//a`` does not index.
        documents = ["<a>k5</a>" if i % 100 == 0 else
                     f"<a><w>{i}</w><b><a>m{i}</a></b>{_PAD}</a>"
                     for i in range(400)]
        database = _database(documents)
        statement = 'for $d in doc("x")/a where $d//a = "k5" return $d/w'
        expected = QueryExecutor(database, use_columnar=False).execute(
            statement).result_count
        indexed = QueryExecutor(database)
        indexed.create_indexes([IndexDefinition.create("/a//a", ValueType.VARCHAR)])
        result = indexed.execute(statement)
        assert expected == 4
        assert result.result_count == expected
        assert not result.used_index_plan


# ----------------------------------------------------------------------
# Exactness rule
# ----------------------------------------------------------------------
def _predicate(text, op=None, value=None, value_type=ValueType.VARCHAR):
    return PathPredicate(pattern=PathPattern.parse(text), op=op, value=value,
                         value_type=value_type)


class TestAnswersExactly:
    def test_equal_pattern_matching_type_and_range_operator(self):
        varchar = IndexDefinition.create("/r/v", ValueType.VARCHAR)
        double = IndexDefinition.create("/r/v", ValueType.DOUBLE)
        for op in (BinaryOp.EQ, BinaryOp.LT, BinaryOp.LE, BinaryOp.GT,
                   BinaryOp.GE):
            assert answers_exactly(varchar, _predicate("/r/v", op, "k"))
            assert answers_exactly(double, _predicate(
                "/r/v", op, 3.0, ValueType.DOUBLE))

    def test_everything_else_needs_a_residual(self):
        varchar = IndexDefinition.create("/r/v", ValueType.VARCHAR)
        double = IndexDefinition.create("/r/v", ValueType.DOUBLE)
        assert not answers_exactly(varchar, _predicate("/r/v"))
        assert not answers_exactly(varchar, _predicate("/r/v", BinaryOp.NE, "k"))
        assert not answers_exactly(double, _predicate(
            "/r/v", BinaryOp.EQ, "3", ValueType.DOUBLE))
        assert not answers_exactly(
            IndexDefinition.create("/r/*", ValueType.VARCHAR),
            _predicate("/r/v", BinaryOp.EQ, "k"))
        assert not answers_exactly(
            IndexDefinition.create("/r//r", ValueType.VARCHAR),
            _predicate("/r//r", BinaryOp.EQ, "k"))

    def test_self_matching_descendant_is_where_the_matchers_differ(self):
        paths = ["/" + "/".join(labels) for labels in
                 [("a",), ("a", "a"), ("a", "b"), ("a", "b", "a"),
                  ("a", "a", "b"), ("b", "a", "a", "b")]]
        for text in ["/a//a", "//a//*", "/a/*//b", "//*//a", "/a//b",
                     "//a/b", "/a//b//a", "//b//a/@id"]:
            pattern = PathPattern.parse(text)
            differs = any(pattern.matches(path) != pattern.matches_evaluator(path)
                          for path in paths)
            if not pattern.has_self_matching_descendant:
                assert not differs, text


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
class TestPartitions:
    def test_delete_leaves_other_collections_untouched(self):
        documents = [f"<r><v>k{i % 3}</v><v>k{i % 2}</v></r>" for i in range(6)]
        database = _database(documents, collections=("a", "b"))
        definition = IndexDefinition.create("/r/v", ValueType.VARCHAR)
        index = build_physical_index(definition, database)
        other = index._partitions["b"]
        columns = (other.keys, other.docs, other.nodes)
        before = list(zip(*columns))
        database.collection("a").remove_document(2)
        (delta,) = database.collection("a").deltas_since(
            database.collection("a").version - 1)
        assert index.apply_collection_delta(delta) == 2
        after = index._partitions["b"]
        assert after is other
        assert (after.keys, after.docs, after.nodes) == columns
        assert all(now is then for now, then in
                   zip((after.keys, after.docs, after.nodes), columns))
        assert list(zip(after.keys, after.docs, after.nodes)) == before
        assert index.entries == build_physical_index(definition, database).entries

    def test_ties_across_collections_keep_canonical_order(self):
        documents = [f"<r><v>k{i % 2}</v></r>" for i in range(4)]
        database = _database(documents, collections=("b", "a"))
        index = build_physical_index(
            IndexDefinition.create("/r/v", ValueType.VARCHAR), database)
        assert [(e.key, e.doc_id, e.collection) for e in index.entries][:4] == [
            ("k0", 0, "a"), ("k0", 0, "b"), ("k0", 2, "a"), ("k0", 2, "b")]


# ----------------------------------------------------------------------
# Residual predicates
# ----------------------------------------------------------------------
def _two_predicate_database():
    documents = [f"<r><s><v>k{i % 50}</v></s><n>{i % 97}</n><w>{i}</w>{_PAD}</r>"
                 for i in range(400)]
    return _database(documents, name="residual")


_TWO_PREDICATES = ('for $d in doc("x")/r where $d/s/v = "k7" and $d/n < 40.0 '
                   'return $d/w')


class TestResidualCounter:
    def test_all_exact_plan_checks_no_residual(self):
        database = _two_predicate_database()
        expected = _executed(QueryExecutor(database), _TWO_PREDICATES)
        executor = QueryExecutor(database)
        executor.create_indexes([
            IndexDefinition.create("/r/s/v", ValueType.VARCHAR),
            IndexDefinition.create("/r/n", ValueType.DOUBLE)])
        plan = executor.optimizer.optimize(
            normalize_statement(_TWO_PREDICATES),
            candidate_indexes=database.catalog.usable_physical_indexes)
        scans = executor._index_scans(plan)
        assert scans and all(answers_exactly(scan.index, scan.predicate)
                             for scan in scans)
        assert len(scans) == 2, plan.render()
        result = executor.execute(_TWO_PREDICATES, extract_values=True)
        assert result.used_index_plan
        assert (result.result_count, result.extracted_values) == expected
        assert executor.metrics.counter("executor.residual.predicates").value == 0

    def test_containing_index_leaves_a_residual(self):
        database = _two_predicate_database()
        expected = _executed(QueryExecutor(database), _TWO_PREDICATES)
        executor = QueryExecutor(database)
        executor.create_indexes([
            IndexDefinition.create("/r/*/v", ValueType.VARCHAR)])
        result = executor.execute(_TWO_PREDICATES, extract_values=True)
        assert result.used_index_plan
        assert (result.result_count, result.extracted_values) == expected
        # Both predicates: the containing probe's and the unprobed one.
        assert executor.metrics.counter("executor.residual.predicates").value == 2


# ----------------------------------------------------------------------
# Randomized equivalence: index plan vs scan vs interpreter
# ----------------------------------------------------------------------
_SHAPES = [
    IndexDefinition.create("/r/s/v", ValueType.VARCHAR),   # exact
    IndexDefinition.create("/r/n", ValueType.DOUBLE),      # exact
    IndexDefinition.create("/r/*/v", ValueType.VARCHAR),   # wildcard, containing
    IndexDefinition.create("//v", ValueType.VARCHAR),      # //, containing
    IndexDefinition.create("//n", ValueType.DOUBLE),       # //, containing
    IndexDefinition.create("/r/t/@c", ValueType.VARCHAR),  # exact attribute
]


def _random_document(rng):
    """One document; ``v`` sometimes carries descendant text, ``n`` is
    sometimes NaN or non-numeric, and the values repeat so keys tie
    within and across collections."""
    v = f"k{rng.randrange(12)}"
    if rng.random() < 0.25:
        v += "<b>x</b>"
    n = rng.choice(["NaN", "abc"]) if rng.random() < 0.2 else str(rng.randrange(60))
    t = f"<t c=\"c{rng.randrange(6)}\"><v>k{rng.randrange(12)}</v></t>"
    return (f"<r><s><v>{v}</v></s>{t}<n>{n}</n><w>{rng.randrange(1000)}</w>"
            f"{_PAD}</r>")


def _random_query(rng):
    clauses = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            clauses.append(f'$d/s/v = "k{rng.randrange(12)}'
                           f'{"x" if rng.random() < 0.3 else ""}"')
        elif kind == 1:
            op = rng.choice(["=", "<", "<=", ">", ">=", "!="])
            clauses.append(f"$d/n {op} {rng.randrange(60)}.0")
        elif kind == 2:
            clauses.append(f'$d/t/@c = "c{rng.randrange(6)}"')
        else:
            op = rng.choice(["<", ">="])
            clauses.append(f'$d/t/v {op} "k{rng.randrange(12)}"')
    return (f'for $d in doc("x")/r where {" and ".join(clauses)} '
            'return $d/w')


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_index_plan_equivalence(seed):
    rng = random.Random(seed)
    database = XmlDatabase(f"probe-equivalence-{seed}")
    for name in ("a", "b"):
        collection = database.create_collection(name)
        for _ in range(60):
            collection.add_document(_random_document(rng))
    shapes = rng.sample(_SHAPES, 4)
    indexed = QueryExecutor(database)
    indexed.create_indexes(shapes)
    scan = QueryExecutor(database)
    interpreter = QueryExecutor(database, use_columnar=False)
    index_plans = 0
    for step in range(10):
        for _ in range(6):
            statement = _random_query(rng)
            result = indexed.execute(statement, extract_values=True)
            index_plans += result.used_index_plan
            got = (result.result_count, result.extracted_values)
            assert got == _executed(scan, statement), (step, statement)
            assert got == _executed(interpreter, statement), (step, statement)
        for definition in shapes:
            maintained = indexed._indexes[definition.as_physical().key]
            assert maintained.entries == build_physical_index(
                definition, database).entries, (step, definition.name)
        collection = database.collection(rng.choice(("a", "b")))
        if rng.random() < 0.5 and len(collection) > 2:
            collection.remove_document(rng.randrange(len(collection)))
        else:
            collection.add_document(_random_document(rng))
    assert index_plans >= 10
    assert indexed.index_rebuilds == 0
