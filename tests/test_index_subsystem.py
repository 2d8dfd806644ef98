"""Unit tests for index definitions, matching, sizing, and physical indexes."""

from __future__ import annotations

import pytest

from repro.index.definition import IndexConfiguration, IndexDefinition
from repro.index.matching import index_matches_predicate, usable_indexes
from repro.index.physical import PhysicalPathIndex, build_physical_index
from repro.index.sizing import (
    estimate_entry_count,
    estimate_index_pages,
    estimate_index_size_bytes,
    estimate_key_width,
)
from repro.storage import pages
from repro.xpath.ast import BinaryOp
from repro.xpath.patterns import PathPattern
from repro.xquery.model import PathPredicate, ValueType


def _predicate(pattern, op=None, value=None, value_type=ValueType.VARCHAR):
    return PathPredicate(pattern=PathPattern.parse(pattern), op=op, value=value,
                         value_type=value_type)


class TestIndexDefinition:
    def test_create_derives_name(self):
        definition = IndexDefinition.create("/site/regions/*/item/quantity",
                                            ValueType.DOUBLE)
        assert definition.name.startswith("idx_")
        assert "quantity" in definition.name
        assert definition.value_type is ValueType.DOUBLE

    def test_key_identity(self):
        first = IndexDefinition.create("/a/b", name="one")
        second = IndexDefinition.create("/a/b", name="two")
        assert first.key == second.key
        different_type = IndexDefinition.create("/a/b", ValueType.DOUBLE)
        assert different_type.key != first.key

    def test_virtual_physical_round_trip(self):
        definition = IndexDefinition.create("/a/b")
        virtual = definition.as_virtual()
        assert virtual.is_virtual and not definition.is_virtual
        assert virtual.as_physical().is_virtual is False
        assert virtual.as_virtual() is virtual

    def test_ddl_statement(self):
        definition = IndexDefinition.create("/a/b/@id", ValueType.VARCHAR,
                                            collection="orders", name="idx_x")
        ddl = definition.ddl()
        assert "CREATE INDEX idx_x ON orders" in ddl
        assert "XMLPATTERN '/a/b/@id'" in ddl
        assert "VARCHAR" in ddl
        double_ddl = IndexDefinition.create("/a/b", ValueType.DOUBLE).ddl()
        assert "AS SQL DOUBLE" in double_ddl


class TestIndexConfiguration:
    def test_deduplicates_by_key(self):
        configuration = IndexConfiguration()
        assert configuration.add(IndexDefinition.create("/a/b", name="one"))
        assert not configuration.add(IndexDefinition.create("/a/b", name="two"))
        assert len(configuration) == 1

    def test_remove_by_key(self):
        configuration = IndexConfiguration([IndexDefinition.create("/a/b")])
        assert configuration.remove(IndexDefinition.create("/a/b", name="other"))
        assert len(configuration) == 0
        assert not configuration.remove(IndexDefinition.create("/a/b"))

    def test_contains_and_contains_pattern(self):
        definition = IndexDefinition.create("/a/b", ValueType.DOUBLE)
        configuration = IndexConfiguration([definition])
        assert definition in configuration
        assert configuration.contains_pattern(PathPattern.parse("/a/b"))
        assert configuration.contains_pattern(PathPattern.parse("/a/b"), ValueType.DOUBLE)
        assert not configuration.contains_pattern(PathPattern.parse("/a/b"),
                                                  ValueType.VARCHAR)

    def test_union_and_difference(self):
        first = IndexConfiguration([IndexDefinition.create("/a")], name="a")
        second = IndexConfiguration([IndexDefinition.create("/b")], name="b")
        union = first.union(second)
        assert len(union) == 2
        difference = union.difference(second)
        assert [d.pattern.to_text() for d in difference] == ["/a"]

    def test_copy_is_independent(self):
        original = IndexConfiguration([IndexDefinition.create("/a")])
        copy = original.copy()
        copy.add(IndexDefinition.create("/b"))
        assert len(original) == 1

    def test_describe(self):
        configuration = IndexConfiguration([IndexDefinition.create("/a/b")], name="cfg")
        assert "/a/b" in configuration.describe()
        assert "(empty)" in IndexConfiguration(name="empty").describe()


class TestIndexMatching:
    def test_exact_pattern_match(self):
        index = IndexDefinition.create("/a/b/c", ValueType.VARCHAR)
        predicate = _predicate("/a/b/c", BinaryOp.EQ, "x")
        match = index_matches_predicate(index, predicate)
        assert match is not None and match.exact

    def test_containing_pattern_match(self):
        index = IndexDefinition.create("/a/*/c", ValueType.VARCHAR)
        predicate = _predicate("/a/b/c", BinaryOp.EQ, "x")
        match = index_matches_predicate(index, predicate)
        assert match is not None and not match.exact

    def test_non_containing_pattern_rejected(self):
        index = IndexDefinition.create("/a/b/c", ValueType.VARCHAR)
        predicate = _predicate("/a/*/c", BinaryOp.EQ, "x")
        assert index_matches_predicate(index, predicate) is None

    def test_type_compatibility(self):
        varchar_index = IndexDefinition.create("/a/b", ValueType.VARCHAR)
        double_index = IndexDefinition.create("/a/b", ValueType.DOUBLE)
        numeric = _predicate("/a/b", BinaryOp.GT, 5.0, ValueType.DOUBLE)
        textual = _predicate("/a/b", BinaryOp.EQ, "x", ValueType.VARCHAR)
        assert index_matches_predicate(double_index, numeric) is not None
        assert index_matches_predicate(varchar_index, numeric) is None
        assert index_matches_predicate(varchar_index, textual) is not None
        assert index_matches_predicate(double_index, textual) is None

    def test_existence_predicate_matches_only_varchar(self):
        # A DOUBLE index skips nodes whose value does not cast, so it
        # cannot enumerate every node an existence test needs.
        existence = _predicate("/a/b")
        varchar_index = IndexDefinition.create("/a/b", ValueType.VARCHAR)
        double_index = IndexDefinition.create("/a/b", ValueType.DOUBLE)
        assert index_matches_predicate(varchar_index, existence) is not None
        assert index_matches_predicate(double_index, existence) is None

    def test_universal_index_matches_everything_elementwise(self):
        universal = IndexDefinition.create("//*", ValueType.VARCHAR)
        assert index_matches_predicate(universal, _predicate("/deep/path/here")) is not None
        assert index_matches_predicate(universal, _predicate("/a/@id")) is None

    def test_usable_indexes_orders_exact_first(self):
        exact = IndexDefinition.create("/a/b/c", ValueType.VARCHAR)
        general = IndexDefinition.create("/a//c", ValueType.VARCHAR)
        unrelated = IndexDefinition.create("/x/y", ValueType.VARCHAR)
        matches = usable_indexes([general, unrelated, exact],
                                 _predicate("/a/b/c", BinaryOp.EQ, "v"))
        assert [m.index.pattern.to_text() for m in matches] == ["/a/b/c", "/a//c"]


class TestSizing:
    def test_entry_count_counts_matching_nodes(self, tiny_database):
        stats = tiny_database.statistics
        index = IndexDefinition.create("/site/regions/*/item/quantity", ValueType.DOUBLE)
        # 3 items per document x 3 documents.
        assert estimate_entry_count(index, stats) == 9

    def test_double_index_skips_non_numeric(self, tiny_database):
        stats = tiny_database.statistics
        name_double = IndexDefinition.create("/site/people/person/name", ValueType.DOUBLE)
        assert estimate_entry_count(name_double, stats) == 0
        name_varchar = IndexDefinition.create("/site/people/person/name", ValueType.VARCHAR)
        assert estimate_entry_count(name_varchar, stats) == 6

    def test_key_width_by_type(self, tiny_database):
        stats = tiny_database.statistics
        double_index = IndexDefinition.create("/site/regions/*/item/price", ValueType.DOUBLE)
        assert estimate_key_width(double_index, stats) == pages.DOUBLE_KEY_BYTES
        varchar_index = IndexDefinition.create("/site/people/person/name", ValueType.VARCHAR)
        assert 1.0 <= estimate_key_width(varchar_index, stats) <= 64.0

    def test_more_general_pattern_is_larger(self, tiny_database):
        stats = tiny_database.statistics
        specific = IndexDefinition.create("/site/regions/africa/item/quantity",
                                          ValueType.DOUBLE)
        general = IndexDefinition.create("/site/regions/*/item/quantity",
                                         ValueType.DOUBLE)
        universal = IndexDefinition.create("//*", ValueType.VARCHAR)
        assert estimate_index_size_bytes(specific, stats) < \
            estimate_index_size_bytes(general, stats)
        assert estimate_index_size_bytes(general, stats) < \
            estimate_index_size_bytes(universal, stats)

    def test_empty_index_costs_one_page(self, tiny_database):
        stats = tiny_database.statistics
        empty = IndexDefinition.create("/nothing/matches")
        assert estimate_index_size_bytes(empty, stats) == pages.PAGE_SIZE_BYTES
        assert estimate_index_pages(empty, stats) == 1


class TestPhysicalIndex:
    def test_build_and_point_lookup(self, tiny_database):
        definition = IndexDefinition.create("/site/regions/*/item/quantity",
                                            ValueType.DOUBLE)
        index = build_physical_index(definition, tiny_database)
        assert index.entry_count == 9
        hits = index.lookup_equal(7.0)
        assert len(hits) == 3  # one per document copy
        assert all(entry.key == pytest.approx(7.0) for entry in hits)

    def test_range_lookups(self, tiny_database):
        definition = IndexDefinition.create("/site/regions/*/item/quantity",
                                            ValueType.DOUBLE)
        index = build_physical_index(definition, tiny_database)
        assert len(index.lookup_range(BinaryOp.GT, 5.0)) == 6   # 7 and 9 per doc
        assert len(index.lookup_range(BinaryOp.LE, 2.0)) == 3
        assert len(index.lookup_range(BinaryOp.GE, 2.0)) == 9
        assert len(index.lookup_range(BinaryOp.NE, 7.0)) == 6

    def test_varchar_index_lookup(self, tiny_database):
        definition = IndexDefinition.create("/site/regions/*/item/payment",
                                            ValueType.VARCHAR)
        index = build_physical_index(definition, tiny_database)
        assert len(index.lookup_equal("Creditcard")) == 6

    def test_attribute_index(self, tiny_database):
        definition = IndexDefinition.create("/site/people/person/@id",
                                            ValueType.VARCHAR)
        index = build_physical_index(definition, tiny_database)
        assert index.entry_count == 6
        assert len(index.lookup_equal("p1")) == 3

    def test_double_index_skips_uncastable_values(self, tiny_database):
        definition = IndexDefinition.create("/site/people/person/name",
                                            ValueType.DOUBLE)
        index = build_physical_index(definition, tiny_database)
        assert index.entry_count == 0

    def test_scan_returns_sorted_entries(self, tiny_database):
        definition = IndexDefinition.create("/site/regions/*/item/quantity",
                                            ValueType.DOUBLE)
        index = build_physical_index(definition, tiny_database)
        keys = [entry.key for entry in index.scan()]
        assert keys == sorted(keys)

    def test_lookup_before_finalize_raises(self):
        index = PhysicalPathIndex(IndexDefinition.create("/a/b"))
        index.insert("x", "c", 0, 1)
        with pytest.raises(RuntimeError):
            index.lookup_equal("x")

    def test_insert_after_finalize_raises(self):
        index = PhysicalPathIndex(IndexDefinition.create("/a/b"))
        index.finalize()
        with pytest.raises(RuntimeError):
            index.insert("x", "c", 0, 1)

    def test_virtual_definition_rejected(self):
        with pytest.raises(ValueError):
            PhysicalPathIndex(IndexDefinition.create("/a/b", is_virtual=True))

    def test_size_accounting(self, tiny_database):
        definition = IndexDefinition.create("/site/regions/*/item/quantity",
                                            ValueType.DOUBLE)
        index = build_physical_index(definition, tiny_database)
        assert index.size_bytes > 0
        assert index.size_pages >= 1
