"""Physical XML path indexes.

A physical index materializes the (key, document id, node id) entries
for every node matched by the index pattern, sorted by key, so the
executor can answer equality and range predicates with binary search
instead of scanning documents.  This is what the demo's last step does:
"review the final recommended index configuration and ... create it.
The actual execution time taken by the queries can then be displayed."

Layout: one *partition* per collection -- parallel columns of key,
document id and node id in canonical (key, doc, node) order.  A
document add or remove touches only its own collection's partition:
an added document always holds the collection's largest doc key, so
each of its entries goes in at the right end of its key's run; a
removal drops the document's rows and slides the later doc ids down by
one, a monotone shift that keeps the order.  Keys are the values
predicates compare (``typed_value()`` for VARCHAR, ``double_value()``
for DOUBLE); a DOUBLE partition keeps NaN keys in a side column, since
NaN is unordered and satisfies only ``!=``.
"""

from __future__ import annotations

import bisect
import heapq
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.faults import guarded_fault_point
from repro.index.definition import IndexDefinition
from repro.storage import pages
from repro.storage.document_store import XmlDatabase
from repro.xpath.ast import BinaryOp
from repro.xquery.model import ValueType

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    from repro.storage.maintenance import CollectionDelta, DocumentDelta

#: The one NaN object every NaN entry reports as its key, so entry lists
#: of two indexes compare equal (NaN equals only itself by identity).
_NAN = float("nan")

Key = Union[str, float]


@dataclass(frozen=True)
class IndexEntry:
    """One index entry: key value plus the node's address."""

    key: Key
    collection: str
    doc_id: int
    node_id: int


class _Partition:
    """One collection's entries: parallel columns sorted by
    (key, doc id, node id), plus the NaN-keyed rows sorted by
    (doc id, node id)."""

    __slots__ = ("keys", "docs", "nodes", "nan_docs", "nan_nodes")

    def __init__(self, rows: List[Tuple[Key, int, int]],
                 nan_rows: List[Tuple[int, int]]) -> None:
        rows.sort()
        nan_rows.sort()
        self.keys: List[Key] = [key for key, _, _ in rows]
        self.docs = array("q", (doc for _, doc, _ in rows))
        self.nodes = array("q", (node for _, _, node in rows))
        self.nan_docs = array("q", (doc for doc, _ in nan_rows))
        self.nan_nodes = array("q", (node for _, node in nan_rows))

    def __len__(self) -> int:
        return len(self.keys) + len(self.nan_docs)

    def insert(self, key: Key, doc: int, node: int) -> None:
        if key != key:
            at = len(self.nan_docs)
            while at and (self.nan_docs[at - 1], self.nan_nodes[at - 1]) > (doc, node):
                at -= 1
            self.nan_docs.insert(at, doc)
            self.nan_nodes.insert(at, node)
            return
        # Usually the added document holds the largest doc key, so the
        # entry goes at the right end of its key's run; the walk back
        # keeps the canonical order for any other insertion.
        keys = self.keys
        at = bisect.bisect_right(keys, key)
        low = bisect.bisect_left(keys, key, 0, at)
        while at > low and (self.docs[at - 1], self.nodes[at - 1]) > (doc, node):
            at -= 1
        keys.insert(at, key)
        self.docs.insert(at, doc)
        self.nodes.insert(at, node)

    def delete(self, doc_key: int) -> int:
        """Drop ``doc_key``'s rows and slide later doc ids down by one."""
        if max(self.docs, default=-1) < doc_key \
                and max(self.nan_docs, default=-1) < doc_key:
            return 0
        keep = [doc != doc_key for doc in self.docs]
        nan_keep = [doc != doc_key for doc in self.nan_docs]
        self.keys = list(compress(self.keys, keep))
        self.docs = _shifted(compress(self.docs, keep), doc_key)
        self.nodes = array("q", compress(self.nodes, keep))
        self.nan_docs = _shifted(compress(self.nan_docs, nan_keep), doc_key)
        self.nan_nodes = array("q", compress(self.nan_nodes, nan_keep))
        return keep.count(False) + nan_keep.count(False)

    def select(self, op: Optional[BinaryOp], value: Optional[Key]
               ) -> Tuple[List[Tuple[int, int]], bool]:
        """The row ranges of the main columns satisfying ``key op value``,
        and whether the NaN rows satisfy it too.  ``op is None`` selects
        every row (an existence scan)."""
        everything = [(0, len(self.keys))]
        if op is None or value is None:
            return everything, True
        if value != value:  # a NaN literal: only != holds, for every key
            return (everything, True) if op is BinaryOp.NE else ([], False)
        keys = self.keys
        if op is BinaryOp.EQ:
            return [(bisect.bisect_left(keys, value),
                     bisect.bisect_right(keys, value))], False
        if op is BinaryOp.NE:
            return [(0, bisect.bisect_left(keys, value)),
                    (bisect.bisect_right(keys, value), len(keys))], True
        if op is BinaryOp.LT:
            return [(0, bisect.bisect_left(keys, value))], False
        if op is BinaryOp.LE:
            return [(0, bisect.bisect_right(keys, value))], False
        if op is BinaryOp.GT:
            return [(bisect.bisect_right(keys, value), len(keys))], False
        if op is BinaryOp.GE:
            return [(bisect.bisect_left(keys, value), len(keys))], False
        raise ValueError(f"unsupported operator for index lookup: {op}")


class PhysicalPathIndex:
    """A partitioned sorted-array implementation of an XML path/value index.

    Keys are either normalized strings (VARCHAR indexes) or floats
    (DOUBLE indexes).  The structure supports point lookups, range scans
    and full scans, and reports its actual size in bytes and pages.
    :meth:`probe` is the executor's access path; :attr:`entries`,
    :meth:`lookup_equal`, :meth:`lookup_range` and :meth:`scan` are
    views in the canonical (key, doc, node, collection) order, with
    NaN-keyed entries last.
    """

    def __init__(self, definition: IndexDefinition) -> None:
        if definition.is_virtual:
            raise ValueError(
                f"cannot build a physical structure for virtual index {definition.name!r}")
        self.definition = definition
        self._numeric = definition.value_type is ValueType.DOUBLE
        self._pending: List[Tuple[Key, str, int, int]] = []
        self._partitions: Dict[str, _Partition] = {}
        #: Simple path -> does the index pattern match it (the pattern
        #: never changes, and documents repeat the same few paths).
        self._path_matches: Dict[str, bool] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def insert(self, key: Key, collection: str, doc_id: int,
               node_id: int) -> None:
        if self._finalized:
            raise RuntimeError("index already finalized; rebuild to add entries")
        self._pending.append((self._coerce(key), collection, doc_id, node_id))

    def finalize(self) -> "PhysicalPathIndex":
        """Sort each collection's entries into its partition and freeze
        the index."""
        rows: Dict[str, List[Tuple[Key, int, int]]] = {}
        nan_rows: Dict[str, List[Tuple[int, int]]] = {}
        for key, collection, doc_id, node_id in self._pending:
            rows.setdefault(collection, [])
            if key != key:
                nan_rows.setdefault(collection, []).append((doc_id, node_id))
            else:
                rows[collection].append((key, doc_id, node_id))
        self._pending = []
        self._partitions = {
            collection: _Partition(collection_rows,
                                   nan_rows.get(collection, []))
            for collection, collection_rows in rows.items()}
        self._finalized = True
        return self

    # ------------------------------------------------------------------
    # Incremental maintenance (against a finalized index)
    # ------------------------------------------------------------------
    def apply_collection_delta(self, delta: "CollectionDelta") -> int:
        """Maintain the finalized index for one document add/remove.

        Returns the number of entries inserted/deleted.  The resulting
        entries are byte-identical to rebuilding the index over the
        post-change documents; only the delta's own collection's
        partition is touched.
        """
        # Consulted before any mutation: a persistent fault leaves the
        # structure untouched, but the caller cannot know that and must
        # treat the index as unmaintained (rebuild or degrade).
        guarded_fault_point("index.delta_apply")
        if delta.is_add:
            return self.insert_document(delta.collection, delta.document)
        return self.delete_document(delta.collection, delta.document.doc_key)

    def insert_document(self, collection: str,
                        document: "DocumentDelta") -> int:
        """Insert one new document's entries into its collection's
        partition."""
        self._require_finalized()
        if not self._covers(collection):
            return 0
        added: List[Tuple[Key, int]] = []
        for path, nodes in document.path_groups.items():
            matched = self._path_matches.get(path)
            if matched is None:
                matched = self._path_matches[path] = \
                    self.definition.pattern.matches(path)
            if matched:
                for node in nodes:
                    key = _key_for_node(node, self._numeric)
                    if key is not None:
                        added.append((key, node.node_id))
        if not added:
            return 0
        partition = self._partitions.get(collection)
        if partition is None:
            partition = self._partitions[collection] = _Partition([], [])
        for key, node_id in added:
            partition.insert(key, document.doc_key, node_id)
        return len(added)

    def delete_document(self, collection: str, doc_key: int) -> int:
        """Delete one document's entries and shift later document ids."""
        self._require_finalized()
        if not self._covers(collection):
            return 0
        partition = self._partitions.get(collection)
        if partition is None:
            return 0
        return partition.delete(doc_key)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return sum(len(partition) for partition in self._partitions.values())

    @property
    def entries(self) -> List[IndexEntry]:
        return self._view(None, None)

    def probe(self, op: Optional[BinaryOp], value: Optional[Key]
              ) -> Tuple[Dict[str, Set[int]], int]:
        """Doc-id sets per collection of the entries satisfying
        ``key op value`` (every entry when ``op`` is ``None``), and the
        number of entries scanned -- without creating entry objects."""
        self._require_finalized()
        if op is not None and value is not None:
            value = self._coerce(value)
        documents: Dict[str, Set[int]] = {}
        scanned = 0
        for collection, partition in self._partitions.items():
            ranges, with_nan = partition.select(op, value)
            docs: Set[int] = set()
            for low, high in ranges:
                if high > low:
                    docs.update(partition.docs[low:high])
                    scanned += high - low
            if with_nan and partition.nan_docs:
                docs.update(partition.nan_docs)
                scanned += len(partition.nan_docs)
            if docs:
                documents[collection] = docs
        return documents, scanned

    def lookup_equal(self, value: Key) -> List[IndexEntry]:
        """All entries whose key equals ``value``."""
        return self.lookup_range(BinaryOp.EQ, value)

    def lookup_range(self, op: BinaryOp, value: Key) -> List[IndexEntry]:
        """All entries satisfying ``key <op> value``."""
        self._require_finalized()
        return self._view(op, self._coerce(value))

    def scan(self) -> List[IndexEntry]:
        """All entries in canonical order (the :attr:`entries` view)."""
        self._require_finalized()
        return self._view(None, None)

    def _view(self, op: Optional[BinaryOp], value: Optional[Key]
              ) -> List[IndexEntry]:
        ordered: List[Iterator[Tuple]] = []
        nans: List[Iterator[Tuple]] = []
        for collection, partition in self._partitions.items():
            ranges, with_nan = partition.select(op, value)
            ordered.append(_rows(partition, ranges, collection))
            if with_nan:
                nans.append(zip(partition.nan_docs, partition.nan_nodes,
                                repeat(collection)))
        entries = [IndexEntry(key, collection, doc, node) for
                   key, doc, node, collection in heapq.merge(*ordered)]
        entries.extend(IndexEntry(_NAN, collection, doc, node) for
                       doc, node, collection in heapq.merge(*nans))
        return entries

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> float:
        count = self.entry_count
        if self._numeric:
            key_width = float(pages.DOUBLE_KEY_BYTES)
        else:
            total = sum(len(key) for partition in self._partitions.values()
                        for key in partition.keys)
            key_width = (total / count) if count else 8.0
        return pages.index_size_bytes(count, key_width)

    @property
    def size_pages(self) -> int:
        return pages.bytes_to_pages(self.size_bytes)

    # ------------------------------------------------------------------
    def _coerce(self, value: Key) -> Key:
        if self._numeric:
            return float(value)
        return str(value)

    def _covers(self, collection: str) -> bool:
        return (self.definition.collection is None
                or collection == self.definition.collection)

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("index must be finalized before lookups")


def _shifted(docs: Iterator[int], removed: int) -> array:
    """The kept doc ids with every id above ``removed`` slid down by one."""
    return array("q", [doc - 1 if doc > removed else doc for doc in docs])


def _rows(partition: _Partition, ranges: List[Tuple[int, int]],
          collection: str) -> Iterator[Tuple[Key, int, int, str]]:
    for low, high in ranges:
        yield from zip(partition.keys[low:high], partition.docs[low:high],
                       partition.nodes[low:high], repeat(collection))


def build_physical_index(definition: IndexDefinition,
                         database: XmlDatabase) -> PhysicalPathIndex:
    """Materialize a physical index over the database's documents.

    Every element/attribute node whose simple path is matched by the
    index pattern contributes one entry keyed by the value predicates
    compare: ``typed_value()`` for VARCHAR indexes, ``double_value()``
    for DOUBLE indexes, which skip nodes whose value does not cast,
    matching DB2 semantics.

    The candidate nodes come from each collection's columnar store
    (:meth:`~repro.storage.columnar.ColumnarStore.iter_strict_pattern_nodes`):
    the pattern is matched once against the collection's distinct paths
    and only the postings of matching paths are walked, instead of
    re-walking every document tree per index build.  Entries go through
    the same :func:`_key_for_node` the per-document delta maintenance
    uses and are canonically sorted by ``finalize``.
    """
    index = PhysicalPathIndex(definition.as_physical())
    collections = database.collections
    if definition.collection is not None:
        collections = [database.collection(definition.collection)]
    numeric = definition.value_type is ValueType.DOUBLE
    for collection in collections:
        store = collection.columnar_store
        for doc_id, node in store.iter_strict_pattern_nodes(definition.pattern):
            key = _key_for_node(node, numeric)
            if key is not None:
                index.insert(key, collection.name, doc_id, node.node_id)
    # Consulted before finalize: a persistent fault discards the
    # partially-built structure with the local variable, so a failed
    # build never publishes anything.
    guarded_fault_point("index.build")
    return index.finalize()


def _key_for_node(node, numeric: bool) -> Optional[Key]:
    """The key ``node`` contributes, or ``None`` when it is not indexable
    (DOUBLE index and the value does not cast).  The same values the
    executor's predicates and the columnar value projections compare;
    shared by the full build and the per-document delta maintenance, so
    the two cannot diverge."""
    return node.double_value() if numeric else node.typed_value()
