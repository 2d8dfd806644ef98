"""Index matching: deciding which indexes can answer which predicates.

This is the process the paper couples the advisor to: "index matching,
which is the process that decides which indexes are useful for which
parts of the query, is dependent on the query optimizer implementation".
The rules implemented here mirror DB2's documented restrictions for XML
pattern indexes:

1. *Pattern containment* -- the index pattern must match every node the
   query path can reach, i.e. ``L(query path) ⊆ L(index pattern)``.
   (If the index only covered some of the nodes, using it could miss
   results.)  Containment is decided exactly by
   :func:`repro.xpath.patterns.pattern_contains` under the strict
   index-pattern semantics, so a predicate path with a self-matching
   ``//`` step (``/a//a`` also reaches ``/a`` itself) matches no index.

2. *Type compatibility* -- a DOUBLE index can only answer numeric
   comparisons; a VARCHAR index can only answer string comparisons and
   existence tests.  (DB2 will not use an ``AS SQL DOUBLE`` index for a
   string equality and vice versa, because the index simply does not
   contain the needed keys.)

3. Existence-only predicates can be answered only by a VARCHAR index on
   a containing pattern: it holds an entry for every node with that
   path, while a DOUBLE index skips the nodes whose value does not
   cast, so it can miss documents.

A matching index may still return candidates the predicate rejects (a
containing pattern indexes more paths).  :func:`answers_exactly` names
the probes that return exactly the documents satisfying the predicate,
which the executor then skips in its residual check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.index.definition import IndexDefinition
from repro.xpath.ast import BinaryOp
from repro.xpath.patterns import pattern_contains
from repro.xquery.model import PathPredicate, ValueType


@dataclass(frozen=True)
class IndexMatch:
    """A successful match between an index and a predicate."""

    index: IndexDefinition
    predicate: PathPredicate
    #: True when the index pattern is exactly the predicate pattern (no
    #: extra nodes indexed); exact matches are the cheapest to scan.
    exact: bool

    def describe(self) -> str:
        kind = "exact" if self.exact else "containing"
        return (f"{self.index.name} ({self.index.pattern.to_text()}) "
                f"{kind}-matches {self.predicate.describe()}")


def _type_compatible(index: IndexDefinition, predicate: PathPredicate) -> bool:
    if predicate.is_existence:
        return index.value_type is ValueType.VARCHAR
    if predicate.value_type is ValueType.DOUBLE:
        return index.value_type is ValueType.DOUBLE
    return index.value_type is ValueType.VARCHAR


#: The comparisons a probe answers with one key range per partition.
_EXACT_OPS = frozenset({BinaryOp.EQ, BinaryOp.LT, BinaryOp.LE,
                        BinaryOp.GT, BinaryOp.GE})


def answers_exactly(index: IndexDefinition, predicate: PathPredicate) -> bool:
    """Does probing ``index`` return exactly the documents satisfying
    ``predicate``, so no residual check of it is needed?

    True when the index pattern equals the predicate pattern and has no
    self-matching ``//`` step (so the strict pattern that built the index
    and the evaluator semantics the predicate uses accept the same
    paths), the key type agrees with the literal's type, and the
    operator is ``=``, ``<``, ``<=``, ``>`` or ``>=``.
    """
    if predicate.op not in _EXACT_OPS:
        return False
    if index.pattern != predicate.pattern \
            or index.pattern.has_self_matching_descendant:
        return False
    if isinstance(predicate.value, float):
        return index.value_type is ValueType.DOUBLE
    return (isinstance(predicate.value, str)
            and index.value_type is ValueType.VARCHAR)


def index_matches_predicate(index: IndexDefinition,
                            predicate: PathPredicate) -> Optional[IndexMatch]:
    """Return an :class:`IndexMatch` if ``index`` can answer ``predicate``.

    Returns ``None`` when the index is not applicable (pattern does not
    contain the predicate path, or the value types are incompatible).
    """
    if not _type_compatible(index, predicate):
        return None
    if predicate.pattern.has_self_matching_descendant:
        return None
    if not pattern_contains(index.pattern, predicate.pattern):
        return None
    exact = index.pattern == predicate.pattern or (
        pattern_contains(predicate.pattern, index.pattern))
    return IndexMatch(index=index, predicate=predicate, exact=exact)


def usable_indexes(indexes: Iterable[IndexDefinition],
                   predicate: PathPredicate) -> List[IndexMatch]:
    """All indexes from ``indexes`` that can answer ``predicate``.

    Exact matches are ordered first so a cost model that picks the first
    of equal-cost alternatives prefers the tighter index.
    """
    matches: List[IndexMatch] = []
    for index in indexes:
        match = index_matches_predicate(index, predicate)
        if match is not None:
            matches.append(match)
    matches.sort(key=lambda m: (not m.exact, m.index.pattern.generality_score()))
    return matches
