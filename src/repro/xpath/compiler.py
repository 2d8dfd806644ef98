"""Compile XPath location paths into columnar-store pattern lookups.

The interpretive :class:`~repro.xpath.evaluator.XPathEvaluator` walks
the node tree once per location step.  For the linear path shapes the
workloads use, that work is redundant: a collection's
:class:`~repro.storage.columnar.ColumnarStore` already knows every node
by its rooted simple path, and its pattern matching implements the
interpreter's exact descendant-or-self ``//`` semantics.  This module
lowers location paths onto that store:

* **predicate-free paths** (``/site/regions/*/item``, ``//keyword``,
  ``/site/people/person/@id``, ``/site//*``) become a single pattern
  lookup;
* **simple-predicate paths** -- predicates on the *final* step only
  (``/site/regions/africa/item[quantity > 5]``) -- become a pattern
  lookup for the spine followed by interpretive evaluation of the
  residual predicates on each candidate node;
* a trailing child-axis ``text()`` step is answered by expanding the
  spine elements' direct text children;
* everything else (relative paths, variables, predicates on inner
  steps, expressions that are not location paths) falls back to the
  interpretive evaluator, as does every expression when no columnar
  store is supplied.

Parsing and compilation are cached with LRUs keyed by expression text,
so repeated queries -- the executor evaluates the same predicate paths
against every document -- pay for parsing once.

Results are node *sets*: compiled lookups return exactly the nodes the
interpretive evaluator would, though possibly in a different order
(unordered store lookups group nodes by distinct path, the interpreter
by step expansion).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

from repro.xmldb.nodes import DocumentNode, NodeKind, XmlNode
from repro.xpath.ast import Axis, LocationPath, PathExpr, Predicate
from repro.xpath.evaluator import XPathEvaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.patterns import PathPattern, PatternStep

#: Size of the parse/compile LRUs.  Workloads contain at most a few
#: hundred distinct path expressions; 2048 keeps every expression of
#: even a very large workload resident.
CACHE_SIZE = 2048


@lru_cache(maxsize=CACHE_SIZE)
def parse_xpath_cached(expression: str) -> PathExpr:
    """Parse ``expression``, memoizing the AST by source text.

    Callers must treat the returned AST as immutable -- it is shared
    between every caller that parses the same text.
    """
    return parse_xpath(expression)


class CompiledXPath:
    """The compiled form of one XPath expression.

    When :attr:`pattern` is set, :meth:`select_nodes` answers the path
    spine from a :class:`~repro.storage.columnar.ColumnarStore` and only
    uses the interpretive evaluator for residual predicates; when it is
    ``None`` the whole expression is delegated to the interpreter
    (``fallback_reason`` says why).
    """

    __slots__ = ("source", "expression", "pattern", "residual_predicates",
                 "text_tail", "fallback_reason")

    def __init__(self, source: str, expression: PathExpr,
                 pattern: Optional[PathPattern] = None,
                 residual_predicates: Tuple[Predicate, ...] = (),
                 text_tail: bool = False,
                 fallback_reason: Optional[str] = None) -> None:
        self.source = source
        self.expression = expression
        #: The linear spine, set for every linear path and ``None`` only
        #: for expressions the interpreter must evaluate whole.
        self.pattern = pattern
        self.residual_predicates = residual_predicates
        self.text_tail = text_tail
        self.fallback_reason = fallback_reason

    def select_nodes(self, columnar, document: DocumentNode,
                     evaluator: Optional[XPathEvaluator] = None,
                     ordered: bool = False) -> List[XmlNode]:
        """The node set this expression selects in ``document``.

        ``columnar`` is the :class:`~repro.storage.columnar.ColumnarStore`
        of the document's collection (keyed by its ``doc_id``), or
        ``None`` to evaluate interpretively; pass ``evaluator`` to reuse
        one :class:`XPathEvaluator` across calls for the same document.
        With ``ordered=True`` the spine nodes come back in document
        order even when the pattern matches several distinct paths (a
        postings merge in the store), so the result can serve ordered
        extraction; residual filtering and ``text()`` expansion preserve
        that order.  The result must be treated as read-only unless
        :attr:`residual_predicates` or :attr:`text_tail` forced a copy.
        """
        if columnar is None or self.pattern is None:
            if evaluator is None:
                evaluator = XPathEvaluator(document)
            return evaluator.select_nodes(self.expression)
        nodes = columnar.nodes_for_pattern(self.pattern, document.doc_id,
                                           ordered=ordered)
        if self.text_tail and nodes:
            texts: List[XmlNode] = []
            for node in nodes:
                texts.extend(child for child in node.children
                             if child.kind == NodeKind.TEXT)
            nodes = texts
        if self.residual_predicates and nodes:
            if evaluator is None:
                evaluator = XPathEvaluator(document)
            nodes = [node for node in nodes
                     if evaluator.passes_predicates(node, self.residual_predicates)]
        return nodes

    def has_match(self, columnar, document: DocumentNode,
                  evaluator: Optional[XPathEvaluator] = None) -> bool:
        """Existence test: does this expression select any node?

        The residual scan's document-qualification check only needs a
        boolean, so a columnar-backed bare spine (no ``text()`` tail, no
        residual predicates) answers from the store's postings with an
        early exit instead of materializing the node list.
        """
        if (columnar is not None and self.pattern is not None
                and not self.text_tail and not self.residual_predicates):
            return columnar.has_match(self.pattern, document.doc_id)
        return bool(self.select_nodes(columnar, document, evaluator))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = (f"pattern={self.pattern.to_text()!r}" if self.pattern
                else f"fallback ({self.fallback_reason})")
        return f"<CompiledXPath {self.source!r} {mode}>"


def compile_location_path(source: str, path: LocationPath) -> CompiledXPath:
    """Lower ``path`` to a pattern lookup, or record why it cannot be."""

    def fallback(reason: str) -> CompiledXPath:
        return CompiledXPath(source, path, fallback_reason=reason)

    if path.variable is not None:
        return fallback("variable-relative path")
    if not path.absolute:
        return fallback("relative path")
    if not path.steps:
        return fallback("document root path")

    pattern_steps: List[PatternStep] = []
    residual: Tuple[Predicate, ...] = ()
    text_tail = False
    last_index = len(path.steps) - 1
    for index, step in enumerate(path.steps):
        if step.predicates:
            if index != last_index:
                return fallback("predicate on inner step")
            residual = tuple(step.predicates)
        if step.is_text:
            if index != last_index:
                return fallback("text() on inner step")
            if step.axis is not Axis.CHILD:
                return fallback("descendant text() step")
            if not pattern_steps:
                return fallback("text() of the document root")
            text_tail = True
            continue
        descendant = step.axis is Axis.DESCENDANT_OR_SELF
        if step.axis is Axis.ATTRIBUTE or step.node_test.startswith("@"):
            name = step.node_test.lstrip("@")
            label = "@*" if name == "*" else "@" + name
        else:
            label = step.node_test
        pattern_steps.append(PatternStep(label=label, descendant=descendant))
    if not pattern_steps:
        return fallback("no structural steps")
    return CompiledXPath(source, path,
                         pattern=PathPattern(steps=tuple(pattern_steps)),
                         residual_predicates=residual, text_tail=text_tail)


@lru_cache(maxsize=CACHE_SIZE)
def compile_xpath(expression: str) -> CompiledXPath:
    """Parse and compile ``expression`` (memoized by source text)."""
    parsed = parse_xpath_cached(expression)
    if not isinstance(parsed, LocationPath):
        return CompiledXPath(expression, parsed,
                             fallback_reason="not a location path")
    return compile_location_path(expression, parsed)


@lru_cache(maxsize=CACHE_SIZE)
def compile_pattern(pattern: PathPattern) -> CompiledXPath:
    """Compile an index pattern for execution (memoized by pattern).

    Index patterns are already linear and predicate-free, so the spine
    is the pattern itself; the XPath rendering is kept for the
    interpretive path.  This is the entry point the executor uses for
    the patterns carried by normalized query predicates and extraction
    paths.
    """
    source = pattern.to_text()
    return CompiledXPath(source, parse_xpath_cached(source), pattern=pattern)


def compiler_cache_info() -> dict:
    """Hit/miss statistics of the parse/compile LRUs (for diagnostics)."""
    return {"parse": parse_xpath_cached.cache_info(),
            "compile": compile_xpath.cache_info(),
            "compile_pattern": compile_pattern.cache_info()}


def clear_compiler_caches() -> None:
    """Reset the parse/compile LRUs (tests and long-lived processes)."""
    parse_xpath_cached.cache_clear()
    compile_xpath.cache_clear()
    compile_pattern.cache_clear()
