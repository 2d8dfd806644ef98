"""Request streams: workload statements with re-drawn literals.

Templates are the program's own workload statements
(``xmark_query_workload``, ``xmark_unseen_queries``,
``tpox_query_workload``).  Every numeric literal and every id literal
in a comparison becomes a slot (:func:`comparison_slots`), keyed by the
absolute path pattern the program's normalizer gives the compared path.
Its value is re-drawn per request from that path's value domain: the
distinct values the generated documents hold at that path
(:func:`value_domains`), so draws follow the data actually generated.
Templates are dealt from a shuffled :class:`Deck` holding each template
in proportion to its frequency, so every run issues the same template
mix.  Literal draws are skewed (Zipf over a fixed permutation of the
domain), so hot statements repeat and the long tail does not.  The
permutation -- which values are hot -- is part of the workload and the
same for every seed.  Each slot walks its Zipf distribution with a
golden-ratio sequence from a seeded starting point, so a run's literal
mix matches the distribution closely (far closer than independent draws
would) while the seed still changes which literals appear when.  Other
string literals (categories such as ``"Creditcard"``) stay as written.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.xmldb.nodes import normalized_node_value
from repro.xpath import PathPattern
from repro.xquery import normalize_statement

#: Zipf exponent of the literal draws.
SKEW = 1.1
#: Seed of the permutation that decides which literal values are hot.
HOT_VALUES_SEED = "hot-values"
#: Step of the low-discrepancy walk through each slot's distribution.
GOLDEN = (5 ** 0.5 - 1) / 2
#: Last steps of the compared paths whose string literals are ids (and
#: so re-drawn); other string literals stay as written.
ID_STEPS = frozenset({"@id", "@person", "@ID", "@Acct", "@Sym", "Symbol"})

_COMPARISON = re.compile(
    r'(?P<path>[\w@$./-]+)\s*(?P<op>>=|<=|!=|=|<|>)\s*'
    r'(?P<literal>"[^"]*"|-?\d+(?:\.\d+)?)')
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


class Slot(NamedTuple):
    """One re-drawn literal of a statement: its span in the text, the
    absolute path pattern it is compared with, and whether it is quoted."""

    start: int
    end: int
    pattern: str
    quoted: bool


def comparison_slots(text: str) -> List[Slot]:
    """The literal slots of ``text``.  Each comparison is tied to the one
    predicate of the normalized statement with the same last step and
    the same literal; a comparison that ties to none or to several is an
    error (the statement would be re-drawn on the wrong path)."""
    predicates = [p for p in normalize_statement(text).predicates if p.op is not None]
    slots: List[Slot] = []
    for match in _COMPARISON.finditer(text):
        step = re.split(r"[/$]", match.group("path"))[-1]
        literal = match.group("literal")
        quoted = literal.startswith('"')
        if quoted and step not in ID_STEPS:
            continue
        value = literal[1:-1] if quoted else float(literal)
        tied = {p.pattern.to_text() for p in predicates
                if p.pattern.last_step.label == step and p.value == value}
        if len(tied) != 1:
            raise ValueError(f"comparison {match.group(0)!r} ties to "
                             f"{len(tied)} predicates: {text}")
        slots.append(Slot(match.start("literal"), match.end("literal"), tied.pop(),
                          quoted))
    return slots


def value_domains(documents: Iterable, statements: Iterable[str]) -> Dict[str, List[str]]:
    """Value domain of every slot pattern of ``statements``: the distinct
    values ``documents`` (node trees) hold at the paths the pattern
    matches, sorted, as literals (ids quoted; numeric values as
    written in the data, non-numeric ones left out)."""
    quoted: Dict[str, bool] = {}
    for text in statements:
        for slot in comparison_slots(text):
            quoted[slot.pattern] = slot.quoted
    patterns = {text: PathPattern.parse(text) for text in quoted}
    values: Dict[str, set] = {text: set() for text in quoted}
    matching: Dict[str, List[str]] = {}
    for document in documents:
        for element in document.descendant_elements():
            for node in (element, *element.attributes):
                path = node.simple_path()
                hits = matching.get(path)
                if hits is None:
                    hits = matching[path] = [text for text, pattern in patterns.items()
                                             if pattern.matches(path)]
                for text in hits:
                    values[text].add(normalized_node_value(node))
    domains: Dict[str, List[str]] = {}
    for text, is_quoted in quoted.items():
        if is_quoted:
            domain = sorted(f'"{v}"' for v in values[text] if v and '"' not in v)
        else:
            domain = sorted((v for v in values[text] if _NUMBER.fullmatch(v)),
                            key=lambda v: (float(v), v))
        if not domain:
            raise ValueError(f"the documents hold no usable value at {text}")
        domains[text] = domain
    return domains


class Template:
    """One statement split into fixed text and literal slots."""

    def __init__(self, text: str, domains: Dict[str, List[str]]) -> None:
        self.text = text
        self.parts: List[str] = []
        self.slots: List[str] = []
        cursor = 0
        for slot in comparison_slots(text):
            if slot.pattern not in domains:
                raise ValueError(f"no value domain for {slot.pattern}: {text}")
            self.parts.append(text[cursor:slot.start])
            self.slots.append(slot.pattern)
            cursor = slot.end
        self.parts.append(text[cursor:])

    def render(self, values: Sequence[str]) -> str:
        pieces = [self.parts[0]]
        for value, part in zip(values, self.parts[1:]):
            pieces.append(value)
            pieces.append(part)
        return "".join(pieces)


class Deck:
    """Deals items in shuffled rounds; each round holds every item
    ``count`` times, so any run of rounds has the exact mix."""

    def __init__(self, counts: Sequence[Tuple[object, int]],
                 rng: random.Random) -> None:
        self.rng = rng
        self.round = [item for item, count in counts for _ in range(count)]
        self.pending: List[object] = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.round)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


class StatementStream:
    """Seeded, endless stream of statements dealt by template frequency."""

    def __init__(self, statements: Sequence[Tuple[str, float]],
                 domains: Dict[str, List[str]], rng: random.Random) -> None:
        self.templates = [Template(text, domains) for text, _ in statements]
        lightest = min(frequency for _, frequency in statements)
        self.template_counts = [(index, round(frequency / lightest))
                                for index, (_, frequency) in enumerate(statements)]
        self.rng = rng
        self.decks: Dict[object, Deck] = {}
        self.values: Dict[str, List[str]] = {}
        self.value_weights: Dict[str, List[float]] = {}
        self.positions: Dict[str, float] = {}
        hot = random.Random(HOT_VALUES_SEED)
        for pattern in sorted({pattern for t in self.templates for pattern in t.slots}):
            ordered = list(domains[pattern])
            hot.shuffle(ordered)
            weights = list(accumulate(1.0 / (rank + 1) ** SKEW
                                      for rank in range(len(ordered))))
            self.values[pattern] = ordered
            self.value_weights[pattern] = [w / weights[-1] for w in weights]
            self.positions[pattern] = rng.random()

    def _literal(self, pattern: str) -> str:
        self.positions[pattern] = (self.positions[pattern] + GOLDEN) % 1.0
        weights = self.value_weights[pattern]
        return self.values[pattern][min(bisect_right(weights, self.positions[pattern]),
                                        len(weights) - 1)]

    def draw(self, lane: object = None) -> Tuple[int, str]:
        """(template index, statement text) of the next request.  Each
        ``lane`` deals from its own deck, so a caller that sorts requests
        into lanes (say, by position after a write) gets the exact
        template mix in every lane."""
        if lane not in self.decks:
            self.decks[lane] = Deck(self.template_counts, self.rng)
        index = self.decks[lane].draw()
        template = self.templates[index]
        values = [self._literal(pattern) for pattern in template.slots]
        return index, template.render(values)
