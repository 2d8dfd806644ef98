"""Measurement plumbing shared by the perfbench workloads.

* percentiles that are reported only when at least ten samples lie
  beyond them (:func:`percentile`, :func:`samples_needed`);
* the :class:`StreamClock` that ends a timed stream and, in a traced
  run, switches tracing on after the untraced part;
* a :class:`Report` of named metrics, each with its unit, sample count
  and -- for counts -- whether it repeats exactly run to run;
* a :class:`Checker` that counts attempted and failed operations and
  compares results against a reference;
* a span :class:`Tracer` kept in memory and written out when the run
  ends, with per-span self time (duration minus the part of it that
  child spans cover) and a per-layer self-time table;
* :func:`instrument`, which wraps a public method of an object the
  benchmark owns as an instance attribute, so calls into that layer
  are recorded as spans without touching the program;
* registry count deltas over ``repro.telemetry`` registries.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10
#: A timed stream that still lacks samples after ``--seconds`` goes on,
#: but never past this many seconds.
STREAM_CAP_S = 120.0
#: Share of ``--seconds`` a traced run streams traced, after the untraced part.
TRACED_SHARE = 0.5


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def _rank(count: int, q: float) -> int:
    """Nearest-rank position (1-based) of quantile ``q`` in ``count`` samples."""
    return max(1, math.ceil(q * count - 1e-9))


def samples_needed(q: float) -> int:
    """Smallest sample count with at least :data:`MIN_BEYOND` samples
    beyond the nearest-rank ``q`` percentile."""
    count = MIN_BEYOND + 1
    while count - _rank(count, q) < MIN_BEYOND:
        count += 1
    return count


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    count = len(samples)
    if count == 0:
        return None
    rank = _rank(count, q)
    if count - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


class StreamClock:
    """How long a timed stream goes on, and which of its operations count.

    The stream runs untraced for ``seconds``, and beyond while short of
    samples, up to :data:`STREAM_CAP_S`; those operations give the
    end-to-end figures (:attr:`measuring`).  In a traced run the stream
    then goes on traced for :data:`TRACED_SHARE` of ``seconds``, which
    gives the layer spans, so a traced run's end-to-end figures carry no
    tracing overhead and mean what an untraced run's do."""

    def __init__(self, tracer: "Tracer", seconds: float) -> None:
        self.tracer = tracer
        self.seconds = seconds
        self.traced, tracer.enabled = tracer.enabled, False
        self.start = time.perf_counter()

    def keep_going(self, short_of_samples: bool) -> bool:
        elapsed = time.perf_counter() - self.start
        if self.tracer.enabled:
            return elapsed < self.seconds * TRACED_SHARE
        if elapsed < self.seconds or (short_of_samples and elapsed < STREAM_CAP_S):
            return True
        if not self.traced:
            return False
        self.tracer.enabled = True
        self.start = time.perf_counter()
        return True

    @property
    def measuring(self) -> bool:
        """Whether the current operation counts toward the end-to-end figures."""
        return not self.tracer.enabled


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
@dataclass
class Metric:
    name: str
    value: Optional[float]
    unit: str
    #: Samples behind the value (``None`` for single measurements).
    count: Optional[int] = None
    #: Why the metric has no value on this workload.
    note: str = ""
    #: A registry count over fixed work that repeats exactly run to run.
    deterministic: bool = False


class Report:
    """Ordered named metrics of one run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Metric] = {}

    def add(self, name: str, value: Optional[float], unit: str, *,
            count: Optional[int] = None, note: str = "",
            deterministic: bool = False) -> None:
        if value is None and not note:
            raise ValueError(f"metric {name!r} has neither a value nor a reason")
        self.metrics[name] = Metric(name, value, unit, count, note, deterministic)

    def latency(self, prefix: str, samples_s: Sequence[float],
                quantiles: Sequence[Tuple[str, float]]) -> None:
        """Percentiles of ``samples_s`` (seconds) as ``<prefix>_<label>_ms``."""
        for label, q in quantiles:
            value = percentile(samples_s, q)
            note = "" if value is not None else (
                f"{len(samples_s)} samples: fewer than {MIN_BEYOND} beyond {label}")
            self.add(f"{prefix}_{label}_ms", None if value is None else value * 1e3,
                     "ms", count=len(samples_s), note=note)

    def missing(self, names: Sequence[str]) -> List[str]:
        return [name for name in names
                if name not in self.metrics or self.metrics[name].value is None]

    def json_metrics(self, names: Sequence[str]) -> Dict[str, Dict[str, object]]:
        """The named metrics as ``{"value", "unit"}``; metrics that do not
        apply to this workload read 0."""
        out: Dict[str, Dict[str, object]] = {}
        for name in names:
            metric = self.metrics[name]
            out[name] = {"value": 0 if metric.value is None else metric.value,
                         "unit": metric.unit}
        return out

    def table(self) -> str:
        lines = [f"{'metric':<42} {'value':>14} {'unit':<6} {'n':>7}  note"]
        for metric in self.metrics.values():
            if metric.value is None:
                value = "n/a"
            elif float(metric.value).is_integer() and abs(metric.value) < 1e15:
                value = f"{int(metric.value)}"
            else:
                value = f"{metric.value:.6g}"
            count = "" if metric.count is None else str(metric.count)
            note = metric.note
            if metric.deterministic:
                note = ("deterministic; " + note) if note else "deterministic"
            lines.append(f"{metric.name:<42} {value:>14} {metric.unit:<6} "
                         f"{count:>7}  {note}".rstrip())
        return "\n".join(lines)


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def result_key(result) -> Tuple[int, Tuple[str, ...]]:
    """What two executions of one query must agree on: the result
    count and the extracted values, in order."""
    return result.result_count, tuple(result.extracted_values or ())


class Checker:
    """Counts attempted/failed operations and records mismatches."""

    #: Mismatch messages kept for the report (the count is exact).
    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def passed(self) -> None:
        self.attempted += 1

    def fail(self, label: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.messages) < self.KEEP:
            self.messages.append(f"{label}: {message}")

    def compare(self, label: str, expected, actual) -> bool:
        """One attempted operation; fails when ``actual`` differs from
        ``expected`` (both as given by :func:`result_key`)."""
        if expected == actual:
            self.passed()
            return True
        self.fail(label, f"expected {_brief(expected)}, got {_brief(actual)}")
        return False

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _brief(key) -> str:
    if isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], tuple):
        return f"{key[0]} result(s), {len(key[1])} value(s)"
    return repr(key)[:80]


# ----------------------------------------------------------------------
# Registry counts
# ----------------------------------------------------------------------
def counts(registry) -> Dict[str, float]:
    """Scalar (counter and gauge) values of a ``MetricsRegistry``."""
    return {name: exported["value"]
            for name, exported in registry.snapshot(include_wall=True).items()
            if exported["type"] in ("counter", "gauge")}


def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def hit_ratio(counts_: Dict[str, float], hits: str, misses: str) -> Optional[float]:
    return ratio(counts_.get(hits, 0), counts_.get(hits, 0) + counts_.get(misses, 0))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class SpanRecord:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    phase: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _Timer:
    """What a disabled tracer yields: elapsed time only."""

    __slots__ = ("start", "end")

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


#: Spans of ``execute(trace=True)`` that belong to a layer other than
#: the executor.
_EXECUTOR_SPAN_LAYERS = {"plan": "optimizer", "parse": "xquery"}


class Tracer:
    """In-memory span recorder; disabled, :meth:`span` only times."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self.request: Optional[int] = None
        self.phase = "setup"

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[object]:
        """Time a block; when enabled, record it as a span whose parent
        is the innermost open span.  Yields a handle whose ``seconds`` is
        set on exit (and, when enabled, whose ``attrs`` the block may
        extend)."""
        if not self.enabled:
            timer = _Timer()
            try:
                yield timer
            finally:
                timer.end = time.perf_counter()
            return
        record = SpanRecord(len(self.spans), name, time.perf_counter(), 0.0,
                            self._stack[-1].span_id if self._stack else None,
                            self.request, self.phase, dict(attrs))
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def nest_execution_trace(self, parent: SpanRecord, root) -> None:
        """Record the children of an ``ExecutionResult.trace`` span tree
        under ``parent``.  The tree carries durations, not start times;
        its steps run one after another, so children are laid out in
        order from the parent's start."""
        def lay_out(node, parent_id: int, start: float) -> None:
            cursor = start
            for child in node.children:
                layer = _EXECUTOR_SPAN_LAYERS.get(child.name, "executor")
                record = SpanRecord(
                    len(self.spans), f"{layer}.{child.name}", cursor,
                    cursor + child.elapsed_seconds, parent_id, self.request,
                    self.phase, {k: v for k, v in child.attrs.items()
                                 if isinstance(v, (int, float, str, bool))})
                self.spans.append(record)
                lay_out(child, record.span_id, cursor)
                cursor = record.end
        lay_out(root, parent.span_id, parent.start)

    def select(self, name: str, phase: Optional[str] = None,
               **attrs: object) -> List[SpanRecord]:
        return [s for s in self.spans
                if s.name == name and (phase is None or s.phase == phase)
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def durations(self, name: str, phase: Optional[str] = None,
                  **attrs: object) -> List[float]:
        return [s.seconds for s in self.select(name, phase, **attrs)]

    def layer_self_times(self) -> Dict[str, float]:
        """Total self time per layer (the span name's first component)."""
        totals: Dict[str, float] = {}
        for record, seconds in zip(self.spans, self_times(self.spans)):
            totals[record.layer] = totals.get(record.layer, 0.0) + seconds
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def write(self, path: str) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({
                    "id": record.span_id, "name": record.name,
                    "start_s": round(record.start - origin, 9),
                    "end_s": round(record.end - origin, 9),
                    "parent": record.parent, "request": record.request,
                    "phase": record.phase, "attrs": record.attrs},
                    sort_keys=True, default=str) + "\n")


def covered(interval: Tuple[float, float],
            parts: Sequence[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``parts`` covers."""
    low, high = interval
    clipped = sorted((max(a, low), min(b, high)) for a, b in parts
                     if min(b, high) > max(a, low))
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[SpanRecord]) -> List[float]:
    """Per span: its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append((record.start, record.end))
    return [record.seconds - covered((record.start, record.end),
                                     children.get(record.span_id, ()))
            for record in spans]


def instrument(tracer: Tracer, obj: object, method: str, span_name: str,
               annotate: Optional[Callable[[object], Dict[str, object]]] = None,
               **attrs: object) -> None:
    """Wrap ``obj.method`` as an instance attribute that records a span
    around every call (a no-op while the tracer is disabled).
    ``annotate(result)`` may add attributes from the call's result."""
    original = getattr(obj, method)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        with tracer.span(span_name, **attrs) as record:
            result = original(*args, **kwargs)
            if annotate is not None:
                record.attrs.update(annotate(result))
            return result

    setattr(obj, method, wrapper)
