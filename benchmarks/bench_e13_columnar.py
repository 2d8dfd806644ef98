"""E13 (columnar): pre/post axis-engine scans vs. the interpretive
fallback on descendant-heavy ``//`` navigation.

Before PR 8, ``//`` shapes whose descendant step may match its own
context (``//*`` tails) could not be answered by strict pattern
matching and dropped to a per-document
:class:`~repro.xpath.evaluator.XPathEvaluator` walk.  The columnar
pre/post encoding answers exactly those shapes from sorted columns with
descendant-or-self semantics, so the descendant-heavy workload now runs
structurally:

* **scan wall-clock** -- the descendant workload (``/site//*`` and
  friends) executed by a columnar executor (``use_columnar=True``, the
  default) and by the escape hatch (``use_columnar=False``, interpreter
  residuals).  Expected: ~5-7x at the default benchmark scale; asserted
  floor 5x (2x in smoke mode).
* **exactness** -- per-query result counts and extracted node-id
  streams byte-identical between the modes; the columnar side runs
  with **zero** interpretive spine fallbacks (the acceptance criterion:
  descendant-heavy queries never leave the axis engine) while the
  escape hatch records one fallback per (query, document) residual.
* **sizing** -- ``ColumnarStore.nbytes`` equal to the
  statistics-derived ``DatabaseStatistics.columnar_bytes`` the
  advisor's size reports and the tuning controller's build budget use.

Shape: ``repro.tools.columnar_compare.compare_columnar_modes`` (shared
with the tier-1 ``bench_smoke`` guard and the perf recorder), run at
the benchmark scale.
"""

from __future__ import annotations

from conftest import BENCH_SMOKE, XMARK_SCALE, print_section

from repro.tools.columnar_compare import compare_columnar_modes
from repro.tools.report import render_table

#: Minimum accepted columnar-over-interpretive scan ratio: the
#: acceptance floor at benchmark scale, conservative in smoke mode
#: where tiny timed runs are noisy.
MIN_COLUMNAR_RATIO = 2.0 if BENCH_SMOKE else 5.0


def test_e13_columnar_speedup_and_exactness(benchmark):
    comparison = benchmark.pedantic(
        compare_columnar_modes, kwargs={"scale": XMARK_SCALE},
        rounds=1, iterations=1)

    table = render_table(
        ["docs", "nodes", "columnar s", "interp s", "scan x",
         "col fb", "interp fb", "rows"],
        [[comparison.documents, comparison.node_count,
          f"{comparison.columnar_seconds:.4f}",
          f"{comparison.interpretive_seconds:.4f}",
          f"{comparison.scan_ratio:.1f}x",
          comparison.columnar_fallbacks, comparison.interpretive_fallbacks,
          comparison.result_rows]])
    print_section(
        "E13 columnar - pre/post axis engine vs interpretive fallback "
        f"(XMark scale {XMARK_SCALE})", table)

    assert comparison.identical_results, (
        "columnar evaluation changed descendant-query results")
    assert comparison.sizing_consistent, (
        "ColumnarStore.nbytes diverged from statistics.columnar_bytes")
    # The acceptance criterion: descendant-heavy queries never fall back
    # to the interpreter on the columnar path, and the escape hatch
    # genuinely exercises the interpretive residuals being compared.
    assert comparison.columnar_fallbacks == 0
    assert comparison.interpretive_fallbacks > 0
    assert comparison.scan_ratio >= MIN_COLUMNAR_RATIO, (
        f"columnar scan speedup regressed: {comparison.scan_ratio:.2f}x "
        f"< {MIN_COLUMNAR_RATIO:.1f}x at scale {XMARK_SCALE}")
