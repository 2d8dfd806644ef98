"""E6 (maintenance): delta-propagation vs. teardown-and-rebuild on
document add.

The paper's advisor targets evolving databases; this experiment
measures what PR 3's maintenance layer buys when documents arrive: the
wall-clock to keep a loaded XMark collection's derived state current
(columnar store + statistics synopsis + one configured physical index)
through per-document deltas versus the legacy full rebuild, and asserts
that the two paths end in byte-identical state.

Shape: ``repro.tools.maintenance_compare.compare_maintenance_modes``
(shared with the tier-1 ``bench_smoke`` guard and the perf recorder),
run at the benchmark scale.  Expected: the incremental path wins by an
order of magnitude at scale 0.25 (each add touches one document's nodes
instead of every node in the collection); the assertion floor is 5x
(2x in smoke mode, where tiny timed runs are noisy).
"""

from __future__ import annotations

from conftest import BENCH_SMOKE, XMARK_SCALE, print_section

from repro.tools.maintenance_compare import compare_maintenance_modes
from repro.tools.report import render_table

#: Minimum accepted incremental-over-rebuild maintenance speedup: the
#: acceptance floor at benchmark scale, conservative in smoke mode.
MIN_MAINT_RATIO = 2.0 if BENCH_SMOKE else 5.0


def test_e6_incremental_maintenance_speedup(benchmark):
    comparison = benchmark.pedantic(
        compare_maintenance_modes, kwargs={"scale": XMARK_SCALE},
        rounds=1, iterations=1)

    table = render_table(
        ["base docs", "docs added", "incremental s", "rebuild s",
         "speedup", "identical"],
        [[comparison.base_documents, comparison.documents_added,
          f"{comparison.incremental_seconds:.4f}",
          f"{comparison.rebuild_seconds:.4f}",
          f"{comparison.ratio:.1f}x", comparison.identical]])
    print_section(
        "E6 maintenance - incremental document add vs. full rebuild "
        f"(XMark scale {XMARK_SCALE})", table)

    assert comparison.identical, (
        "delta-maintained columnar/statistics/index diverged from rebuild")
    assert comparison.ratio >= MIN_MAINT_RATIO, (
        f"incremental maintenance speedup regressed: {comparison.ratio:.2f}x "
        f"< {MIN_MAINT_RATIO:.1f}x at scale {XMARK_SCALE}")


def test_e6_maintenance_scales_with_collection_size(benchmark):
    """The rebuild path degrades with collection size while the
    incremental path tracks the *document* size: the speedup must grow
    (weakly) with scale."""
    scales = (0.05, 0.1) if BENCH_SMOKE else (0.05, 0.25)

    def _sweep():
        return [(scale, compare_maintenance_modes(scale=scale,
                                                  documents_to_add=4))
                for scale in scales]

    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = render_table(
        ["scale", "base docs", "incremental s", "rebuild s", "speedup"],
        [[scale, comparison.base_documents,
          f"{comparison.incremental_seconds:.4f}",
          f"{comparison.rebuild_seconds:.4f}",
          f"{comparison.ratio:.1f}x"] for scale, comparison in rows])
    print_section("E6 maintenance - speedup vs. collection scale", table)

    for _scale, comparison in rows:
        assert comparison.identical
    # Weak monotonicity with generous slack: timed ratios jitter, but a
    # flat-or-falling trend at 4x slack means the incremental path has
    # stopped being O(document) in collection size.
    first, last = rows[0][1].ratio, rows[-1][1].ratio
    assert last >= first / 4.0
