#!/usr/bin/env python
"""Record the advisor perf trajectory into a JSON file, one entry per PR.

Runs two deterministic-workload timings at env-capped sizes and dumps
the numbers to ``BENCH_advisor.json`` (override with ``--output``):

* **E3 (advisor search)** -- the budget-sweep configuration search on
  the XMark training workload, legacy full re-evaluation vs the
  incremental what-if engine: wall time, per-query what-if costings,
  optimizer plan calls, and an equivalence flag.
* **E5 (execution)** -- interpretive document scan vs the columnar
  scan over the XMark query workload: wall time per mode and the
  speedup (the columnar leg is still recorded as ``summary_seconds``
  so the trajectory stays comparable).
* **E6 (maintenance)** -- incremental document add (columnar store +
  statistics + one configured physical index maintained through deltas)
  vs the full-rebuild path: wall time per mode, the speedup, and a
  byte-identity flag.
* **E7 (routing)** -- collection-scoped costing + structural routing on
  the co-resident XMark+TPoX database vs the whole-database escape
  hatch: routed-vs-unrouted scan wall time, what-if re-costings after a
  single-collection document add (deterministic count), and the
  exactness flags (results, delta benefits, cached recommendations).
* **E13 (columnar)** -- the columnar pre/post axis engine vs the
  interpretive escape hatch (``use_columnar=False``) on the
  descendant-heavy ``//`` workload: wall time per mode, the speedup,
  result byte-identity, the interpretive-fallback counters (columnar
  side must be zero), and the nbytes-vs-statistics sizing flag.
* **E14 (vectorized)** -- the set-at-a-time value-predicate engine vs
  the object-hop escape hatch (``use_vectorized_predicates=False``) on
  the predicate-heavy XMark+TPoX workload: wall time per mode, the
  speedup, result/value byte-identity, the node-materialization
  counters (vectorized side must be zero), and the sizing flag.
* **E10 (online tuning)** -- the autonomous loop vs the offline
  advisor: stationary byte-identity, drift detection + re-convergence
  after an injected workload shift, and the bounded-compression counts
  (captured templates vs compressed clusters at 1x and 10x volume).
* **E12 (fault recovery)** -- tuning through a deterministic fault plan
  (transient faults at every seam plus one persistent build failure)
  vs fault-free: recovery wall-time overhead, convergence to the same
  configuration, and degraded-mode (columnar-scan fallback) result
  identity.
* **E15 (telemetry)** -- execution with per-query span-tree tracing and
  cost accounting armed (``trace=True``) vs untraced: wall time per
  mode, the overhead ratio, span/cost-sample counts, and result
  byte-identity (the observe-only gate).

Sizes are controlled by ``REPRO_SMOKE_XMARK_SCALE`` (default ``0.1``)
so CI stays fast; run with a larger scale locally for headline numbers.

The exit status doubles as a CI gate: non-zero when a comparison lost
equivalence, the maintenance speedup fell below
``REPRO_SMOKE_MIN_MAINT_RATIO`` (default ``2``), the routing ratios
fell below ``REPRO_SMOKE_MIN_ROUTING_RATIO`` (default ``2``), the columnar
comparison lost equivalence/exactness or its scan ratio fell below
``REPRO_SMOKE_MIN_COLUMNAR_RATIO`` (default ``2``), the vectorized
comparison lost equivalence/exactness or its scan ratio fell below
``REPRO_SMOKE_MIN_VECTORIZED_RATIO`` (default ``2``), the
online loop lost convergence/boundedness, its compression ratio
fell below ``REPRO_SMOKE_MIN_ONLINE_COMPRESSION`` (default ``2``), the
recovery run lost convergence/result identity, its overhead ratio
exceeded ``REPRO_SMOKE_MAX_RECOVERY_OVERHEAD`` (default ``10``), the
telemetry comparison lost result identity, or its tracing overhead
exceeded ``REPRO_SMOKE_MAX_TELEMETRY_OVERHEAD`` (default ``1.15``).

Usage::

    PYTHONPATH=src python tools/bench_record.py [--output BENCH_advisor.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.executor.measurement import measure_scan_modes
from repro.tools.maintenance_compare import compare_maintenance_modes
from repro.tools.whatif_compare import compare_search_modes
from repro.workloads.xmark import (
    XMarkConfig,
    generate_xmark_database,
    xmark_query_workload,
)


def _env_float(name: str, default: float) -> float:
    """Float-valued env override (unset or unparsable falls back)."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _scale(default: float = 0.1) -> float:
    """``REPRO_SMOKE_XMARK_SCALE`` override (same semantics as the
    benchmark/test conftests)."""
    return _env_float("REPRO_SMOKE_XMARK_SCALE", default)


def record_e3_search(database, workload) -> dict:
    """Legacy-vs-incremental budget sweep (greedy-heuristic + top-down)."""
    sweep = compare_search_modes(database, workload)
    legacy, incr = sweep.totals["legacy"], sweep.totals["incremental"]
    return {
        "candidates": sweep.candidate_count,
        "queries": sweep.query_count,
        "legacy": {"seconds": round(legacy["seconds"], 4),
                   "query_costings": legacy["costings"],
                   "plan_calls": legacy["plan_calls"]},
        "incremental": {"seconds": round(incr["seconds"], 4),
                        "query_costings": incr["costings"],
                        "plan_calls": incr["plan_calls"]},
        "identical_configurations": sweep.identical,
        "costings_ratio": round(sweep.costings_ratio, 2),
        "time_speedup": round(sweep.time_speedup, 2),
    }


def record_e5_execution(database, workload) -> dict:
    """Interpretive scan vs columnar scan wall times.

    The columnar leg keeps the ``summary_seconds`` field name already
    recorded in ``BENCH_advisor.json``, so the E5 trajectory stays
    comparable."""
    measurements = measure_scan_modes(database, workload)
    interpretive = measurements["scan-interpretive"]
    columnar = measurements["scan-columnar"]
    return {
        "interpretive_seconds": round(interpretive.total_seconds, 4),
        "summary_seconds": round(columnar.total_seconds, 4),
        "speedup": round(interpretive.total_seconds
                         / max(columnar.total_seconds, 1e-9), 2),
    }


def record_e6_maintenance(scale: float) -> dict:
    """Incremental vs rebuild document-add maintenance (best of 3 to
    damp scheduler noise at CI scales)."""
    best = None
    for _ in range(3):
        comparison = compare_maintenance_modes(scale=scale)
        if not comparison.identical:
            best = comparison
            break
        if best is None or comparison.ratio > best.ratio:
            best = comparison
    return {
        "base_documents": best.base_documents,
        "documents_added": best.documents_added,
        "incremental_seconds": round(best.incremental_seconds, 4),
        "rebuild_seconds": round(best.rebuild_seconds, 4),
        "speedup": round(best.ratio, 2),
        "identical_state": best.identical,
    }


def record_e7_routing(scale: float) -> dict:
    """Routed vs unrouted scan + what-if re-costing (best of 3 for the
    timed scan half; the re-costing counts are deterministic)."""
    from repro.tools.routing_compare import compare_routing_modes

    best = None
    for _ in range(3):
        comparison = compare_routing_modes(scale=scale)
        exact = (comparison.identical_results and comparison.benefits_identical
                 and comparison.configurations_identical
                 and comparison.cross_recostings == 0)
        if not exact:
            best = comparison
            break
        if best is None or comparison.scan_ratio > best.scan_ratio:
            best = comparison
    return {
        "xmark_documents": best.xmark_documents,
        "ballast_documents": best.ballast_documents,
        "routed_seconds": round(best.routed_seconds, 4),
        "unrouted_seconds": round(best.unrouted_seconds, 4),
        "scan_speedup": round(best.scan_ratio, 2),
        "recostings_routed": best.recostings_routed,
        "recostings_unrouted": best.recostings_unrouted,
        "recosting_ratio": round(best.recosting_ratio, 2),
        "cross_recostings": best.cross_recostings,
        "identical_results": best.identical_results,
        "benefits_identical": best.benefits_identical,
        "configurations_identical": best.configurations_identical,
    }


def record_e13_columnar(scale: float) -> dict:
    """Columnar vs interpretive descendant-heavy scans (best of 3 for
    the timed half; fallback counters and flags are deterministic)."""
    from repro.tools.columnar_compare import compare_columnar_modes

    best = None
    for _ in range(3):
        comparison = compare_columnar_modes(scale=scale)
        exact = (comparison.identical_results and comparison.sizing_consistent
                 and comparison.columnar_fallbacks == 0
                 and comparison.interpretive_fallbacks > 0)
        if not exact:
            best = comparison
            break
        if best is None or comparison.scan_ratio > best.scan_ratio:
            best = comparison
    return {
        "documents": best.documents,
        "node_count": best.node_count,
        "columnar_seconds": round(best.columnar_seconds, 4),
        "interpretive_seconds": round(best.interpretive_seconds, 4),
        "scan_speedup": round(best.scan_ratio, 2),
        "columnar_fallbacks": best.columnar_fallbacks,
        "interpretive_fallbacks": best.interpretive_fallbacks,
        "result_rows": best.result_rows,
        "identical_results": best.identical_results,
        "sizing_consistent": best.sizing_consistent,
    }


def record_e14_vectorized(scale: float) -> dict:
    """Vectorized vs object-hop predicate scans (best of 3 for the
    timed half; materialization counters and flags are deterministic)."""
    from repro.tools.vectorized_compare import compare_vectorized_modes

    best = None
    for _ in range(3):
        comparison = compare_vectorized_modes(scale=scale)
        exact = (comparison.identical_results and comparison.sizing_consistent
                 and comparison.vectorized_materializations == 0
                 and comparison.hatch_materializations > 0)
        if not exact:
            best = comparison
            break
        if best is None or comparison.scan_ratio > best.scan_ratio:
            best = comparison
    return {
        "documents": best.documents,
        "vectorized_seconds": round(best.vectorized_seconds, 4),
        "hatch_seconds": round(best.hatch_seconds, 4),
        "scan_speedup": round(best.scan_ratio, 2),
        "vectorized_materializations": best.vectorized_materializations,
        "hatch_materializations": best.hatch_materializations,
        "result_rows": best.result_rows,
        "identical_results": best.identical_results,
        "sizing_consistent": best.sizing_consistent,
    }


def record_e15_telemetry(scale: float) -> dict:
    """Traced vs untraced execution (best of 3 comparisons by overhead
    ratio; span and cost-sample counts and the identity flag are
    deterministic)."""
    from repro.tools.telemetry_compare import compare_telemetry_modes

    best = None
    for _ in range(3):
        comparison = compare_telemetry_modes(scale=scale, repeats=5)
        if not comparison.identical_results:
            best = comparison
            break
        if best is None or comparison.overhead_ratio < best.overhead_ratio:
            best = comparison
    return {
        "documents": best.documents,
        "untraced_seconds": round(best.untraced_seconds, 4),
        "traced_seconds": round(best.traced_seconds, 4),
        "overhead_ratio": round(best.overhead_ratio, 3),
        "spans_recorded": best.spans_recorded,
        "cost_samples": best.cost_samples,
        "result_rows": best.result_rows,
        "identical_results": best.identical_results,
    }


def record_e10_online(scale: float) -> dict:
    """Online loop vs offline advisor (every flag/count deterministic:
    logical steps and template counts, no wall clock)."""
    from repro.tools.online_compare import compare_online_offline

    comparison = compare_online_offline(scale=scale)
    return {
        "stationary_identical": comparison.stationary_identical,
        "stationary_stable": comparison.stationary_stable,
        "index_plans_after_migration": comparison.index_plans_after_migration,
        "drift_detected": comparison.drift_detected,
        "drift_score": round(comparison.drift_score, 3),
        "migrated_with_drops": comparison.migrated_with_drops,
        "reconverged_identical": comparison.reconverged_identical,
        "captured_templates_1x": comparison.captured_templates_1x,
        "compressed_size_1x": comparison.compressed_size_1x,
        "captured_templates_10x": comparison.captured_templates_10x,
        "compressed_size_10x": comparison.compressed_size_10x,
        "cluster_cap": comparison.flood_cluster_cap,
        "compression_bounded": comparison.compression_bounded,
        "compression_ratio": round(comparison.compression_ratio, 2),
        # The one pass/fail predicate shared with the E10 bench and the
        # tier-1 smoke guard (OnlineComparison.converged).
        "converged": comparison.converged,
    }


def record_e12_recovery(scale: float) -> dict:
    """Clean-vs-faulted tuning recovery (counters and equivalence flags
    deterministic; the overhead ratio is the one wall-clock number)."""
    from repro.tools.recovery_compare import compare_recovery_modes

    comparison = compare_recovery_modes(scale=scale)
    return {
        "clean_seconds": round(comparison.clean_seconds, 4),
        "faulted_seconds": round(comparison.faulted_seconds, 4),
        "overhead_ratio": round(comparison.overhead_ratio, 2),
        "faults_injected": comparison.faults_injected,
        "transients_absorbed": comparison.transients_absorbed,
        "rollbacks": comparison.rollbacks,
        "build_failures": comparison.build_failures,
        "cycles_clean": comparison.cycles_clean,
        "cycles_faulted": comparison.cycles_faulted,
        "converged": comparison.converged,
        "results_identical": comparison.results_identical,
        "fallback_identical": comparison.fallback_identical,
        "repaired": comparison.repaired,
    }


def _load_history(output: str) -> list:
    """The existing trajectory at ``output``, tolerating absence.

    A missing or empty file starts a fresh series; a corrupt file is
    backed up to ``<output>.corrupt`` (so the bytes survive for
    inspection) with a warning to stderr, and the series restarts.
    """
    if not os.path.exists(output):
        return []
    try:
        with open(output, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"warning: could not read {output} ({exc}); "
              f"starting a fresh series", file=sys.stderr)
        return []
    if not text.strip():
        return []
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as exc:
        backup = output + ".corrupt"
        try:
            with open(backup, "w", encoding="utf-8") as handle:
                handle.write(text)
            where = f"backed up to {backup}"
        except OSError:
            where = "backup failed"
        print(f"warning: {output} holds invalid JSON ({exc}); {where}; "
              f"starting a fresh series", file=sys.stderr)
        return []
    return loaded if isinstance(loaded, list) else [loaded]


def _write_history(output: str, entries: list) -> None:
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_advisor.json",
                        help="path of the JSON file to write")
    args = parser.parse_args()

    scale = _scale()
    database = generate_xmark_database(XMarkConfig(scale=scale, seed=42))
    workload = xmark_query_workload(name="bench-record")

    entry = {
        "recorded_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "xmark_scale": scale,
        "e3_search": record_e3_search(database, workload),
        "e5_execution": record_e5_execution(database, workload),
        "e6_maintenance": record_e6_maintenance(scale),
        "e7_routing": record_e7_routing(scale),
        "e13_columnar": record_e13_columnar(scale),
        "e14_vectorized": record_e14_vectorized(scale),
        "e15_telemetry": record_e15_telemetry(scale),
        "e10_online": record_e10_online(scale),
        "e12_recovery": record_e12_recovery(scale),
    }

    # Append to the trajectory (a JSON list, one entry per recording) so
    # successive PRs accumulate instead of overwriting each other.
    entries = _load_history(args.output)
    entries.append(entry)
    _write_history(args.output, entries)

    e3, e5 = entry["e3_search"], entry["e5_execution"]
    e6, e7 = entry["e6_maintenance"], entry["e7_routing"]
    e10, e12 = entry["e10_online"], entry["e12_recovery"]
    e13 = entry["e13_columnar"]
    e14 = entry["e14_vectorized"]
    e15 = entry["e15_telemetry"]
    print(f"wrote {args.output} (xmark scale {scale})")
    print(f"  E3: identical={e3['identical_configurations']} "
          f"costings {e3['legacy']['query_costings']}"
          f"->{e3['incremental']['query_costings']} "
          f"({e3['costings_ratio']}x), "
          f"time {e3['legacy']['seconds']}s->{e3['incremental']['seconds']}s "
          f"({e3['time_speedup']}x)")
    print(f"  E5: scan {e5['interpretive_seconds']}s -> columnar "
          f"{e5['summary_seconds']}s ({e5['speedup']}x)")
    print(f"  E6: identical={e6['identical_state']} maintenance rebuild "
          f"{e6['rebuild_seconds']}s -> incremental "
          f"{e6['incremental_seconds']}s ({e6['speedup']}x)")
    print(f"  E7: scan {e7['unrouted_seconds']}s -> routed "
          f"{e7['routed_seconds']}s ({e7['scan_speedup']}x), "
          f"re-costings {e7['recostings_unrouted']}"
          f"->{e7['recostings_routed']} ({e7['recosting_ratio']}x), "
          f"cross={e7['cross_recostings']}")
    print(f"  E13: identical={e13['identical_results']} "
          f"sizing={e13['sizing_consistent']} "
          f"descendant scan {e13['interpretive_seconds']}s -> columnar "
          f"{e13['columnar_seconds']}s ({e13['scan_speedup']}x), "
          f"fallbacks {e13['interpretive_fallbacks']}"
          f"->{e13['columnar_fallbacks']}")
    print(f"  E14: identical={e14['identical_results']} "
          f"sizing={e14['sizing_consistent']} "
          f"predicate scan {e14['hatch_seconds']}s -> vectorized "
          f"{e14['vectorized_seconds']}s ({e14['scan_speedup']}x), "
          f"materializations {e14['hatch_materializations']}"
          f"->{e14['vectorized_materializations']}")
    print(f"  E15: identical={e15['identical_results']} "
          f"untraced {e15['untraced_seconds']}s -> traced "
          f"{e15['traced_seconds']}s ({e15['overhead_ratio']}x), "
          f"{e15['spans_recorded']} span(s), "
          f"{e15['cost_samples']} cost sample(s)")
    print(f"  E10: stationary={e10['stationary_identical']} "
          f"stable={e10['stationary_stable']} "
          f"drift={e10['drift_detected']} "
          f"reconverged={e10['reconverged_identical']} "
          f"compression {e10['captured_templates_10x']}"
          f"->{e10['compressed_size_10x']} "
          f"({e10['compression_ratio']}x, cap {e10['cluster_cap']})")
    print(f"  E12: converged={e12['converged']} "
          f"results={e12['results_identical']} "
          f"fallback={e12['fallback_identical']} "
          f"repaired={e12['repaired']} "
          f"recovery {e12['clean_seconds']}s->{e12['faulted_seconds']}s "
          f"({e12['overhead_ratio']}x over {e12['faults_injected']} "
          f"fault(s), {e12['rollbacks']} rollback(s))")

    min_maint_ratio = _env_float("REPRO_SMOKE_MIN_MAINT_RATIO", 2.0)
    min_routing_ratio = _env_float("REPRO_SMOKE_MIN_ROUTING_RATIO", 2.0)
    min_online_compression = _env_float(
        "REPRO_SMOKE_MIN_ONLINE_COMPRESSION", 2.0)
    if not e3["identical_configurations"] or not e6["identical_state"]:
        return 1
    if e6["speedup"] < min_maint_ratio:
        print(f"  FAIL: maintenance speedup {e6['speedup']}x below the "
              f"floor {min_maint_ratio}x")
        return 1
    if not (e7["identical_results"] and e7["benefits_identical"]
            and e7["configurations_identical"]) or e7["cross_recostings"]:
        print("  FAIL: routing comparison lost equivalence")
        return 1
    if e7["scan_speedup"] < min_routing_ratio \
            or e7["recosting_ratio"] < min_routing_ratio:
        print(f"  FAIL: routing ratios {e7['scan_speedup']}x scan / "
              f"{e7['recosting_ratio']}x re-costing below the floor "
              f"{min_routing_ratio}x")
        return 1
    min_columnar_ratio = _env_float("REPRO_SMOKE_MIN_COLUMNAR_RATIO", 2.0)
    if not (e13["identical_results"] and e13["sizing_consistent"]) \
            or e13["columnar_fallbacks"] or not e13["interpretive_fallbacks"]:
        print("  FAIL: columnar comparison lost equivalence/exactness")
        return 1
    if e13["scan_speedup"] < min_columnar_ratio:
        print(f"  FAIL: columnar scan speedup {e13['scan_speedup']}x below "
              f"the floor {min_columnar_ratio}x")
        return 1
    min_vectorized_ratio = _env_float("REPRO_SMOKE_MIN_VECTORIZED_RATIO", 2.0)
    if not (e14["identical_results"] and e14["sizing_consistent"]) \
            or e14["vectorized_materializations"] \
            or not e14["hatch_materializations"]:
        print("  FAIL: vectorized comparison lost equivalence/exactness")
        return 1
    if e14["scan_speedup"] < min_vectorized_ratio:
        print(f"  FAIL: vectorized scan speedup {e14['scan_speedup']}x below "
              f"the floor {min_vectorized_ratio}x")
        return 1
    if not e10["converged"]:
        print("  FAIL: online tuning loop lost convergence/boundedness")
        return 1
    if e10["compression_ratio"] < min_online_compression:
        print(f"  FAIL: online compression ratio {e10['compression_ratio']}x "
              f"below the floor {min_online_compression}x")
        return 1
    max_recovery_overhead = _env_float(
        "REPRO_SMOKE_MAX_RECOVERY_OVERHEAD", 10.0)
    if not (e12["converged"] and e12["results_identical"]
            and e12["fallback_identical"] and e12["repaired"]):
        print("  FAIL: fault recovery lost convergence or result identity")
        return 1
    if e12["overhead_ratio"] > max_recovery_overhead:
        print(f"  FAIL: recovery overhead {e12['overhead_ratio']}x exceeds "
              f"the ceiling {max_recovery_overhead}x")
        return 1
    max_telemetry_overhead = _env_float(
        "REPRO_SMOKE_MAX_TELEMETRY_OVERHEAD", 1.15)
    if not e15["identical_results"]:
        print("  FAIL: telemetry comparison lost result identity")
        return 1
    if e15["overhead_ratio"] > max_telemetry_overhead:
        print(f"  FAIL: tracing overhead {e15['overhead_ratio']}x exceeds "
              f"the ceiling {max_telemetry_overhead}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
