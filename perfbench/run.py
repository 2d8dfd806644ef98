"""The repository's pipeline benchmark: one command, three workloads.

    python3 perfbench/run.py --workload xmark-serve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the repository root.  Each run generates its input from
``--seed`` (untimed, in a child process), drives the program in
``src/`` through its public API with one closed-loop client, checks
every result, and prints a table of metrics (name, value, unit, sample
count) followed by one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, the ``per_layer`` metrics with
``--trace 1``.  A traced run also writes its spans and prints the
per-layer self-time table.  ``--workload all`` runs each workload in a
child process of its own (so no workload's memory peak is charged to
another) and merges their result lines.  The exit code is 0 only when
every result was correct and every metric was measured.  See README.md
here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("xmark-serve", "tpox-churn", "xmark-drift")
#: Seconds the input generator may take before the run gives up.
GENERATE_TIMEOUT_S = 150
#: Seconds one workload's child process may take under ``--workload all``.
WORKLOAD_TIMEOUT_S = 900


class BenchmarkError(Exception):
    """A run that cannot produce a result (no result line is printed)."""


def generate(workload: str, seed: int, scale: float) -> Dict[str, object]:
    """The workload's inputs (see ``gen.py``), made in a child process."""
    try:
        child = subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), workload, str(seed),
             repr(scale)],
            capture_output=True, text=True, timeout=GENERATE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"input generation took over {exc.timeout} s") from None
    if child.returncode != 0:
        raise BenchmarkError("input generation failed: "
                             + (child.stderr.strip().splitlines() or ["?"])[-1])
    return json.loads(child.stdout)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 units: Dict[str, str], sizes=None,
                 inputs: Optional[Dict[str, object]] = None):
    """Run one workload; returns (report, checker, tracer).  ``units``
    gives the unit of each metric ``BENCHMARK.json`` lists; those the
    workload marks not applicable are reported as such."""
    # Imported here: the workload modules import the program, which is
    # importable only once main() has put src/ on the path.
    import churn
    import drift
    import gen
    import serve
    from common import report_self_times
    from harness import Tracer

    module, scale = {"xmark-serve": (serve, gen.XMARK_SERVE_SCALE),
                     "tpox-churn": (churn, gen.TPOX_SCALE),
                     "xmark-drift": (drift, gen.XMARK_DRIFT_SCALE)}[name]
    if inputs is None:
        inputs = generate(name, seed, scale)
    tracer = Tracer(enabled=traced)
    if sizes is None:
        sizes = module.Sizes()
    report, checker = module.run(inputs, seed, seconds, tracer, sizes)
    report.add("error_rate", checker.error_rate, "ratio", count=checker.attempted)
    if traced:
        report_self_times(report, tracer)
    for metric, reason in module.NOT_APPLICABLE.items():
        if metric not in report.metrics and metric in units:
            report.add(metric, None, units[metric], note=reason)
    return report, checker, tracer


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from None


def result_line(report, checker, names: List[str], require_values: bool) -> dict:
    """The result object over ``names``; every one must be reported, and
    with ``require_values`` every one must have a value."""
    unmeasured = [name for name in report.missing(names)
                  if require_values or name not in report.metrics]
    if unmeasured:
        raise BenchmarkError("metrics not measured: " + ", ".join(
            f"{n} ({report.metrics[n].note if n in report.metrics else 'missing'})"
            for n in unmeasured))
    return {"correct": checker.correct, "attempted": checker.attempted,
            "failed": checker.failed, "metrics": report.json_metrics(names)}


def run_all(args) -> int:
    """Each workload in a child process; prints their output and one
    merged result line (metric names prefixed with the workload)."""
    lines = []
    for workload in WORKLOADS:
        try:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", repr(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} took over {WORKLOAD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 2
        output = child.stdout.rstrip("\n").splitlines()
        sys.stderr.write(child.stderr)
        try:
            line = json.loads(output[-1]) if child.returncode in (0, 1) else None
        except (IndexError, ValueError):
            line = None
        if line is None:
            print("\n".join(output))
            print(f"perfbench: {workload} gave no result (exit {child.returncode})",
                  file=sys.stderr)
            return 2
        print("\n".join(output[:-1]))
        lines.append((workload, line))
    result = {"correct": all(line["correct"] for _, line in lines),
              "attempted": sum(line["attempted"] for _, line in lines),
              "failed": sum(line["failed"] for _, line in lines),
              "metrics": {f"{workload}/{name}": value
                          for workload, line in lines
                          for name, value in line["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not os.path.isdir(os.path.join(SRC, "repro")):
            raise BenchmarkError(f"no program source at {SRC}/repro; run from the "
                                 "root of a repository checkout")
        spec = load_spec()
        if args.workload == "all":
            return run_all(args)
        sys.path.insert(0, SRC)
        key = "per_layer" if args.trace else "end_to_end"
        names = [metric["name"] for metric in spec[key]]
        units = {metric["name"]: metric["unit"]
                 for metric in spec["end_to_end"] + spec["per_layer"]}
        workload = args.workload
        started = time.perf_counter()
        report, checker, tracer = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), units)
        print(f"== {workload}  seed={args.seed}  seconds={args.seconds:g}  "
              f"trace={args.trace}  wall={time.perf_counter() - started:.1f}s")
        print(report.table())
        for message in checker.messages:
            print(f"MISMATCH {message}")
        if args.trace:
            print("self time per layer (s):")
            for layer, seconds in tracer.layer_self_times().items():
                print(f"  {layer:<12} {seconds:10.4f}")
            os.makedirs(OUT_DIR, exist_ok=True)
            path = os.path.join(OUT_DIR, f"{workload}-seed{args.seed}-spans.jsonl")
            tracer.write(path)
            print(f"spans: {os.path.relpath(path, ROOT)} ({len(tracer.spans)})")
        result = result_line(report, checker, names, require_values=not args.trace)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
