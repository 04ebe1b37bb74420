#!/usr/bin/env python3
"""Checks BENCH_<name>.json artifacts for performance regressions.

Two kinds of comparison, with very different teeth:

  * Hard floors (FAIL): a metric that carries a "baseline" field in the
    artifact itself (bench_common.h BenchMetric::baseline) encodes a
    contract the bench already enforces at runtime — e.g. the serving
    bench's 5x cold-batch speedup floor. value < baseline exits nonzero,
    so a bench binary that silently stopped aborting on its own floors
    still fails CI here.

  * Drift (WARN only): if bench/baselines/ holds a reference artifact with
    the same file name, every shared metric is compared against it and a
    relative move in the worse direction beyond --drift-tolerance (default
    25%) prints a warning. The metric's unit gives the direction: times
    (s, ms, us, ns) and allocation counts (allocs) are lower-is-better and
    warn when they rise; every other unit (throughputs, ratios, counts) is
    higher-is-better and warns when it drops. Machine-to-machine throughput
    variance makes hard-failing on drift a flake generator, so this is
    advisory: a human reads the warnings and refreshes the reference when
    the change is intentional.

Usage: check_bench_regression.py [--baselines DIR] [--drift-tolerance F]
                                 BENCH_foo.json [BENCH_bar.json ...]
"""

import argparse
import json
import os
import sys


# Units whose metrics improve as they fall.
LOWER_IS_BETTER_UNITS = {"s", "ms", "us", "ns", "allocs"}


def fail(msg):
    print(f"check_bench_regression: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def warn(msg):
    print(f"check_bench_regression: WARN: {msg}", file=sys.stderr)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: cannot read: {e}")
    if not isinstance(doc.get("metrics"), list):
        fail(f"{path}: missing 'metrics' list")
    metrics = {}
    for m in doc["metrics"]:
        if not isinstance(m, dict) or "name" not in m or "value" not in m:
            fail(f"{path}: malformed metric entry {m!r}")
        metrics[m["name"]] = m
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifacts", nargs="+", help="BENCH_*.json files")
    parser.add_argument(
        "--baselines",
        default=os.path.join(os.path.dirname(__file__), "..", "bench",
                             "baselines"),
        help="directory holding reference BENCH_*.json artifacts")
    parser.add_argument(
        "--drift-tolerance", type=float, default=0.25,
        help="relative drop vs the reference that triggers a warning")
    args = parser.parse_args()

    failures = 0
    warnings = 0
    for path in args.artifacts:
        metrics = load(path)

        # Hard floors carried inside the artifact.
        for name, m in sorted(metrics.items()):
            baseline = m.get("baseline")
            if baseline is None:
                continue
            if not isinstance(baseline, (int, float)) or isinstance(
                    baseline, bool):
                fail(f"{path}: metric '{name}' has non-numeric baseline")
            if m["value"] < baseline:
                print(
                    f"check_bench_regression: FAIL: {path}: '{name}' = "
                    f"{m['value']:g} below its hard floor {baseline:g}",
                    file=sys.stderr)
                failures += 1

        # Warn-only drift vs the committed reference run, when one exists.
        ref_path = os.path.join(args.baselines, os.path.basename(path))
        if not os.path.exists(ref_path):
            continue
        reference = load(ref_path)
        for name in sorted(set(metrics) & set(reference)):
            ref_value = reference[name]["value"]
            if not isinstance(ref_value, (int, float)) or ref_value <= 0:
                continue  # counters at 0 and non-throughput samples: skip
            value = metrics[name]["value"]
            if metrics[name].get("unit") in LOWER_IS_BETTER_UNITS:
                worse, direction = (value - ref_value) / ref_value, "up"
            else:
                worse, direction = (ref_value - value) / ref_value, "down"
            if worse > args.drift_tolerance:
                warn(f"{path}: '{name}' drifted {direction} "
                     f"{100 * worse:.0f}% ({value:g} vs reference "
                     f"{ref_value:g})")
                warnings += 1

    if failures:
        fail(f"{failures} metric(s) below their hard floors")
    summary = "no hard-floor violations"
    if warnings:
        summary += f", {warnings} drift warning(s)"
    print(f"check_bench_regression: OK ({summary})")


if __name__ == "__main__":
    main()
