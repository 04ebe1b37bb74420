#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload plan-warm --seed 1 --seconds 10 --trace 0

Builds perfbench/driver.cc against the library sources in src/ with CMake
(Release) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root, then runs the driver. Build output goes to standard
error; the last line of standard output is the driver's JSON result. Exits
non-zero, without a result line, when the sources are missing, the build
fails or the driver fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("plan-warm", "plan-churn")
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def run_step(cmd, cwd, timeout):
    """Runs one build command with its output on stderr; True on success."""
    try:
        done = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False
    except OSError as err:
        print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(root, bench_dir, build_dir):
    """Configures (once) and builds the driver; True on success."""
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_step(configure, root, CONFIGURE_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_step(["cmake", "--build", str(build_dir), "--target",
                     "perfbench_driver", "-j", jobs], root, BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no library sources at src/ next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = (root / target / "perfbench").resolve()
    if root not in build_dir.parents:
        print(f"perfbench: build directory {build_dir} is outside {root}",
              file=sys.stderr)
        return 2
    if not build(root, bench_dir, build_dir):
        return 3

    driver = [str(build_dir / "perfbench_driver"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(driver, cwd=root, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              text=True, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 4
    if done.returncode != 0:
        print(f"perfbench: driver exited with {done.returncode}",
              file=sys.stderr)
        return 5
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
