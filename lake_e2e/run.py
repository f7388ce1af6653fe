#!/usr/bin/env python3
"""Builds the lake_e2e benchmark from this checkout and runs a workload.

Run from anywhere inside a lakekit checkout:

  python3 lake_e2e/run.py --workload query_warm --seed 1 --seconds 20 --trace 0
  python3 lake_e2e/run.py --workload all --seed 1 --seconds 20 --trace 0
  python3 lake_e2e/run.py --test        # the benchmark's own unit tests

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout, as a Release build of lake_e2e/CMakeLists.txt, which compiles the
lakekit libraries from ../src. Build output goes to stderr; stdout carries
the workload's report and, as its last line, one JSON result. A failed
build or a failed answer check exits nonzero without a result line.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lake_build", "query_warm", "query_refresh"]
# Longest a workload may run past --seconds (set-up, checks, teardown).
GRACE_S = 150


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir, targets):
    """Configures (once) and builds `targets`; False on any failure."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", build_dir, "-j", "3", "--target"] + targets
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(binary, workload, args, runs_dir):
    lake_dir = os.path.join(runs_dir, "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--lake-dir", lake_dir, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            runs_dir, "%s-seed%d.spans.tsv" % (workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("lake_e2e: %s timed out" % workload, file=sys.stderr)
        return 124
    finally:
        shutil.rmtree(lake_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(build_root(), "lake_e2e")
    target = "lake_e2e_test" if args.test else "lake_e2e"
    if not build(build_dir, [target]):
        print("lake_e2e: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, target)
    if args.test:
        return subprocess.run([binary]).returncode

    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        rc = run_workload(binary, workload, args, runs_dir)
        if rc != 0:
            print("lake_e2e: %s failed (exit %d)" % (workload, rc),
                  file=sys.stderr)
            status = rc
    return status


if __name__ == "__main__":
    sys.exit(main())
