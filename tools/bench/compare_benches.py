#!/usr/bin/env python3
"""Compare two Google Benchmark JSON files and flag regressions.

Pairs benchmarks by name between a baseline and a contender run (both
produced by tools/bench/run_benches.sh via --benchmark_out_format=json),
prints a per-benchmark ratio table, and exits non-zero when any shared
benchmark slowed down by more than the threshold. New or vanished
benchmarks are reported but never fail the comparison — PRs add and
retire benchmarks all the time.

Both files' host stamps (the JSON "context": num_cpus, build_type,
compiler, git_sha) are printed first; when num_cpus, build_type or
compiler differ, a warning goes to stderr, since the ratios then compare
hosts or builds as well as code. The exit code does not depend on it.

Usage:
  tools/bench/compare_benches.py BASELINE.json CONTENDER.json \
      [--threshold 0.10] [--metric real_time|cpu_time]

Exit codes: 0 ok, 1 regression over threshold, 2 usage/parse error.
"""

import argparse
import json
import sys

# Normalise every sample to nanoseconds so baseline and contender may
# disagree on --benchmark_time_unit.
_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


# Host-stamp keys printed for both files; differing in the first three
# earns a warning.
_STAMP_KEYS = ("num_cpus", "build_type", "compiler", "git_sha")
_MUST_MATCH = _STAMP_KEYS[:3]


def load_doc(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")


def host_stamp(doc):
    """Returns {key: value} for _STAMP_KEYS ("unknown" when absent)."""
    context = doc.get("context", {})
    return {k: str(context.get(k, "unknown")) for k in _STAMP_KEYS}


def load_samples(doc, metric):
    """Returns {benchmark name: time in ns} for per-iteration entries.

    Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
    collapsed to the mean; plain rows are used as-is.
    """
    samples = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate" and b.get("aggregate_name") != "mean":
            continue
        name = b.get("run_name", b["name"])
        unit = _UNIT_NS.get(b.get("time_unit", "ns"))
        if unit is None or metric not in b:
            continue
        samples[name] = b[metric] * unit
    return samples


def fmt_ns(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:8.2f} {unit}"
    return f"{ns:8.2f} ns"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("contender")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="max allowed slowdown fraction before failing (default 0.10)",
    )
    parser.add_argument(
        "--metric",
        choices=["real_time", "cpu_time"],
        default="real_time",
        help="which timing to compare (default real_time)",
    )
    args = parser.parse_args()

    base_doc = load_doc(args.baseline)
    cont_doc = load_doc(args.contender)
    base_stamp = host_stamp(base_doc)
    cont_stamp = host_stamp(cont_doc)
    for label, stamp in (("baseline", base_stamp), ("contender", cont_stamp)):
        print(f"{label:<9}  " + "  ".join(f"{k}={v}" for k, v in stamp.items()))
    for key in _MUST_MATCH:
        if base_stamp[key] != cont_stamp[key]:
            print(f"warning: {key} differs: {base_stamp[key]} (baseline) vs "
                  f"{cont_stamp[key]} (contender)", file=sys.stderr)
    print()

    base = load_samples(base_doc, args.metric)
    cont = load_samples(cont_doc, args.metric)
    if not base:
        sys.exit(f"error: no usable benchmarks in {args.baseline}")
    if not cont:
        sys.exit(f"error: no usable benchmarks in {args.contender}")

    shared = sorted(base.keys() & cont.keys())
    regressions = []
    width = max((len(n) for n in shared), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>11}  {'contender':>11}  ratio")
    for name in shared:
        ratio = cont[name] / base[name] if base[name] > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, ratio))
        print(
            f"{name:<{width}}  {fmt_ns(base[name])}  {fmt_ns(cont[name])}"
            f"  {ratio:5.2f}x{flag}"
        )

    for name in sorted(cont.keys() - base.keys()):
        print(f"{name:<{width}}  {'(new)':>11}  {fmt_ns(cont[name])}")
    for name in sorted(base.keys() - cont.keys()):
        print(f"{name:<{width}}  {fmt_ns(base[name])}  {'(gone)':>11}")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:.0%}:",
            file=sys.stderr,
        )
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\nok: no regression over {args.threshold:.0%} across "
          f"{len(shared)} shared benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
