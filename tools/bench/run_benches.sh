#!/usr/bin/env bash
# Runs every bench binary with machine-readable JSON output so perf
# trajectories can be diffed across PRs (EXPERIMENTS.md records the
# narrative; the JSON is the raw data). Each JSON's "context" carries the
# host stamp: Google Benchmark's own num_cpus and mhz_per_cpu, plus the
# git_sha of this checkout and the build_type and compiler that
# <build_dir>/CMakeCache.txt records.
#
# Usage: tools/bench/run_benches.sh [--only <bench_name>] [build_dir] \
#            [out_dir] [benchmark filter]
#   --only     run a single bench binary (e.g. --only bench_storage)
#              instead of all of them
#   build_dir  where the bench binaries live (default: build)
#   out_dir    where BENCH_<name>.json files are written (default:
#              bench-results)
#   filter     optional --benchmark_filter regex forwarded to every binary
#
# Examples — just the discovery corpus-build comparison:
#   tools/bench/run_benches.sh build bench-results 'CorpusBuild|LakeGen'
# — refresh only the storage tier's JSON:
#   tools/bench/run_benches.sh --only bench_storage
set -euo pipefail

ONLY=""
if [ "${1:-}" = "--only" ]; then
  ONLY="${2:?--only requires a bench name, e.g. --only bench_storage}"
  shift 2
fi

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"
FILTER="${3:-}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found — build the project first" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"

# Host stamp: what produced the numbers, for compare_benches.py to check.
CACHE="$BUILD_DIR/CMakeCache.txt"
cache_value() {  # cache_value <key>: that entry's value in $CACHE
  sed -n "s/^$1:[A-Z]*=//p" "$CACHE" | head -n 1
}
GIT_SHA="$(git -C "$(dirname "$0")" rev-parse HEAD 2>/dev/null ||
           echo unknown)"
BUILD_TYPE="unknown"
COMPILER="unknown"
if [ -f "$CACHE" ]; then
  BUILD_TYPE="$(cache_value CMAKE_BUILD_TYPE)"
  # CMakeLists.txt caches its RelWithDebInfo default, so an empty entry
  # means a tree configured before it did (it compiled -O2 -g all the same).
  BUILD_TYPE="${BUILD_TYPE:-none}"
  CXX="$(cache_value CMAKE_CXX_COMPILER)"
  if [ -n "$CXX" ]; then
    COMPILER="$(basename "$CXX")-$("$CXX" -dumpfullversion 2>/dev/null ||
                                   "$CXX" -dumpversion 2>/dev/null ||
                                   echo unknown)"
  fi
fi
CONTEXT="git_sha=$GIT_SHA,build_type=$BUILD_TYPE,compiler=$COMPILER"

if [ -n "$ONLY" ] && [ ! -x "$BUILD_DIR/bench/$ONLY" ]; then
  echo "error: $BUILD_DIR/bench/$ONLY not found or not executable" >&2
  exit 1
fi

for bin in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  if [ -n "$ONLY" ] && [ "$name" != "$ONLY" ]; then
    continue
  fi
  args=(
    "--benchmark_out=$OUT_DIR/BENCH_${name}.json"
    "--benchmark_out_format=json"
    "--benchmark_context=$CONTEXT"
  )
  if [ -n "$FILTER" ]; then
    args+=("--benchmark_filter=$FILTER")
  fi
  echo "== $name"
  "$bin" "${args[@]}"
done

echo "JSON results in $OUT_DIR/"
