#!/bin/sh
# Runs the perf benchmark suite and writes machine-readable results to
# BENCH_PR<N>.json, seeding the perf trajectory across PRs.
#
# Usage: run_bench.sh [output-dir]
#   output-dir  created when missing; bench/trajectory is the committed
#               per-PR trajectory, e.g.
#                 BENCH_PR=<n> BENCH_BIN=build/bench_perf \
#                   bench/run_bench.sh bench/trajectory
#   BENCH_BIN   path to the bench_perf binary (default: ./bench_perf)
#   BENCH_BUILD_TYPE  CMake build type recorded in the JSON context
#               (the `bench` target passes it; default: unknown)
#   BENCH_PR    PR number used in the default output name; when unset it
#               is one more than the highest <n> of the committed
#               bench/trajectory/BENCH_PR<n>.json files, i.e. the number
#               of the PR currently in development.  Set it to rewrite
#               an existing trajectory file.
#   BENCH_OUT   output file name (default: BENCH_PR${BENCH_PR}.json)
#
# google-benchmark's JSON context records the host (CPUs, MHz, caches,
# load average); the build type is added as a custom context entry.
#
# The script refuses to guess: when BENCH_OUT and BENCH_PR are unset and
# bench/trajectory holds no BENCH_PR<n>.json, it exits non-zero instead
# of writing a misnamed JSON.
set -eu

out_dir="${1:-.}"
bin="${BENCH_BIN:-./bench_perf}"

if [ -z "${BENCH_OUT:-}" ] && [ -z "${BENCH_PR:-}" ]; then
  trajectory="$(cd "$(dirname "$0")" && pwd)/trajectory"
  last_pr="$(ls "$trajectory" 2>/dev/null |
             sed -n 's/^BENCH_PR\([0-9][0-9]*\)\.json$/\1/p' |
             sort -n | tail -n 1)"
  if [ -z "$last_pr" ]; then
    echo "run_bench.sh: cannot determine the output name: BENCH_PR is" >&2
    echo "unset and $trajectory holds no BENCH_PR<n>.json." >&2
    echo "Set BENCH_PR=<n> or BENCH_OUT=<file> explicitly." >&2
    exit 1
  fi
  BENCH_PR=$(( last_pr + 1 ))
fi
out="${BENCH_OUT:-BENCH_PR${BENCH_PR}.json}"

mkdir -p "$out_dir"
if [ ! -x "$bin" ]; then
  echo "run_bench.sh: bench binary not found at $bin" >&2
  echo "build it first: cmake --build <build-dir> --target bench_perf" >&2
  exit 1
fi

"$bin" --benchmark_format=json --benchmark_out="$out_dir/$out" \
       --benchmark_out_format=json \
       --benchmark_context=build_type="${BENCH_BUILD_TYPE:-unknown}"
echo "wrote $out_dir/$out"
