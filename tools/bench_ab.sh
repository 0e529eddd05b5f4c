#!/bin/sh
# Same-host A/B timing of bench_perf: a base revision against the working
# tree.
#
# Usage: tools/bench_ab.sh <base-rev> [filter]
#   base-rev  any git revision (commit, tag, branch)
#   filter    google-benchmark regex (default: every series)
#
# Environment:
#   BUILD_DIR    the head build tree (default: build).  The base revision
#                is exported (git archive) into $BUILD_DIR/bench-ab/<sha>/src
#                and built in $BUILD_DIR/bench-ab/<sha>/build.
#   AB_RUNS      alternating base/head run pairs (default: 5)
#   AB_MIN_TIME  --benchmark_min_time per series, in seconds (default: 0.2)
#   JOBS         build parallelism (default: 2)
#
# Both sides are Release builds that compile the working tree's bench/
# sources and CMakeLists.txt, so one measuring code times two libraries;
# a bench source that needs an API the base lacks fails the base build.
# The base is an exported tree rather than a `git worktree`: a deleted
# build tree then leaves no worktree registration behind in .git.
#
# The runs alternate base, head, base, head, ... so host drift hits both
# sides alike.  For every series the script prints each side's median
# real time, the ratio base/head of the medians (> 1: the head is
# faster) and each side's spread, (max - min) / median over its runs.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: tools/bench_ab.sh <base-rev> [filter]" >&2
  exit 2
fi
base_rev="$1"
filter="${2:-.}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-build}"
case "$build_dir" in
  /*) ;;
  *) build_dir="$repo_root/$build_dir" ;;
esac
runs="${AB_RUNS:-5}"
min_time="${AB_MIN_TIME:-0.2}"
jobs="${JOBS:-2}"

sha="$(git -C "$repo_root" rev-parse --verify "$base_rev^{commit}")"
ab_dir="$build_dir/bench-ab/$sha"
base_src="$ab_dir/src"
base_build="$ab_dir/build"

build_bench() {  # <source-dir> <build-dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$2" -j "$jobs" --target bench_perf > /dev/null
}

if [ ! -d "$base_src" ]; then
  mkdir -p "$base_src"
  git -C "$repo_root" archive "$sha" | tar -x -C "$base_src"
fi
# The head's measuring code over the base library.
rm -rf "$base_src/bench"
cp -R "$repo_root/bench" "$base_src/bench"
cp "$repo_root/CMakeLists.txt" "$base_src/CMakeLists.txt"
echo "building base $sha in $base_build" >&2
build_bench "$base_src" "$base_build"
echo "building head in $build_dir" >&2
build_bench "$repo_root" "$build_dir"

out="$ab_dir/runs"
rm -rf "$out"
mkdir -p "$out"
i=1
while [ "$i" -le "$runs" ]; do
  for side in base head; do
    if [ "$side" = base ]; then bin="$base_build/bench_perf"; else bin="$build_dir/bench_perf"; fi
    echo "run $i/$runs: $side" >&2
    "$bin" --benchmark_filter="$filter" --benchmark_min_time="$min_time" \
           --benchmark_format=json > "$out/$side.$i.json"
  done
  i=$((i + 1))
done

python3 - "$out" "$runs" <<'EOF'
import json, statistics, sys

out, runs = sys.argv[1], int(sys.argv[2])
scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
series = {}  # name -> side -> [real time in ns]
order = []
for side in ("base", "head"):
    for i in range(1, runs + 1):
        with open(f"{out}/{side}.{i}.json") as f:
            for b in json.load(f)["benchmarks"]:
                if b.get("run_type") == "aggregate":
                    continue
                name = b["name"]
                if name not in series:
                    series[name] = {"base": [], "head": []}
                    order.append(name)
                series[name][side].append(b["real_time"] * scale[b["time_unit"]])

def fmt(ns):
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.3g} {unit}"
    return f"{ns:.3g} ns"

print(f"{runs} alternating runs per side; ratio = base median / head median")
print(f"{'series':<44} {'base':>10} {'head':>10} {'ratio':>7} {'spread b/h':>14}")
for name in order:
    b, h = series[name]["base"], series[name]["head"]
    if not b or not h:
        print(f"{name:<44} (only on {'base' if b else 'head'})")
        continue
    mb, mh = statistics.median(b), statistics.median(h)
    spread = f"{(max(b) - min(b)) / mb:.0%}/{(max(h) - min(h)) / mh:.0%}"
    print(f"{name:<44} {fmt(mb):>10} {fmt(mh):>10} {mb / mh:>6.2f}x {spread:>14}")
EOF
