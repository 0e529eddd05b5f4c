#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload design|admission|fleet --seed N \
        --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, Release) around the
library of the enclosing checkout into .bench_build/, runs one workload
and prints its context lines, the host context and, as the last line, the
result object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics; a layer the workload does not exercise
reads 0.  Spans of a traced run go to .bench_build/traces/.

Exit status: 0 on a correct run, 1 when a correctness check failed (the
result is still printed), 2 when the benchmark cannot be built or run.

    python3 perfbench/run.py --selftest     # tests of the benchmark's own logic
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(source, build_dir, targets):
    if not (source / "src").is_dir() or not (source / "CMakeLists.txt").is_file():
        fail(f"no library sources at {source} (src/ and CMakeLists.txt are needed)")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", f"-DVRDF_ROOT={source}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    command = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_revision(source):
    try:
        out = subprocess.run(["git", "-C", str(source), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def host_context(source):
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = []
    return {"nproc": os.cpu_count(), "loadavg": load, "revision": git_revision(source)}


def check_metrics(result, spec, traced):
    """The metrics must be exactly the benchmark's list for the mode."""
    declared = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in units:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric["unit"] != units[name]:
            fail(f"metric {name} has unit {metric['unit']}, declared {units[name]}")
    missing = [name for name in units if name not in metrics]
    if missing and not traced:
        fail(f"end-to-end metrics missing: {', '.join(missing)}")
    # Per-layer metrics of layers this workload does not exercise read 0.
    result["metrics"] = {name: metrics.get(name, {"value": 0, "unit": units[name]})
                         for name in units}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--source", type=Path, default=ROOT,
                        help="checkout whose library is measured (default: this one)")
    parser.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build")
    args = parser.parse_args()
    source = args.source.resolve()
    build_dir = args.build_dir.resolve()

    if args.selftest:
        build(source, build_dir, ["vrdfbench_selftest"])
        sys.exit(subprocess.run([str(build_dir / "vrdfbench_selftest")]).returncode)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"--workload must be one of {', '.join(workloads)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build(source, build_dir, ["vrdfbench"])
    command = [str(build_dir / "vrdfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{args.workload}-{args.seed}.tsv")]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail(f"vrdfbench exited with status {run.returncode}")
    result = json.loads(lines[-1])
    check_metrics(result, spec, args.trace == 1)

    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host_context(source)))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
