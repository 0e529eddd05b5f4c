#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a base revision against
this checkout.

    python3 perfbench/ab.py BASE_REV [--pairs 10] [--workloads design,fleet]

The base revision is checked out in a git worktree under .bench_build/ab/
(removed again at the end).  Both sides are built and measured with this
checkout's benchmark code and settings (run_seconds of BENCHMARK.json),
so only the library differs.  Pair i runs both sides on seed 1000+i, the
base first on even pairs and the head first on odd ones.  For every end-to-end metric and workload it prints each side's
median and quartiles, the share of pairs the head won (ties count for
neither side), and a verdict:

  improved    at least 10 pairs ran, the head won at least 9 in 10 of
              them, and the medians differ, in the better direction, by
              more than the base's own quartile spread;
  regressed   the head's median is worse than the base's by more than the
              metric's bound;
  unresolved  the base's quartile spread is wider than the bound, so a
              change within it cannot be told from noise (unless every
              head run is better than every base run);
  unchanged   otherwise.

Only this output counts as evidence that a change is faster or at parity.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WIN_SHARE = 0.9
MIN_PAIRS = 10
SEED_BASE = 1000


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_side(source, build_dir, workload, seed):
    command = [sys.executable, str(HERE / "run.py"), "--source", str(source),
               "--build-dir", str(build_dir), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    out = subprocess.run(command, capture_output=True, text=True)
    if out.returncode not in (0, 1):
        sys.stderr.write(out.stderr)
        raise SystemExit(f"ab.py: run failed on {source} ({workload}, seed {seed})")
    result = json.loads(out.stdout.strip().split("\n")[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, result["correct"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when a reads better than b."""
    return a < b if direction == "lower" else a > b


def verdict(base, head, metric):
    direction, bound = metric["better"], metric["bound"]
    b1, b_med, b3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    wins = sum(better(h, b, direction) for b, h in zip(base, head))
    won = wins / len(base)
    if (len(base) >= MIN_PAIRS and won >= WIN_SHARE and better(h_med, b_med, direction)
            and abs(h_med - b_med) > b3 - b1):
        return "improved", won
    all_better = all(better(h, b, direction) for h in head for b in base)
    if b_med != 0 and (b3 - b1) / abs(b_med) > bound and not all_better:
        return "unresolved", won
    worse_by = (h_med - b_med) if direction == "lower" else (b_med - h_med)
    if b_med != 0 and worse_by / abs(b_med) > bound:
        return "regressed", won
    return "unchanged", won


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="base revision (any git revision name)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    base_rev = git("rev-parse", "--verify", args.base + "^{commit}")
    ab_dir = ROOT / ".bench_build" / "ab"
    worktree = ab_dir / f"base-{base_rev[:12]}"
    ab_dir.mkdir(parents=True, exist_ok=True)
    if worktree.is_dir():
        git("worktree", "remove", "--force", str(worktree))
    git("worktree", "add", "--detach", str(worktree), base_rev)
    try:
        values, incorrect = measure(args, workloads, {
            "base": (worktree, ab_dir / f"build-{base_rev[:12]}"),
            "head": (ROOT, ab_dir / "build-head")})
    finally:
        git("worktree", "remove", "--force", str(worktree))
    report(args, spec, workloads, base_rev, values, incorrect)
    return 1 if incorrect else 0


def measure(args, workloads, sides):
    values = {w: {"base": {}, "head": {}} for w in workloads}
    incorrect = []
    for workload in workloads:
        for i in range(args.pairs):
            seed = SEED_BASE + i
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                source, build_dir = sides[side]
                metrics, correct = run_side(source, build_dir, workload, seed)
                if not correct:
                    incorrect.append(f"{side} {workload} seed {seed}")
                for name, value in metrics.items():
                    values[workload][side].setdefault(name, []).append(value)
            print(f"pair {i + 1}/{args.pairs} {workload} done", file=sys.stderr)
    return values, incorrect


def report(args, spec, workloads, base_rev, values, incorrect):
    print(f"base {base_rev[:12]} vs head {git('rev-parse', 'HEAD')[:12]} "
          f"(+ working tree), {args.pairs} pairs per workload")
    header = (f"{'workload':10} {'metric':18} {'base median [q1, q3]':>34} "
              f"{'head median [q1, q3]':>34} {'won':>5}  verdict")
    print(header)
    for workload in workloads:
        for metric in spec["end_to_end"]:
            base = values[workload]["base"][metric["name"]]
            head = values[workload]["head"][metric["name"]]
            verdict_name, won = verdict(base, head, metric)
            bq, hq = quartiles(base), quartiles(head)
            print(f"{workload:10} {metric['name']:18} "
                  f"{bq[1]:12.5g} [{bq[0]:9.5g}, {bq[2]:9.5g}] "
                  f"{hq[1]:12.5g} [{hq[0]:9.5g}, {hq[2]:9.5g}] "
                  f"{won:5.0%}  {verdict_name}")
    for what in incorrect:
        print(f"INCORRECT: {what}")


if __name__ == "__main__":
    sys.exit(main())
