"""Compare two checkouts on one benchmark workload, in pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload desk --pairs 5 --seconds 10

Each pair runs `perfbench/run.py` once in each checkout, in a fresh
interpreter, and the side that runs first alternates from pair to pair:
on a shared host the first run of a pair can read up to 22 % slower, so a
fixed order would bias the comparison.  Both sides run with the same
environment, `PYTHONDONTWRITEBYTECODE=1` included, so that neither reads
bytecode the other had to compile.

Printed: per pair, the change/parent ratio of every end-to-end metric;
then per metric each side's median, the median ratio, how many pairs
went each way, and the parent's interquartile range as a share of its
median (a change smaller than that is not resolved); last, one verdict per
end-to-end metric, judged by the `better` and `bound` that the change
checkout's BENCHMARK.json gives it (see `verdict`).  Exits 1 as soon as a
run fails, reports a failed operation or an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout: Path, args) -> dict:
    """One benchmark run in `checkout`; its result record (last line of stdout)."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or result["correct"] is not True or result["failed"] != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"error: the run in {checkout} failed or was incorrect "
                         f"(exit {proc.returncode})")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def iqr(values) -> float:
    """Interquartile range; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def iqr_share(values) -> float:
    """Interquartile range over the median; 0 for a zero median."""
    median = statistics.median(values)
    return iqr(values) / median if median else 0.0


def verdict(parent, change, better: str, bound: float) -> str:
    """One end-to-end metric's verdict over paired runs, the first that holds:

    - `gain`: the change is better in at least 9 of every 10 pairs (ties
      count for neither side), and its median is better than the parent's
      by more than the parent's interquartile range;
    - `over bound`: the change's median is worse than the parent's by more
      than `bound` times the parent's median;
    - `unresolved`: the parent's interquartile range exceeds `bound` times
      its median, and not every change run is better than every parent run;
    - `within bound` otherwise.
    `better` is "lower" or "higher".
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = [sign * v for v in parent], [sign * v for v in change]  # lower is better
    wins = sum(b < a for a, b in zip(p, c))
    med_p, med_c = statistics.median(p), statistics.median(c)
    if 10 * wins >= 9 * len(p) and med_p - med_c > iqr(p):
        return "gain"
    if med_c - med_p > bound * abs(med_p):
        return "over bound"
    if iqr(p) > bound * abs(med_p) and not max(c) < min(p):
        return "unresolved"
    return "within bound"


def ratio(change: float, parent: float) -> float:
    return change / parent if parent else (1.0 if change == parent else float("inf"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=("desk", "ensemble", "scale", "cli"))
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    declared = sides["change"] / "BENCHMARK.json"
    if not declared.is_file():
        parser.error(f"change checkout {sides['change']} has no BENCHMARK.json")
    end_to_end = json.loads(declared.read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args))
        parent, change = runs["parent"][-1], runs["change"][-1]
        ratios = "  ".join(f"{m} x{ratio(change[m], parent[m]):.3f}" for m in parent)
        print(f"pair {k + 1} ({order[0]} first): {ratios}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, --seconds {args.seconds:g} --seed {args.seed}")
    print(f"{'metric':14s} {'parent':>12s} {'change':>12s} {'ratio':>7s} "
          f"{'lower':>6s} {'higher':>6s} {'parent IQR':>10s}")
    for m in runs["parent"][0]:
        p = [r[m] for r in runs["parent"]]
        c = [r[m] for r in runs["change"]]
        lower = sum(b < a for a, b in zip(p, c))
        higher = sum(b > a for a, b in zip(p, c))
        med_ratio = statistics.median(ratio(b, a) for a, b in zip(p, c))
        print(f"{m:14s} {statistics.median(p):12.6g} {statistics.median(c):12.6g} "
              f"{med_ratio:7.3f} {lower:6d} {higher:6d} {iqr_share(p):10.1%}")
    print()
    for entry in end_to_end:
        m = entry["name"]
        p = [r[m] for r in runs["parent"]]
        c = [r[m] for r in runs["change"]]
        print(f"{m:14s} {verdict(p, c, entry['better'], entry['bound'])} "
              f"({entry['better']} is better, bound {entry['bound']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
