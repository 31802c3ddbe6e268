#!/usr/bin/env python3
"""Paired before/after runs of the host-time benchmark.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload write \
        --pairs 10 --seeds 31,32,33,34,35,36,37,38,39,40

checks out the parent revision in a git worktree under a scratch
directory (--scratch, default $SCRATCH or a fresh temporary directory),
then runs N pairs of each tree's own `hostbench/run.py` on one workload,
one seed per pair, alternating which side runs first.  For every
end-to-end metric it prints each side's median and quartiles, how many
pairs the change won (ties count for neither side), and whether the
change's gain would count as a claim: at least nine tenths of the pairs
won, and a median difference larger than the parent's interquartile
range.  Every run is printed too.  --parent-dir uses an existing
checkout of the parent instead of a worktree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(tree, workload, seed, seconds):
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    r = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"run failed in {tree} (seed {seed}, exit {r.returncode})")
    out = json.loads(lines[-1])
    return out, {k: v["value"] for k, v in out["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def parent_tree(args):
    if args.parent_dir:
        return args.parent_dir
    scratch = args.scratch or os.environ.get("SCRATCH") or tempfile.mkdtemp()
    tree = os.path.join(scratch, "bench-pairs-parent")
    if not os.path.isdir(tree):
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", tree,
                        args.parent], check=True)
    else:
        subprocess.run(["git", "-C", tree, "checkout", "--detach", args.parent],
                       check=True)
    return tree


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD~1", help="parent revision")
    ap.add_argument("--parent-dir", help="an existing checkout of the parent")
    ap.add_argument("--scratch", help="where the parent worktree goes")
    ap.add_argument("--workload", default="write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", help="comma-separated, one per pair")
    ap.add_argument("--first-seed", type=int, default=101,
                    help="without --seeds: seeds first-seed, first-seed+1, ...")
    ap.add_argument("--seconds", type=float,
                    help="run length (default: the benchmark's own)")
    args = ap.parse_args()

    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(args.first_seed, args.first_seed + args.pairs)))
    if len(seeds) < args.pairs:
        sys.exit(f"{args.pairs} pairs need {args.pairs} seeds, got {len(seeds)}")
    seeds = seeds[:args.pairs]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    parent = parent_tree(args)
    sides = {"parent": parent, "change": ROOT}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            out, metrics = run(sides[side], args.workload, seed, args.seconds)
            runs[side].append(metrics)
            print(f"pair {i + 1:2d} seed {seed:4d} {side:6s} "
                  f"correct={out['correct']} failed={out['failed']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                  flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, parent {args.parent_dir or args.parent}")
    print(f"{'metric':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s}  claim")
    for name, direction in better.items():
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        gain = sign * (cmed - pmed)
        claim = wins >= 0.9 * args.pairs and gain > (pq3 - pq1)
        print(f"{name:16s} {pmed:12.4g} [{pq1:9.4g}, {pq3:9.4g}] "
              f"{cmed:12.4g} [{cq1:9.4g}, {cq3:9.4g}] "
              f"{wins:3d}/{args.pairs}  {'yes' if claim else 'no'}")


if __name__ == "__main__":
    main()
