#!/usr/bin/env python3
"""Build and run the host-time benchmark of netd on the kernel model.

Run from the root of a checkout:

    python3 hostbench/run.py --workload write --seed 1 --seconds 20 --trace 0

builds hostbench/hostbench.exe with dune (into $CARGO_TARGET_DIR, default
.bench_build) and runs it.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones (and writes the traced
phase's client spans under the build directory).

    python3 hostbench/run.py --selftest

runs the benchmark's own tests: same-seed determinism of the counts,
the capacity ceiling surfacing as failed calls, and output checks that
must catch a planted wrong answer.

    python3 hostbench/run.py --baseline hostbench/baseline.json

runs every workload with seeds 1-10 and once traced, and writes each
end-to-end metric's median, quartiles and spread (interquartile range
over median), and the per-layer metrics, to the file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
EXE = os.path.join(BUILD, "default", "hostbench", "hostbench.exe")
WORKLOADS = ["write", "read", "restart"]

# Per-layer metrics that are counts of a deterministic simulation: two
# traced runs with one seed must agree on them exactly.
DETERMINISTIC = [
    "block_dev.io_per_op",
    "kernel.server.syscalls_per_op",
    "kernel.client.syscalls_per_op",
    "kernel.server.fs_syscalls_per_op",
    "kernel.server.tcp_syscalls_per_op",
    "kernel.server.futex_syscalls_per_op",
    "kernel.server.sleep_syscalls_per_op",
    "gc.minor_words_per_op",
    "node_core.recover_records",
    "vt.ticks_per_op",
]


def build():
    # Build output goes to stderr: stdout's last line is the result.  No
    # shared dune cache: the build reads and writes only the checkout.
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "--profile", "release", "--cache=disabled",
         "./hostbench/hostbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, check=False)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.exit("hostbench: build failed")


def run_exe(args):
    """Run the benchmark binary; return (exit code, parsed last line)."""
    r = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, check=False)
    lines = r.stdout.decode().strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, result


def selftest():
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, file=sys.stderr)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        runs = [run_exe(["--workload", w, "--seed", str(s), "--trace", "1"])
                for s in (11, 11, 12)]
        for code, res in runs:
            expect(code == 0 and res is not None and res["correct"],
                   f"{w}: traced run passes its output checks")
        a, b, c = (res for _, res in runs)
        if all(r and r["correct"] for r in (a, b, c)):
            for m in DETERMINISTIC:
                expect(a["metrics"][m]["value"] == b["metrics"][m]["value"],
                       f"{w}: {m} identical for one seed")
            expect(sorted(a["metrics"]) == sorted(c["metrics"]),
                   f"{w}: another seed gives the same metric names")

    # 140 keys is past the ~126-key inode ceiling: the refused puts must
    # show up as failed calls in the result, not as a crash or a skip.
    code, res = run_exe(["--workload", "write", "--keys", "140", "--seed", "1",
                         "--seconds", "1", "--trace", "0"])
    expect(res is not None and res["failed"] > 0
           and res["attempted"] >= res["failed"],
           "write past the capacity ceiling reports failed calls "
           f"(exit {code}, {res and res['failed']} of "
           f"{res and res['attempted']} failed)")

    # The output checks must refuse a run whose model disagrees with the
    # store.
    code, res = run_exe(["--workload", "write", "--seed", "1", "--seconds",
                         "1", "--trace", "0", "--plant-wrong-value"])
    expect(code != 0 and res is not None and not res["correct"]
           and res["metrics"] == {},
           "a planted wrong value fails the output checks")
    code, res = run_exe(["--workload", "read", "--seed", "1", "--seconds",
                         "1", "--trace", "0", "--plant-wrong-value"])
    expect(code != 0 and res is not None and not res["correct"],
           "a planted wrong expected value fails the read check")

    print(f"selftest: {len(failures)} failure(s)", file=sys.stderr)
    return 1 if failures else 0


def baseline(path, seconds):
    out = {"seconds": seconds, "seeds": list(range(1, 11)), "workloads": {}}
    for w in WORKLOADS:
        values = {}
        for seed in out["seeds"]:
            code, res = run_exe(["--workload", w, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"])
            if code != 0 or res is None or not res["correct"]:
                sys.exit(f"hostbench: {w} seed {seed} failed")
            for m, v in res["metrics"].items():
                values.setdefault(m, []).append(v["value"])
        e2e = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            e2e[m] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med, "runs": vs}
            print(f"{w:8s} {m:16s} median {med:12.4f} spread "
                  f"{(q3 - q1) / med:6.3f}", file=sys.stderr)
        code, res = run_exe(["--workload", w, "--seed", "1", "--trace", "1"])
        if code != 0 or res is None or not res["correct"]:
            sys.exit(f"hostbench: traced {w} failed")
        out["workloads"][w] = {
            "end_to_end": e2e,
            "per_layer": {m: v["value"] for m, v in res["metrics"].items()},
        }
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--baseline", metavar="FILE")
    a = p.parse_args()
    build()
    if a.selftest:
        return selftest()
    if a.baseline:
        return baseline(a.baseline, a.seconds)
    if a.workload is None:
        p.error("--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans",
                 os.path.join(spans, f"{a.workload}-seed{a.seed}.tsv")]
    return subprocess.run([EXE] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
