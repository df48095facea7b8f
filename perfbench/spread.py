#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: the evidence that it is steady.

    python3 perfbench/spread.py [--runs N] [--sets K] [--workloads a,b]
                                [--seed-base S]

Runs every workload named in BENCHMARK.json (or --workloads) N times, each
with its own seed (S, S+1, ...), through perfbench/run.py, and prints per
metric the median, the first and third quartiles and the spread: the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them. Each end-to-end metric's
spread is set against its bound from BENCHMARK.json. With --sets 2 the
whole set is run twice
(seeds S.. and S+N..) and each later set's median is set against the first
one's: worse by more than the bound fails.

Exit codes: 0 every run was correct and every judged spread and median is
within its bound, 1 otherwise, 2 usage.
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

USAGE = __doc__.split("\n\n")[1]


def parse(argv):
    opts = {"--runs": "10", "--sets": "1", "--workloads": "",
            "--seed-base": "1000"}
    i = 0
    while i < len(argv):
        name, eq, value = argv[i].partition("=")
        if name not in opts:
            return None
        if not eq:
            if i + 1 >= len(argv):
                return None
            i += 1
            value = argv[i]
        opts[name] = value
        i += 1
    for key in ("--runs", "--sets", "--seed-base"):
        if not opts[key].isdigit():
            return None
    if int(opts["--runs"]) < 2:
        return None
    return opts


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT)
    lines = proc.stdout.decode().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return float("inf") if second != first else 0.0
    delta = (second - first) if better == "lower" else (first - second)
    return delta / abs(first)


def main(argv):
    opts = parse(argv)
    if opts is None:
        sys.stderr.write("usage: " + USAGE + "\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in opts["--workloads"].split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    specs = {m["name"]: m for m in bench["end_to_end"]}
    runs, sets = int(opts["--runs"]), int(opts["--sets"])
    ok = True
    for workload in workloads:
        medians = []
        for k in range(sets):
            values = {name: [] for name in specs}
            for i in range(runs):
                seed = int(opts["--seed-base"]) + k * runs + i
                code, result = run_once(workload, seed, bench["run_seconds"])
                good = (code == 0 and result is not None
                        and result["correct"] and result["failed"] == 0)
                print("{} set {} seed {}: exit {}{}".format(
                    workload, k + 1, seed, code, "" if good else " FAILED"),
                    flush=True)
                ok &= good
                if result is None:
                    continue
                print("  " + " ".join(
                    "{}={:.6g}".format(name, metric["value"])
                    for name, metric in result["metrics"].items()))
                for name in specs:
                    metric = result["metrics"].get(name)
                    if metric is None:
                        print("  missing metric " + name)
                        ok = False
                    else:
                        values[name].append(metric["value"])
            print("\n{} set {} ({} runs)".format(workload, k + 1, runs))
            print("{:38s} {:>14s} {:>14s} {:>14s} {:>8s} {:>6s}".format(
                "metric", "median", "q1", "q3", "spread", "bound"))
            set_medians = {}
            for name, spec in specs.items():
                vals = values[name]
                if len(vals) < 2:
                    continue
                q1, q2, q3, s = spread(vals)
                set_medians[name] = q2
                bound = spec["bound"]
                verdict = ("ok" if s <= bound / 3 else
                           "within" if s <= bound else "WIDE")
                ok &= s <= bound
                print("{:38s} {:14.6g} {:14.6g} {:14.6g} {:8.4f} {:>6} {}"
                      .format(name, q2, q1, q3, s, bound, verdict))
            medians.append(set_medians)
            print()
        for k in range(1, len(medians)):
            for name, spec in specs.items():
                bound = spec["bound"]
                if name not in medians[k]:
                    continue
                w = worse_by(medians[0][name], medians[k][name],
                             spec["better"])
                bad = w > bound
                ok &= not bad
                print("{} {}: set {} median worse by {:+.4f} (bound {}){}"
                      .format(workload, name, k + 1, w, bound,
                              " FAIL" if bad else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
