#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

    python3 perfbench/steady.py [--workload W ...]

Run from the repository root. Runs every workload 10 times (seeds 1..10, the
BENCHMARK.json run length, untraced), two sets over, and prints for each
end-to-end metric of each set its median and quartile spread (Q3 - Q1 over
the median, quartiles as statistics.quantiles(n=4) gives them) beside the
metric's bound, then how far set 2's median moved from set 1's. A spread
over the bound, a median that worsened by more than the bound, or a
failed-operation share that differs between sets marks the line with "!!"
and makes the exit code 1.
"""
import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout
    return json.loads(out.decode().strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for w in workloads:
        sets = []
        for k in range(SETS):
            results = []
            for seed in range(1, RUNS + 1):
                r = run_once(bench, w, seed)
                results.append(r)
                print("%s set %d seed %d: %d/%d failed; %s" % (
                    w, k + 1, seed, r["failed"], r["attempted"],
                    " ".join("%s=%.4g" % (n, v["value"])
                             for n, v in r["metrics"].items())),
                    file=sys.stderr, flush=True)
            sets.append(results)
        shares = {sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets}
        flag = "" if len(shares) == 1 else "  !!"
        bad |= bool(flag)
        print("%s: failed share per set %s%s" % (
            w, ", ".join("%.4f" % x for x in sorted(shares)), flag))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, s in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in s]
                med, sp = statistics.median(vals), spread(vals)
                medians.append(med)
                flag = "  !!" if sp > bound else ""
                bad |= bool(flag)
                print("  %-20s set %d  median %12.4f %-5s spread %6.3f"
                      "  bound %.3f  (spread/bound %.2f)%s" % (
                          name, k + 1, med, m["unit"], sp, bound, sp / bound, flag))
            for k in range(1, len(medians)):
                worse = (medians[k] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = "  !!" if worse > bound else ""
                bad |= bool(flag)
                print("  %-20s set %d vs set 1: worse by %+.3f (bound %.3f)%s" % (
                    name, k + 1, worse, bound, flag))
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
