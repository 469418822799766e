#!/usr/bin/env python3
"""Steadiness check: run each workload over several seeds and report, per
end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--trace 0] \
        [--out results.json] [workload ...]

Run from the root of a checkout. Raw results go to --out when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    raw = {}
    table = ["| workload | metric | median | q1 | q3 | spread | bound |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    ok = True
    for w in names:
        raw[w] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            if res is None or not res["correct"]:
                ok = False
                print("%s seed %d FAILED rc=%d\n%s%s" % (w, seed, p.returncode, p.stdout, p.stderr))
                continue
            raw[w].append({"seed": seed, "result": res, "notes": lines[:-1]})
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))), flush=True)
        runs = raw[w]
        if len(runs) < 4:
            continue
        for m in sorted(runs[0]["result"]["metrics"]):
            vals = [r["result"]["metrics"][m]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            b = bounds.get(m)
            flag = "" if b is None else ("ok" if spread < b / 3 else "WIDE")
            print("%-12s %-10s median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%.3f bound=%s %s" % (
                w, m, med, q1, q3, spread, b, flag), flush=True)
            table.append("| %s | %s | %.6g | %.6g | %.6g | %.3f | %s |" % (w, m, med, q1, q3, spread, b))
    print("\n".join(table))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
