#!/usr/bin/env python3
"""Steadiness tool for the TriAL benchmark.

Runs a workload k times with consecutive seeds and prints, for every
metric of the final JSON line, its median, first and third quartile and
the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json.  A second command checks whether two such sets of runs
agree within the bounds.

    python3 trialbench/steady.py run --workload analytic_parallel \
        --runs 10 --seed0 100 --out .bench_build/steady/a.json
    python3 trialbench/steady.py compare .bench_build/steady/a.json \
        .bench_build/steady/b.json

Both commands read BENCHMARK.json from the repository root.  `compare`
fails (exit 1) when a spread exceeds its metric's bound, or when a median
of the second set is worse than the first by more than the bound.  Give
both sets the same --seed0, so that they run the same inputs and their
medians differ only by run-to-run noise; `compare` says when they do not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def cmd_run(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-2000:])
            print("run with seed %d failed (exit %d)" % (seed, proc.returncode))
            return 1
        result = json.loads(lines[-1])
        meta = next((json.loads(l)["meta"] for l in lines
                     if l.startswith('{"meta"')), None)
        runs.append({"seed": seed, "meta": meta, "result": result})
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())), flush=True)
    names = list(runs[0]["result"]["metrics"])
    summary = {}
    print("%-28s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in names:
        s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
        summary[name] = s
        bound = bounds.get(name)
        print("%-28s %14.6g %14.6g %14.6g %8.4f %6s" %
              (name, s["median"], s["q1"], s["q3"], s["spread"],
               "-" if bound is None else bound))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs,
                       "summary": summary}, f, indent=1)
    return 0


def cmd_compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    print("workload %s" % a["workload"])
    seeds_a = [r["seed"] for r in a["runs"]]
    seeds_b = [r["seed"] for r in b["runs"]]
    if seeds_a != seeds_b:
        print("note: the sets ran different seeds (%d-%d and %d-%d)" %
              (min(seeds_a), max(seeds_a), min(seeds_b), max(seeds_b)))
    print("%-22s %12s %12s %8s %8s %8s  %s" %
          ("metric", "median 1", "median 2", "spread1", "spread2", "bound",
           "verdict"))
    for name, m in metrics.items():
        if name not in a["summary"] or name not in b["summary"]:
            continue
        sa, sb = a["summary"][name], b["summary"][name]
        bound = m["bound"]
        if m["better"] == "lower":
            worse = (sb["median"] - sa["median"]) / sa["median"]
        else:
            worse = (sa["median"] - sb["median"]) / sa["median"]
        problems = []
        if max(sa["spread"], sb["spread"]) > bound:
            problems.append("spread over bound")
        if worse > bound:
            problems.append("median worse by %.3f" % worse)
        ok = ok and not problems
        print("%-22s %12.6g %12.6g %8.4f %8.4f %8.3f  %s" %
              (name, sa["median"], sb["median"], sa["spread"], sb["spread"],
               bound, "; ".join(problems) or "ok"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run a workload k times")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1)
    r.add_argument("--seconds", type=int,
                   help="default: run_seconds from BENCHMARK.json")
    r.add_argument("--out")
    c = sub.add_parser("compare", help="check two sets of runs agree")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
