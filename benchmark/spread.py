#!/usr/bin/env python3
"""Runs workloads repeatedly and reports the spread of every metric.

Usage (from the repository root):

    python3 benchmark/spread.py                       # all workloads, seeds 1-10
    python3 benchmark/spread.py --workloads xshard_open --seeds 1-5
    python3 benchmark/spread.py --holdout 1009        # plus one held-out seed

For each end-to-end metric it prints the median and quartiles over the
runs (statistics.quantiles, n=4) and the spread (q3 - q1) / median set
against the metric's bound in BENCHMARK.json. A spread above a third of
the bound is flagged "wide", above the bound "FAIL"; setup_s is timed
cold once per run and is reported but not gated. A held-out seed's
values are compared with the medians: each should sit within the bound.
Raw results go to .bench_out/spread_<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    for line in proc.stderr.splitlines():
        if "CHECK FAILED" in line or "failed" in line:
            print(f"  {line}", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", type=int, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    ok = True
    for workload in workloads:
        results = []
        for seed in seeds:
            r = run_once(workload, seed, seconds, args.trace)
            results.append({"seed": seed, **r})
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
        (out_dir / f"spread_{workload}.json").write_text(
            json.dumps(results, indent=1))
        ok &= all(r["correct"] for r in results)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, failed share(s) "
              f"{sorted(shares)}")
        print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  status")
        medians = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            medians[name] = med
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            status = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    status = "FAIL"
                    ok = False
                elif spread > bound / 3:
                    status = "wide"
                else:
                    status = "ok"
            print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}  "
                  f"{status}")
        if args.holdout is not None:
            r = run_once(workload, args.holdout, seconds, args.trace)
            print(f"held-out seed {args.holdout}: correct={r['correct']}")
            ok &= r["correct"]
            for name, med in medians.items():
                value = r["metrics"][name]["value"]
                diff = (value - med) / med if med else 0.0
                bound = bounds.get(name)
                flag = ("" if bound is None else
                        "ok" if abs(diff) <= bound else "OUTSIDE")
                print(f"  {name:34} {value:14.6g} {diff:+8.4f}  {flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
