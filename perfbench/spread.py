#!/usr/bin/env python3
"""Spread report for the benchmark: median and quartiles of each metric over
repeated runs, checked against the bounds in BENCHMARK.json.

Run from the repository root.

  # ten runs of one workload, seeds 1..10, results appended to a JSONL file
  python3 perfbench/spread.py --workload tatp-inproc --runs 10 --save runs.jsonl

  # report on saved runs (any number of files); --trace 1 runs report the
  # per-layer metrics instead
  python3 perfbench/spread.py runs.jsonl

  # A/B: compare saved runs against a baseline set of the same workloads
  python3 perfbench/spread.py change.jsonl --baseline parent.jsonl

Spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4).  A metric is "steady" when its spread is
below a third of its bound (setup_s is exempt from the spread rule).  In
--baseline mode a metric "regressed" when its median is worse than the
baseline median by more than its bound.  Exits 1 if any run was incorrect,
a metric is unsteady, or a metric regressed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SPREAD_EXEMPT = {"setup_s"}


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "exit": proc.returncode, "wall_s": round(wall, 2),
            "result": result}


def read_jsonl(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.extend(json.loads(line) for line in f if line.strip())
    return records


def by_workload(records):
    groups = {}
    for r in records:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    return groups


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs(bench, trace):
    if trace:
        return [(m["name"], m["unit"], m["better"], None) for m in bench["per_layer"]]
    return [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]


def medians(group):
    values = {}
    for r in group:
        for name, m in (r["result"] or {}).get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    return {name: quartiles(v)[1] for name, v in values.items()}, values


def report(bench, groups, baseline):
    ok = True
    for (workload, trace), group in sorted(groups.items()):
        bad = [r for r in group
               if r["exit"] != 0 or not r["result"] or not r["result"]["correct"]]
        print(f"\n== {workload} (trace={trace}): {len(group)} runs, "
              f"seeds {sorted(r['seed'] for r in group)}, "
              f"wall {statistics.median(r['wall_s'] for r in group):.1f} s median")
        if bad:
            ok = False
            print(f"   INCORRECT runs: {[(r['seed'], r['exit']) for r in bad]}")
        _, values = medians(group)
        base = None
        if baseline is not None and (workload, trace) in baseline:
            base, _ = medians(baseline[(workload, trace)])
        header = f"   {'metric':<32} {'unit':<10} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}"
        if base is not None:
            header += f" {'base':>14} {'change':>8}"
        print(header)
        for name, unit, better, bound in metric_specs(bench, trace):
            v = values.get(name, [])
            if not v:
                print(f"   {name:<32} missing")
                ok = False
                continue
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"   {name:<32} {unit:<10} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                    f"{spread:>8.4f} {bound if bound is not None else '-':>6}")
            flags = []
            if bound is not None and name not in SPREAD_EXEMPT and spread >= bound / 3:
                flags.append("UNSTEADY")
                ok = False
            if base is not None and name in base and base[name]:
                change = (med - base[name]) / base[name]
                line += f" {base[name]:>14.4f} {change:>+8.4f}"
                worse = -change if better == "higher" else change
                if bound is not None and worse > bound:
                    flags.append("REGRESSED")
                    ok = False
            print(line + ("  " + " ".join(flags) if flags else ""))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*", help="JSONL files of saved runs")
    ap.add_argument("--workload", action="append", default=[],
                    help="run this workload (repeatable)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save", help="append the runs made to this JSONL file")
    ap.add_argument("--baseline", help="JSONL file of baseline runs to compare against")
    args = ap.parse_args()

    bench = load_benchmark()
    records = read_jsonl(args.files)
    seconds = args.seconds or bench["run_seconds"]
    for workload in args.workload:
        for i in range(args.runs):
            r = run_once(bench, workload, args.seed0 + i, seconds, args.trace)
            print(f"{workload} seed={r['seed']} exit={r['exit']} wall={r['wall_s']}s",
                  file=sys.stderr, flush=True)
            records.append(r)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps(r) + "\n")
    if not records:
        ap.error("no runs: give JSONL files or --workload")
    baseline = by_workload(read_jsonl([args.baseline])) if args.baseline else None
    return 0 if report(bench, by_workload(records), baseline) else 1


if __name__ == "__main__":
    sys.exit(main())
