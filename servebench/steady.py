#!/usr/bin/env python3
"""Steadiness report for the serving benchmark.

Runs one workload N times, each with another seed, and prints for every
metric its median, quartiles and spread (the distance between the first
and third quartile as a share of the median) against the metric's
regression bound from BENCHMARK.json.

With --base, it instead measures a pair of checkouts: the parent in
--base and the change in --root, alternating which runs first, and
prints each side's median and quartiles, how many pairs the change won,
and the verdict of the pair rule (a gain needs at least nine tenths of
the pairs won and a median gap wider than the parent's own spread; a
loss beyond the bound is a regression).

Usage, from the root of a checkout:

    python3 servebench/steady.py --workload serve-hot --runs 10
    python3 servebench/steady.py --workload scan-1m --runs 10 --base ../parent
    python3 servebench/steady.py --workload ingest-cluster --trace 1 --runs 2
    python3 servebench/steady.py --workload serve-hot --compare first.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run failed (exit {proc.returncode}): {' '.join(cmd)}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["servebench"] if len(lines) > 1 else {}
    return result, record, wall


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def metric_table(spec, trace):
    if trace:
        return {m["name"]: m for m in spec["per_layer"]}
    return {m["name"]: m for m in spec["end_to_end"]}


def steadiness(args, spec):
    metrics = metric_table(spec, args.trace)
    values = {name: [] for name in metrics}
    walls = []
    for i in range(args.runs):
        seed = args.seed0 + i
        result, record, wall = run_once(args.root, spec, args.workload, seed,
                                        args.seconds, args.trace)
        walls.append(wall)
        ok = result["correct"] and result["failed"] == 0
        notes = record.get("notes", [])
        print(f"run {i + 1}/{args.runs} seed {seed}: {wall:.1f} s, "
              f"correct={result['correct']} failed={result['failed']}"
              + (f" notes={notes}" if notes else ""), flush=True)
        if not ok:
            print("  not correct: " + json.dumps(record.get("broken", [])))
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
    print()
    print(f"{'metric':34} {'unit':>9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
    summary = {}
    for name, m in metrics.items():
        v = values[name]
        q1, med, q3 = quartiles(v)
        s = spread(v)
        bound = m.get("bound")
        ratio = s / bound if bound else None
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if s <= bound / 3 else ("WITHIN" if s <= bound else "OVER")
        print(f"{name:34} {m['unit']:>9} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{s:8.4f} {bound if bound is not None else '-':>6} "
              f"{(f'{ratio:.3f}' if ratio is not None else '-'):>12} {flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                         "bound": bound, "values": v}
    print(f"\nwall per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s, total {sum(walls):.0f} s")
    return summary


def pairs(args, spec):
    metrics = metric_table(spec, args.trace)
    parent = {name: [] for name in metrics}
    change = {name: [] for name in metrics}
    for i in range(args.runs):
        seed = args.seed0 + i
        order = [("parent", args.base), ("change", args.root)]
        if i % 2:
            order.reverse()
        for side, root in order:
            result, _, wall = run_once(root, load_spec(root), args.workload,
                                       seed, args.seconds, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{side} run with seed {seed} was not correct")
            target = parent if side == "parent" else change
            for name in metrics:
                target[name].append(result["metrics"][name]["value"])
            print(f"pair {i + 1}/{args.runs} {side} seed {seed}: {wall:.1f} s",
                  flush=True)
    print()
    print(f"{'metric':34} {'parent med':>12} {'change med':>12} {'change/parent':>13} "
          f"{'wins':>6} {'verdict':>12}")
    for name, m in metrics.items():
        p, c = parent[name], change[name]
        pq1, pmed, pq3 = quartiles(p)
        _, cmed, _ = quartiles(c)
        lower = m["better"] == "lower"
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        gap = abs(cmed - pmed)
        better = cmed < pmed if lower else cmed > pmed
        worse_by = ((cmed - pmed) / pmed if lower else (pmed - cmed) / pmed) if pmed else 0.0
        bound = m.get("bound")
        if better and wins >= 0.9 * len(p) and gap > (pq3 - pq1):
            verdict = "GAIN"
        elif bound is not None and worse_by > bound:
            verdict = "REGRESSION"
        elif bound is not None and spread(p) > bound:
            verdict = "unresolved"
        else:
            verdict = "no worse"
        print(f"{name:34} {pmed:12.6g} {cmed:12.6g} {cmed / pmed if pmed else 0:13.4f} "
              f"{wins:>3}/{len(p):<2} {verdict:>12}")


def compare(spec, summary, path, trace):
    with open(path) as f:
        first = json.load(f)["metrics"]
    print(f"\n{'metric':34} {'first med':>12} {'this med':>12} {'worse by':>9} {'bound':>6}")
    for name, m in metric_table(spec, trace).items():
        a, b = first[name]["median"], summary[name]["median"]
        worse = ((b - a) if m["better"] == "lower" else (a - b)) / a if a else 0.0
        bound = m.get("bound")
        flag = "" if bound is None else ("ok" if worse <= bound else "WORSE")
        print(f"{name:34} {a:12.6g} {b:12.6g} {worse:9.4f} "
              f"{bound if bound is not None else '-':>6} {flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1,
                    help="first seed; run i uses seed0 + i")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--root", default=".", help="checkout to measure (the change)")
    ap.add_argument("--base", default=None, help="parent checkout, for pairs")
    ap.add_argument("--json", default=None, help="write the steadiness summary here")
    ap.add_argument("--compare", default=None,
                    help="an earlier --json summary of the same workload: check that "
                         "this set's medians are no worse than its by more than the bound")
    args = ap.parse_args()
    args.root = os.path.abspath(args.root)
    spec = load_spec(args.root)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.base:
        args.base = os.path.abspath(args.base)
        pairs(args, spec)
    else:
        summary = steadiness(args, spec)
        if args.compare:
            compare(spec, summary, args.compare, args.trace)
        if args.json:
            with open(args.json, "w") as f:
                json.dump({"workload": args.workload, "seconds": args.seconds,
                           "metrics": summary}, f, indent=1)


if __name__ == "__main__":
    main()
