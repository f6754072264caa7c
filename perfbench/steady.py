#!/usr/bin/env python3
"""Steadiness report: run each workload N times with different seeds and
print every metric, the ungated ones too, with its median and quartiles,
flagging any gated end-to-end metric whose spread (interquartile range over
median) exceeds its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads zipf-cached,miss-storm] [--trace 0]

Seeds run 1..N (shift them with --first-seed); --values also prints each
run's value. Exits 1 if any spread exceeds its bound or any run fails or
is incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    result = json.loads(lines[-1])
    # Ungated metrics come on their own line before the result.
    for line in lines[:-1]:
        if line.startswith("ungated "):
            result["ungated"] = json.loads(line[len("ungated "):])
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--values", action="store_true", help="also print each run's value")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = one_run(wl, seed, args.seconds, args.trace)
            if r is None or not r["correct"]:
                print(f"{wl}: run with seed {seed} failed or was incorrect")
                ok = False
            if r is not None:
                results.append(r)
        if len(results) < 2:
            continue
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"== {wl}: {len(results)} runs, {failed} of {attempted} packets "
              "failed (outcome contradicts the oracle; losses are in ok_frac)")
        names = [("metrics", n) for n in results[0]["metrics"]]
        names += [("ungated", n) for n in results[0].get("ungated", {})]
        for kind, name in names:
            values = [r[kind][name]["value"] for r in results]
            unit = results[0][kind][name]["unit"]
            med, q1, q3, sp = spread(values)
            bound = bounds.get(name) if kind == "metrics" and args.trace == 0 else None
            flag = ""
            if bound is not None and sp > bound:
                flag = "  SPREAD OVER BOUND"
                ok = False
            btxt = f" bound {bound:.3f}" if bound is not None else ""
            if kind == "ungated":
                btxt = " (ungated)"
            print(f"  {name:32s} {med:12.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {sp:.3f}{btxt}{flag}")
            if args.values:
                print("      " + " ".join(f"{v:.4g}" for v in values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
