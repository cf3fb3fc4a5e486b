#!/usr/bin/env python3
"""Noise tooling for the benchmark: smoke, check and spread.

smoke   2 s per workload, gated and traced; asserts that the workload
        and metric names and units the binary emits are exactly the
        ones BENCHMARK.json declares, and that every run is correct.
check   every workload four times on the same code, A-B-B-A; each
        end-to-end metric's median on side B must be within its bound
        of side A's.
spread  ten runs per workload, each with another seed; prints each
        end-to-end metric's quartiles and IQR/median as a Markdown
        table and fails if a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(args, workload, seed, seconds, trace, extra=()):
    cmd = [args.bin, "--out", args.out, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{done.stdout}")
    return result


def declared(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def smoke(args, manifest):
    names = [w["name"] for w in manifest["workloads"]]
    # The binary lists its workloads when asked for one it lacks.
    listing = subprocess.run([args.bin, "--workload", "?"], capture_output=True, text=True).stderr
    built_in = listing.split("one of", 1)[-1].replace(",", " ").split()
    if built_in != names:
        sys.exit(f"workloads differ: binary {built_in}, BENCHMARK.json {names}")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = declared(manifest[key])
        for name in names:
            result = run(args, name, 1, 2, trace, ("--min-passes", "4"))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
                sys.exit(f"{name} --trace {trace}: missing {missing}, undeclared {extra}, "
                         f"unit differs {units}")
            print(f"ok  {name:<15} --trace {trace}  {len(got)} metrics, "
                  f"{result['attempted']} attempted, 0 failed")
    print("smoke: names and units match BENCHMARK.json")


def spread_of(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def spread(args, manifest):
    seconds = args.seconds or manifest["run_seconds"]
    failed = False
    print("| workload | metric | q1 | median | q3 | IQR/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for w in manifest["workloads"]:
        runs = [run(args, w["name"], seed, seconds, 0) for seed in range(1, args.runs + 1)]
        for m in manifest["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3, rel = spread_of(values)
            over = rel > m["bound"] and m["name"] != "setup_s"
            failed |= over
            print(f"| {w['name']} | {m['name']} | {q1:.6g} | {q2:.6g} | {q3:.6g} | "
                  f"{rel:.4f}{' OVER' if over else ''} | {m['bound']} |", flush=True)
    sys.exit(1 if failed else 0)


def check(args, manifest):
    seconds = args.seconds or manifest["run_seconds"]
    failed = False
    for w in manifest["workloads"]:
        # Same code on both sides; seeds differ as the driver's do.
        sides = {"A": [], "B": []}
        for side, seed in (("A", 1), ("B", 2), ("B", 3), ("A", 4)):
            sides[side].append(run(args, w["name"], seed, seconds, 0))
        for m in manifest["end_to_end"]:
            a, b = (statistics.median(r["metrics"][m["name"]]["value"] for r in sides[s])
                    for s in "AB")
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = abs(worse) <= m["bound"]
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {w['name']:<15} {m['name']:<18} "
                  f"A {a:.6g}  B {b:.6g}  {100 * worse:+.2f} %  (bound {100 * m['bound']:.0f} %)",
                  flush=True)
    print("check:", "FAILED" if failed else "every metric within its bound")
    sys.exit(1 if failed else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("smoke", "check", "spread"))
    parser.add_argument("--bin", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=int, help="window per run (default: run_seconds)")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload for spread")
    args = parser.parse_args()
    with open(args.manifest) as f:
        manifest = json.load(f)
    {"smoke": smoke, "check": check, "spread": spread}[args.mode](args, manifest)


if __name__ == "__main__":
    main()
