#!/usr/bin/env python3
"""Runs one benchmark workload over several seeds and reports, for each
metric, the median of the runs and the distance between the first and
third quartile as a share of the median -- the spread a metric's bound
in BENCHMARK.json has to cover.

Run from the repository root:

    python3 pncbench/spread.py --workload oneshot_f64 --seeds 1-10
    python3 pncbench/spread.py --workload train_mc --seeds 11-15 --trace 1

By default each run uses the command in BENCHMARK.json; `--bin` runs an
already built `pncbench` executable instead.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--bin", help="pncbench executable to run instead of the command")
    args = p.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    command = [args.bin] if args.bin else bench["command"]

    values = {}
    for seed in args.seeds:
        run = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", args.trace],
            capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}\n{run.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output check failed\n{run.stdout}")
        if result["failed"]:
            notes = [l for l in lines if l.startswith("failed ")]
            print(f"seed {seed}: {result['failed']} ops failed: {notes}")
        shown = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            shown.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(shown), flush=True)

    worst = 0.0
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound and name != "setup_s":
            worst = max(worst, spread / bound)
            verdict = f" bound {bound} -> {'ok' if spread < bound / 3 else 'TOO WIDE'}"
        print(f"{name}: median {q2:.6g} spread {spread:.4f}{verdict}")
    if args.trace == "0":
        print(f"worst spread/bound: {worst:.3f} (below 0.333 is steady)")


if __name__ == "__main__":
    main()
