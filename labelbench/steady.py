#!/usr/bin/env python3
"""Steadiness check: runs one workload N times with different seeds and
prints, for each metric, the median, the quartiles and the relative spread
(interquartile distance over the median) next to the metric's bound in
BENCHMARK.json.

    python3 labelbench/steady.py --workload demo_cold --runs 10
    python3 labelbench/steady.py --workload warm_http --runs 5 --trace 1

Run it from the repository root.  A spread within a third of its bound is
reported as `steady`; `setup_s` has no spread bound, only a median one.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values, shares, walls = {}, set(), []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        started = time.monotonic()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.monotonic() - started)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: checks failed\n{done.stderr}", file=sys.stderr)
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        notes = [line.strip() for line in lines if line.startswith(("latency ms", args.workload))]
        print(f"seed {seed}: {walls[-1]:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}; " + "; ".join(notes), file=sys.stderr)

    print(f"{args.workload}, {args.runs} runs of {seconds} s (trace {args.trace}), "
          f"median wall {statistics.median(walls):.1f} s")
    failed = {f / a for f, a in shares}
    print(f"failed share per run: {sorted(failed)}"
          + ("" if len(failed) == 1 else "  <-- differs between runs"))
    print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, med, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (series[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        if bound is None or name == "setup_s":
            verdict = ""
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        shown = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:<28} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} {shown:>6}  {verdict}")


if __name__ == "__main__":
    main()
