#!/usr/bin/env python3
"""Repeat check for the reference benchmark.

Runs the command of BENCHMARK.json on every workload at ten seeds
(untraced), twice over, and prints per workload x end-to-end metric:

* each set's median and its spread, the distance between the first and
  third quartile (statistics.quantiles(values, n=4)) as a share of the
  median, against the metric's bound;
* how much worse the second set's median is than the first's, against
  the same bound.

Exits non-zero if a spread (other than setup_s's) or a median shift
exceeds its bound, if any run reports a failure, or if a run's seed-S
fingerprint differs between the two sets. Run from the root of a
checkout:

    python3 perfbench/spread.py [--first-seed 1]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SEEDS = 10


def run_once(spec, workload, seed):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    started = time.monotonic()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}\n{done.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{done.stdout}")
    fingerprint = next((l for l in lines if l.startswith("# fingerprint")), "")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, fingerprint, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the ten seeds start here (default 1)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    bad = 0
    total_wall = 0.0
    for workload in [w["name"] for w in spec["workloads"]]:
        sets, prints = [], []
        for _ in range(2):
            runs = [run_once(spec, workload, seed) for seed in seeds]
            sets.append([r[0] for r in runs])
            prints.append([r[1] for r in runs])
            total_wall += sum(r[2] for r in runs)
        if prints[0] != prints[1]:
            print(f"{workload}: fingerprints differ between the two sets")
            bad += 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = [[run[name] for run in one] for one in sets]
            medians = [statistics.median(c) for c in columns]
            spreads = [spread(c) for c in columns]
            verdicts = []
            for s in spreads:
                if s > bound and name != "setup_s":
                    verdicts.append("SPREAD>BOUND")
                    bad += 1
                elif s > bound / 3:
                    verdicts.append("unsteady")
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (medians[1] - medians[0]) / medians[0]
            if worse > bound:
                verdicts.append("SHIFT>BOUND")
                bad += 1
            print(f"{workload:13} {name:18} bound {bound:.2f}  "
                  + "  ".join(f"median {m:.6g} spread {s:.4f}" for m, s in zip(medians, spreads))
                  + f"  second worse by {worse:+.4f}", *verdicts)
        sys.stdout.flush()
    print(f"wall time of all runs: {total_wall:.0f} s")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
