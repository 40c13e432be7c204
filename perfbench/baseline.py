#!/usr/bin/env python3
"""Runs the benchmark the way BENCHMARK.json defines it and records a baseline.

Each workload runs `--runs` times untraced, each with another seed, then
once traced.  Per end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (interquartile range
over median) against the metric's bound, and it writes everything,
together with how each workload is driven, to `--out` as JSON.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# How each workload is driven; see the module docs of perfbench/src.
DRIVE = {
    "batch-javalib": {
        "loop": "time-bounded rounds: cold pass, warm pass, taint client over 46 apps x 3 spec sets",
        "clients": 1,
        "engine_threads": 2,
    },
    "serve-javalib": {
        "loop": "time-bounded episodes of 2 closed-loop sessions x 100 edits, each edit followed by a specs read",
        "clients": 2,
        "engine_threads": 2,
    },
    "edit-synth128": {
        "loop": "time-bounded episodes of 250 edits in one session, each edit followed by a spec-document render",
        "clients": 1,
        "engine_threads": 1,
    },
}
SEED_ARGUMENT = "--seed"
DEFAULT_SEED = 1


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(args, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: exit {done.returncode}, "
          f"correct {result['correct']}, {result['attempted']} attempted, "
          f"{result['failed']} failed, {time.time() - started:.1f} s", flush=True)
    if done.returncode != 0 or not result["correct"]:
        sys.stderr.write(done.stderr)
        sys.exit(f"{workload} seed {seed}: the run failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    opts = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "measured": time.strftime("%Y-%m-%d")},
        "runs": opts.runs,
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    worst = 0.0
    for w in bench["workloads"]:
        name = w["name"]
        if opts.workloads and name not in opts.workloads:
            continue
        seeds = list(range(opts.first_seed, opts.first_seed + opts.runs))
        runs = [run(bench["command"], name, s, bench["run_seconds"], 0) for s in seeds]
        end_to_end = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if spread < bound / 3 else (" > bound/3" if spread <= bound else " > BOUND")
            print(f"  {metric:>14}: median {median:12.5f} spread {spread:6.3f} "
                  f"(bound {bound}){flag}")
            end_to_end[metric] = {"median": median, "q1": q1, "q3": q3,
                                  "spread": spread, "values": values}
        traced = run(bench["command"], name, opts.first_seed, bench["run_seconds"], 1)
        report["workloads"][name] = {
            "why": w["why"],
            "seed_argument": SEED_ARGUMENT,
            "default_seed": DEFAULT_SEED,
            "seeds": seeds,
            **DRIVE[name],
            "nproc": os.cpu_count(),
            "end_to_end": end_to_end,
            "per_layer": traced,
        }
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=False)
            f.write("\n")


if __name__ == "__main__":
    main()
