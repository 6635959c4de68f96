#!/usr/bin/env python3
"""Determinism test for the session-engine benchmark.

    python3 sessionbench/check_determinism.py [--seed N] [--seconds S]

Runs every workload twice with one seed, untraced (--trace 0) and traced
(--trace 1), and checks that both runs pass every correctness check and
report identical counts over the counted window: attempts, connects,
admits, repack admits and moves, grows, disconnects, lookups and failed
ops, and in the traced run the layer counts behind multistage.block_rate
and the repack.* rates. The default length is the run_seconds of
BENCHMARK.json (30 s), so the window checked is the one the benchmark
counts. Without --seed it draws a fresh seed and prints it, so each
invocation also checks a seed never used before. Exits 0 when every
workload repeats exactly.
"""
import argparse
import json
import os
import secrets
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper_point", "soak_geometry", "below_bound_repack"]


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    counts = next((json.loads(l[len("counts "):]) for l in lines if l.startswith("counts ")), None)
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, counts, result, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    seed = args.seed if args.seed is not None else secrets.randbelow(2**31)
    print(f"seed {seed}")
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            name = f"{workload} --trace {trace}"
            first = run(workload, seed, args.seconds, trace)
            second = run(workload, seed, args.seconds, trace)
            for code, counts, result, stderr in (first, second):
                if code != 0 or result is None or not result["correct"]:
                    ok = False
                    print(f"{name}: a run failed (exit {code})\n{stderr[-2000:]}")
            if first[1] is None or first[1] != second[1]:
                ok = False
                print(f"{name}: counts differ\n  {first[1]}\n  {second[1]}")
            else:
                print(f"{name}: identical {first[1]}", flush=True)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
