#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload analytics|lookup|oltp \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/perfbench.exe from
the checkout's sources with dune into .bench_build (dune's shared cache
off, so nothing is written outside the checkout), then runs it with
every MXRA_* variable removed from its environment: the benchmark pins
its configuration itself.  The benchmark's output passes through; its
last line is the JSON result.  With --trace 1 the benchmark writes the
recorded spans to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.

Exits non-zero, without a result, when the checkout holds no dune
project to build, and non-zero when a result check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["analytics", "lookup", "oltp"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a checkout (no dune-project "
              "and lib/ here)", file=sys.stderr)
        return 2
    if shutil.which("dune") is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("MXRA_")}
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--cache=disabled", "--profile", "release",
         "./perfbench/perfbench.exe"],
        env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    # subprocess.run kills and reaps the child when the timeout expires.
    return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode


def result(workload, seed, seconds, trace):
    """Run this script once in a child process and return its metrics
    as a name -> value dict; exit with the run's output if it failed."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 f"{out.stdout}{out.stderr}")
    return {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}


if __name__ == "__main__":
    sys.exit(main())
