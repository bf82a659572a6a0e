#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload lookup --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (--trace 0) and prints, per
end-to-end metric, the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)).  A spread is marked when it
is not below a third of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import sys

from run import result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        for k, v in result(args.workload, seed, bench["run_seconds"], 0).items():
            values.setdefault(k, []).append(v)
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    print(f"{args.workload}: {len(args.seeds)} seeds")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        mark = "" if spread < bounds[name] / 3 else "  <-- not below bound/3"
        print(f"  {name:16} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
              f"  spread {spread:7.2%}  bound {bounds[name]:.2f}{mark}")


if __name__ == "__main__":
    main()
