#!/usr/bin/env python3
"""Repeat check: the benchmark's counts must not depend on timing.

    python3 perfbench/check_repeat.py

Runs every workload twice with seed 7 (--trace 1) and fails unless
each count below reads exactly the same in both runs.  One client
thread, a seeded op sequence and a seeded scheduler interleaving make
them repeat; a count that drifts means the op sequence or the
program's behaviour has become time-dependent, and comparisons of that
count between commits stop meaning anything.
"""

import sys

from run import result

SEED = 7
SECONDS = 5
WORKLOADS = ["analytics", "lookup", "oltp"]
EXACT = [
    "attempts_per_op",
    "ok_ratio",
    "index.builds_per_op",
    "index.cache_hit_ratio",
    "scheduler.conflicts_per_op",
    "store.fsyncs_per_op",
    "store.wal_bytes_per_op",
    "exec.tuples_moved_per_op",
    "exec.rows_out_per_op",
]


def main():
    drift = []
    for w in WORKLOADS:
        a = result(w, SEED, SECONDS, 1)
        b = result(w, SEED, SECONDS, 1)
        for name in EXACT:
            same = a[name] == b[name]
            print(f"{w:9} {name:28} {a[name]!r:>22} {b[name]!r:>22}"
                  f"  {'ok' if same else 'DRIFT'}")
            if not same:
                drift.append(f"{w}/{name}")
    if drift:
        sys.exit("counts drifted between identical runs: " + ", ".join(drift))
    print("repeat check passed")


if __name__ == "__main__":
    main()
