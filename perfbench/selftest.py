#!/usr/bin/env python3
"""The benchmark's own test: exact counts repeat, and the traced replay
retraces the untraced search.

    python3 perfbench/selftest.py [--seed N]

Runs the prove workload (jobs 1) twice untraced and twice traced on one
seed, one pass each, and fails unless, operation by operation, the node
count and objective repeat exactly across all four runs and the simplex
iterations across the traced ones. Words allocated must agree within
ALLOC_REL: the solver reads the clock through Milp.Budget.now, which
boxes a fresh float only when the clock has advanced since the previous
read, so a few thousand words per solve depend on timing.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ALLOC_REL = 0.01


def ops(seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "prove",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True).stdout
    rows = []
    for line in out.splitlines():
        if line.startswith("op\t"):
            fields = line.split("\t")
            rows.append(dict(f.split("=", 1) for f in fields[2:]))
    if not rows:
        sys.exit("selftest: the run reported no operations")
    return rows


def close(x, y):
    x, y = float(x), float(y)
    return abs(x - y) <= ALLOC_REL * max(abs(x), abs(y))


def same(a, b, keys, what, approx=()):
    bad = [i for i, (x, y) in enumerate(zip(a, b))
           if any(x[k] != y[k] for k in keys) or any(not close(x[k], y[k]) for k in approx)]
    if len(a) != len(b) or bad:
        sys.exit(f"selftest: {what} differ (ops {bad[:5]}, lengths {len(a)}/{len(b)})")
    print(f"ok: {what} repeat over {len(a)} operations")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    u1, u2 = ops(seed, 0), ops(seed, 0)
    t1, t2 = ops(seed, 1), ops(seed, 1)
    same(u1, u2, ["nodes", "obj"], "untraced nodes, objectives (and allocations)",
         approx=["alloc_words"])
    same(t1, t2, ["nodes", "obj", "simplex_iters"],
         "traced nodes, objectives, simplex iterations (and allocations)", approx=["alloc_words"])
    same(u1, t1, ["nodes", "obj"], "traced and untraced nodes and objectives",
         approx=["alloc_words"])


if __name__ == "__main__":
    main()
