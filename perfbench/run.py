#!/usr/bin/env python3
"""Run one seeded workload of the join-ordering benchmark.

    python3 perfbench/run.py --workload prove|decomp|serve|all \
        --seed N --seconds S --trace 0|1

Builds the benchmark executable and the joinopt CLI from source with dune
(the first build of a checkout may take minutes), runs one measured run,
relays its output and exits non-zero when the build, the run or any
output check fails. The last line of standard output is the run's JSON
result. `--workload all` runs every workload on the seed, untraced then
traced, and fails if any run does (--trace is then ignored). See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = "_build/default/perfbench/bench.exe"
SERVER = "_build/default/bin/joinopt_cli.exe"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170
WORKLOADS = ["prove", "decomp", "serve"]


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune is not on PATH")


def run_group(cmd, timeout, capture):
    """Runs cmd in its own process group; kills the whole group on timeout
    and waits for it, so no process outlives the run."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None,
                            preexec_fn=os.setsid, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{cmd[0]} exceeded {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def build():
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            die(f"not a source checkout of the repository ({need} is missing)")
    cmd = dune_command() + ["build", "--root", ".", "./perfbench/bench.exe",
                            "./bin/joinopt_cli.exe"]
    code, _ = run_group(cmd, BUILD_TIMEOUT, capture=False)
    if code != 0:
        die("build failed")


def measure(workload, seed, seconds, trace):
    """One run; returns whether it produced a correct result."""
    code, out = run_group(
        [BENCH, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--server-exe", SERVER],
        RUN_TIMEOUT, capture=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print(f"run.py: {workload} printed no result", file=sys.stderr)
        return False
    if code != 0 or not result["correct"]:
        print(f"run.py: {workload} output checks failed (exit {code})", file=sys.stderr)
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")
    os.chdir(ROOT)
    build()
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    failed = [f"{w}/trace={t}" for w, t in runs
              if not measure(w, args.seed, args.seconds, t)]
    if failed:
        die("failed: " + ", ".join(failed))


if __name__ == "__main__":
    main()
