#!/usr/bin/env python3
"""Benchmark entry point.

Builds the shaclprov binary and the benchmark harness from source with
dune, then runs one workload and prints its result; the last line of
standard output is the result as one JSON object.

    python3 perfbench/run.py --workload kg-cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 drives the binary end to end and reports the end-to-end
metrics; --trace 1 measures each library layer in-process and reports
the per-layer metrics.  --workload all runs every workload in turn.
The exit code is non-zero when the build fails or any output is wrong.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["kg-cli", "serve-read", "serve-write"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BIN = os.path.join("_build", "default", "bin", "shaclprov.exe")
HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
TIMEOUT_S = 175


def build():
    for required in ("dune-project", os.path.join("bin", "shaclprov.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, required)):
            sys.exit(f"perfbench: {required} not found; run from a full source checkout")
    # dune's progress goes to stderr so stdout ends with the result line
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/shaclprov.exe", "./perfbench/harness.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def run(workload, args):
    argv = [os.path.join(ROOT, HARNESS), "--bin", BIN, "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    sys.stdout.flush()
    # own process group, so a timeout also stops the servers it started
    p = subprocess.Popen(argv, cwd=ROOT, start_new_session=True)
    try:
        return p.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print(f"perfbench: {workload} timed out after {TIMEOUT_S}s", file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run(w, args) for w in workloads]
    sys.exit(0 if all(c == 0 for c in codes) else 1)


if __name__ == "__main__":
    main()
