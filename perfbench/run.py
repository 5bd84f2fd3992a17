#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, relay its result.

    python3 perfbench/run.py --workload dse|verify|explain --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The OCaml benchmark (perfbench/main.ml)
is built with dune into .bench_build and then run once; its last stdout
line is the JSON result.  Build output goes to stderr.  The exit code is
non-zero, with no result printed, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def find_dune():
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.access(candidate, os.X_OK):
            dune = candidate
    return dune


def run(cmd, timeout, stdout):
    """Run cmd to completion; return its exit code.  On a timeout, or when
    this script is terminated, the child is killed and waited for."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["dse", "verify", "explain"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", "./perfbench/main.exe"]
    code = run(build, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0 or not os.path.isfile(EXE):
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return code or 1

    bench = [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return run(bench, RUN_TIMEOUT_S, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
