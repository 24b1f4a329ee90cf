#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload lm-train --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The executable is built with dune into
_build/ and writes its run record (and, traced, a Chrome trace) into
.perfbench-out/. The last line of standard output is the JSON result.
Exits non-zero, printing no result, when the sources are missing, the
build fails or a run does not finish in time.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lm-train", "compile-zoo", "serve-mix")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def terminate(signum, _frame):
    # subprocess.run kills and waits for its child when interrupted.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    if args.seconds < 1:
        fail("--seconds must be a positive integer")
    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found under %s: run from a full checkout" % (needed, ROOT))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    except subprocess.TimeoutExpired:
        fail("build did not finish in %d s" % BUILD_TIMEOUT_S, 1)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode, 1)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run did not finish in %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
