#!/usr/bin/env python3
"""Build and run the verifier benchmark from the root of a checkout.

    python3 perfbench/run.py --workload certify|bmc-decide|vrmd-open \
        --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/vrmbench.exe) and the vrm-cli
daemon binary from source with dune, then runs one workload. The last
line of standard output is the program's JSON result. Exits non-zero,
without a result, when the checkout holds no buildable source tree.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKLOADS = ("certify", "bmc-decide", "vrmd-open")
TARGETS = ("./perfbench/vrmbench.exe", "./bin/vrm_cli.exe")
BUILD_TIMEOUT_S = 840
# a run is --seconds plus a few seconds of set-up; far beyond that it hangs
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("no source tree here (missing %s); run from the repository root"
                 % needed)
    os.makedirs(OUT_DIR, exist_ok=True)

    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release"] + list(TARGETS)
    # no shared build cache: the build reads and writes only the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "vrmbench.exe")
    cli = os.path.join(BUILD_DIR, "default", "bin", "vrm_cli.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--vrm-cli", cli, "--out", OUT_DIR]
    # its own process group, so a timeout also takes down the daemon
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.exit(code)


if __name__ == "__main__":
    main()
