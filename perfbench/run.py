#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (and the library sources it measures) into .bench_build/; later
runs only confirm the build is current. The benchmark's output is relayed
unchanged: one line per metric, then the JSON result as the last line.
With --trace 1 the run preloads the clock_gettime counter and writes a
Chrome trace under .bench_build/traces/. The exit status is the
benchmark's: non-zero on a build failure or on any failed op.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("p2p_small", "bulk", "cg_app", "service")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the benchmark targets; output to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "perfbench", "perfbench_clockcount"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not build():
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    # The library reads JHPC_* knobs from the environment; the benchmark
    # sets every value it depends on, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("JHPC_")}
    if args.trace == "1":
        env["LD_PRELOAD"] = os.path.join(BUILD, "libperfbench_clockcount.so")
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.trace.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %d s" %
              (args.workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
