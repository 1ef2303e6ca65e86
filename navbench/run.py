#!/usr/bin/env python3
"""Builds and runs the navigation benchmark (see README.md beside this file).

Run from the repository root:

    python3 navbench/run.py --workload lofar-200k --seed 1 --seconds 15 --trace 0
    python3 navbench/run.py --test

The benchmark is built from source with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root. Each run is its own nav_bench
process, which sets the workload's thread count itself. The last line of
standard output is the JSON result line; build logs go to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

# A run must end within 180 s; the build before the first run is not counted.
RUN_TIMEOUT_S = 170


def build(root, build_dir, target):
    source = os.path.join(root, "navbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    step = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="see README.md for the list")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_dir, "navbench")
    out_dir = os.path.join(root, target_dir, "navbench-out")
    target = "nav_bench_test" if args.test else "nav_bench"
    if not build(root, build_dir, target):
        print("navbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, target)
    if args.test:
        return subprocess.run([binary], stdout=sys.stderr).returncode

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_dir]
    start = time.monotonic()
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("navbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    print("navbench: %s ran %.1f s" % (args.workload, time.monotonic() - start),
          file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
