#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program and the simulator libraries
it links are built in .bench_build/perfbench (Release: -O3 plus LTO);
build output goes to standard error. The program's standard output is
passed through unchanged: a manifest line, then the result line. A
traced run (--trace 1) also writes its spans to
.bench_build/perfbench/trace-<workload>-<seed>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure (first time) and build the program; return its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def revision():
    """`git describe` of the checkout with its dirty flag, if it is one."""
    try:
        described = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return described.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=int,
                        help="problem scale in percent (default: the "
                             "workload's own)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="make one design point fail its check")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--revision", revision()]
    if args.scale is not None:
        command += ["--scale", str(args.scale)]
    if args.inject_failure:
        command.append("--inject-failure")
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
