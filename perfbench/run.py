#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (and the epserve library it links) into the
build directory, then runs one workload. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build; a build that is up to date
costs a second. Build output goes to stderr, so the last line on stdout is
the benchmark's JSON result. Exits non-zero, printing no result, when the
build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", build_dir, "--target", "epbench",
                     "-j", "4"]):
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "epbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--root", ROOT, "--trace-dir",
               os.path.join(build_dir, "traces")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
