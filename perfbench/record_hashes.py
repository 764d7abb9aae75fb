#!/usr/bin/env python3
"""Record the output hashes of the batch workloads in perfbench/expected.json.

    python3 perfbench/record_hashes.py

Runs day_scale, sweep and study once per seed in SEEDS (minimum passes, no
timing budget) and writes the hash each prints. Run it from a clean build
only after a change that alters results on purpose; a benchmark run on a
recorded seed fails when its outputs hash differently.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(32)
WORKLOADS = ("day_scale", "sweep", "study")


def main():
    table = {"about": "FNV-1a hash of each batch workload's rendered outputs, "
                      "by seed; written by record_hashes.py"}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in SEEDS:
            result = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", "0.1",
                 "--trace", "0"],
                capture_output=True, text=True)
            found = re.search(r"^output_hash ([0-9a-f]{16})", result.stdout,
                              re.MULTILINE)
            if not found:
                sys.exit(f"{workload} seed {seed}: no output hash\n"
                         f"{result.stdout}{result.stderr}")
            table[workload][str(seed)] = found.group(1)
            print(workload, seed, found.group(1), flush=True)
    with open(os.path.join(HERE, "expected.json"), "w") as out:
        json.dump(table, out, indent=1)
        out.write("\n")


if __name__ == "__main__":
    main()
