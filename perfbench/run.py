#!/usr/bin/env python3
"""Builds and runs the hierdiff benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is built with cargo into
$CARGO_TARGET_DIR (default `.bench_build`). Inputs are generated from the
seed in a separate process, so the generator's time and memory stay out of
the measured set-up and peak RSS. The last line of standard output is the
result object printed by the measuring process.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ladiff-revision", "serve-chain", "batch-gumtree")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    binary = os.path.join(target, "release", "hierdiff-perfbench")
    inputs = os.path.join(target, "perfbench-inputs", f"{args.workload}-{args.seed}")

    gen = subprocess.run(
        [binary, "gen", "--workload", args.workload, "--seed", str(args.seed),
         "--out", inputs],
        stdout=sys.stderr)
    if gen.returncode != 0:
        sys.exit("perfbench: input generation failed")
    run = subprocess.run(
        [binary, "run", "--workload", args.workload, "--seconds", str(args.seconds),
         "--trace", args.trace, "--inputs", inputs])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
